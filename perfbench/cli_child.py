"""Traced stand-in for `python -m eqlab.cli`, with a stage split of the process.

Usage: cli_child.py SPAWN_TIME SUMMARY_PATH CLI-ARGS...

SPAWN_TIME is the parent's `time.perf_counter()` just before it started
this process (the clock is system-wide), so the time to this file's
first line is the bare interpreter start.  The script then imports
eqlab.cli, installs the span tracer and calls `eqlab.cli.run` exactly as
`python -m eqlab.cli` would, timing the stages it passes through:

- parse: building the argument parser and parsing the arguments,
- load: reading input files and turning them into program objects
  (which includes schema validation),
- emit: turning results into text and writing them,
- compute: the rest of the command.

Stage times and the span summary go to SUMMARY_PATH as JSON; the CLI's
own output and exit code are unchanged.
"""

from time import perf_counter

STARTED = perf_counter()

import os  # noqa: E402  (loaded by interpreter start-up already)
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

# the import stage covers everything `import eqlab.cli` loads, argparse and json too
import eqlab.cli as cli  # noqa: E402

IMPORTED = perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402

import tracing  # noqa: E402

LOAD = ("_load_json", "triangulation_from_json", "lamination_from_json",
        "surface_from_json", "chain_from_json", "validate")
EMIT = tuple(name for name in tracing.EMIT_FUNCTIONS if hasattr(cli, name)) + ("_write_output",)


def _timed(fn, stage, stages):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stages[stage] += perf_counter() - t
    return wrapper


def main() -> int:
    spawned = float(sys.argv[1])
    summary_path = sys.argv[2]
    stages = {"interp": STARTED - spawned, "import": IMPORTED - STARTED, "parse": 0.0,
              "load": 0.0, "compute": 0.0, "emit": 0.0}
    tracer = tracing.Tracer()
    tracer.install()
    # stage timers sit on top of the tracer's wrappers, on eqlab.cli's own names
    cli.build_parser = _timed(cli.build_parser, "parse", stages)
    parse_args = argparse.ArgumentParser.parse_args
    argparse.ArgumentParser.parse_args = _timed(parse_args, "parse", stages)
    for name in LOAD:
        setattr(cli, name, _timed(getattr(cli, name), "load", stages))
    for name in EMIT:
        setattr(cli, name, _timed(getattr(cli, name), "emit", stages))
    tracer.active = True
    t = perf_counter()
    try:
        code = cli.run(sys.argv[3:])
    finally:
        total = perf_counter() - t
        tracer.active = False
        sys.stdout.flush()
        stages["compute"] = total - stages["parse"] - stages["load"] - stages["emit"]
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"stages": stages, "trace": tracer.summary(),
                       "eqlab_file": cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
