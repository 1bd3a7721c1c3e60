"""eqlab benchmark: one workload, one seed, one measured run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: conjugacy_sweep, lamination_quake, chain_lemma, cli_cold (see
perfbench/README.md).  The program is imported from the checkout's
`src`; nothing needs installing.

--trace 0 measures the end-to-end metrics.  The timed phase runs a fixed
number of whole rounds of seeded operations, one at a time: as many as
take S seconds on the box the benchmark was sized on (ROUND_SECONDS),
so which operations run, and how many fail, depends only on the seed
and S, never on the speed of the run.  Each operation is timed on its
own and its output is checked right after, outside the timing.
setup_s is the median of several cold set-ups, each a fresh process
started by this one.  Times are scaled to reference speed
(calibrate.py).

--trace 1 measures the per-layer split instead: the same rounds run
with every eqlab layer boundary traced, then the first half of them
runs again untraced, which gives the tracing overhead and shows that
tracing changed no outcome.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
run (commit, source digest, eqlab.__file__, failures by type).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    HERE, IN_PROCESS, ROOT, SRC, WORK, WORKLOADS, CliCold, CliOutput, Failure, import_eqlab)

SETUP_PROBES = 9
# wall seconds one round took on the 2-core box the benchmark was sized on
ROUND_SECONDS = {"conjugacy_sweep": 3.5, "lamination_quake": 3.6, "chain_lemma": 0.55,
                 "cli_cold": 3.3}
FAILURE_KINDS = ("DivergentBudgetError", "TimeRangeError", "ResidualAboveTolerance")


def pin_to_one_cpu() -> None:
    """Keep this process and every child on one CPU.

    The calibration samples and the operations (or the CLI children)
    then run on the same core; on a shared box two cores can differ in
    speed by a third at the same moment.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: calibration still helps, less


def make(workload: str, traced: bool = False):
    if workload == "cli_cold":
        return CliCold(traced)
    return IN_PROCESS[workload]()


def rounds_for(workload: str, seconds: float) -> int:
    """The number of rounds that stands for `seconds` of measurement."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def setup(workload: str, seed: int, traced: bool = False):
    """Everything before the timed phase: import, inputs, warm-up."""
    wl = make(workload, traced)
    first = wl.round(seed, 0)
    wl.warm_up()
    return wl, first


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time from process start to the end of warm-up, over fresh processes.

    Returns the time at reference speed and as measured.  Each probe is
    paired with a bare interpreter start right after it, and the
    reference-speed time is START_REFERENCE_S times the median ratio of
    probe to start.
    """
    measured, ratios = [], []
    for _ in range(SETUP_PROBES):
        spawned = perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-probe", "1"],
            check=True, capture_output=True, text=True, timeout=120)
        measured.append(float(out.stdout.split()[-1]) - spawned)
        ratios.append(measured[-1] / calibrate.interpreter_start())
    return (calibrate.START_REFERENCE_S * statistics.median(ratios),
            statistics.median(measured))


class Rounds:
    """What the timed phase keeps per operation: its latency and verdict.

    Each output is judged as soon as its operation is timed and then
    dropped, so the benchmark's own heap, which the program's garbage
    collections must walk, does not grow with the run.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str | None] = []  # None, or the failure type counted
        self.wrong: list[str] = []
        self.children: list[CliOutput] = []  # CLI processes, without their output text
        self.wall = 0.0
        self.count = 0

    @property
    def failed(self) -> int:
        return sum(1 for kind in self.kinds if kind)

    def extend(self, other: "Rounds") -> None:
        self.latencies += other.latencies
        self.kinds += other.kinds
        self.wrong += other.wrong
        self.children += other.children
        self.wall += other.wall
        self.count += other.count


def timed_rounds(wl, seed, first, rounds, start=0, tracer=None, clock=None) -> Rounds:
    """Rounds start .. start + rounds - 1; `first` is round 0, made during set-up.

    `wall` is the wall time of the rounds without the input generation,
    judging and calibration between operations.
    """
    run = Rounds()
    for index in range(start, start + rounds):
        ops = first if index == 0 else wl.round(seed, index)
        round_start = perf_counter()
        for op in ops:
            if tracer:
                tracer.active = True
            start = perf_counter()
            try:
                out = wl.attempt(op)
            except Exception as exc:  # a failed operation is recorded, not fatal
                out = Failure(type(exc).__name__, str(exc))
            latency = perf_counter() - start
            if tracer:
                tracer.active = False
            paused = perf_counter()
            kind, reason = wl.judge(op, out)
            run.latencies.append(latency)
            run.kinds.append(kind)
            if reason:
                run.wrong.append(reason)
            if isinstance(out, CliOutput):
                run.children.append(out._replace(stdout="", stderr=""))
            if clock:
                clock.after(latency)
            round_start += perf_counter() - paused
        run.wall += perf_counter() - round_start
        run.count += 1
    return run


def failure_counts(kinds) -> dict:
    return dict(sorted(Counter(kind for kind in kinds if kind).items()))


def percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eqlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = ""
    if (ROOT / ".git").exists():  # never report the HEAD of an enclosing repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except OSError:
            pass
    return {"commit": commit or "unknown", "source_sha256": digest.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args):
    wl, first = setup(args.workload, args.seed)
    setup_s, raw_setup_s = setup_seconds(args.workload, args.seed)
    if args.workload == "cli_cold":  # the in-process loop does not follow fresh processes
        clock = calibrate.Clock(calibrate.interpreter_start, calibrate.START_REFERENCE_S)
    else:
        clock = calibrate.Clock(calibrate.sample, calibrate.REFERENCE_S)
    run = timed_rounds(wl, args.seed, first, rounds_for(args.workload, args.seconds),
                       clock=clock)
    scale = clock.scale()
    n = len(run.latencies)
    latencies_ms = [t * 1e3 for t in run.latencies]
    if args.workload == "cli_cold":
        peak_kb = max(child.maxrss_kb for child in run.children)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {"setup_s": raw_setup_s, "op_ms_p50": statistics.median(latencies_ms),
           "op_ms_p90": percentile(latencies_ms, 90), "ops_per_s": n / run.wall}
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "op_ms_p50": metric(raw["op_ms_p50"] * scale, "ms"),
        "ops_per_s": metric(raw["ops_per_s"] / scale, "1/s"),
        "success_rate": metric(1.0 - run.failed / n, "ratio"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MiB"),
    }
    # p90 is recorded, not reported: it did not repeat within a tenth (README)
    info = {"raw": raw, "scale": scale, "op_ms_p90": raw["op_ms_p90"] * scale,
            "rounds": run.count, "samples": n,
            "wall_s": run.wall, "error_rate": run.failed / n,
            "failures": failure_counts(run.kinds), "wrong": run.wrong[:5]}
    return metrics, info, run


def per_layer(args):
    traced_wl, first = setup(args.workload, args.seed, traced=True)
    tracer = None
    if args.workload != "cli_cold":
        tracer = tracing.Tracer()
        tracer.install()
    rounds = rounds_for(args.workload, args.seconds)
    half = (rounds + 1) // 2
    # every round runs traced, so the outcomes are those of the --trace 0 run;
    # the first half then runs again untraced, for the overhead
    traced = timed_rounds(traced_wl, args.seed, first, half, tracer=tracer)
    rest = timed_rounds(traced_wl, args.seed, None, rounds - half, start=half, tracer=tracer)
    if tracer:
        tracer.uninstall()
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}.bin")
        plain_wl = traced_wl
    else:
        plain_wl = CliCold(traced=False)
    plain = timed_rounds(plain_wl, args.seed, plain_wl.round(args.seed, 0), half)
    if traced.kinds != plain.kinds:
        traced.wrong.append("tracing changed the outcome of some operations")
    compared = len(plain.latencies)
    overhead = {
        "trace.ops_per_s": metric(compared / traced.wall, "1/s"),
        "trace.untraced_ops_per_s": metric(compared / plain.wall, "1/s"),
        "trace.overhead_pct": metric((traced.wall / plain.wall - 1.0) * 100.0, "%"),
    }
    info = {"compared_rounds": plain.count, "compared_traced_wall_s": traced.wall,
            "compared_untraced_wall_s": plain.wall,
            "untraced_error_rate": plain.failed / compared}
    traced.extend(rest)
    traced.wrong += plain.wrong
    if tracer:
        summaries = [tracer.summary()]
    else:
        summaries = [child.summary["trace"] for child in traced.children if child.summary]
    ops = len(traced.latencies)
    metrics = layer_metrics(summaries, traced.children, ops)
    metrics.update(overhead)
    metrics["ops.error_rate"] = metric(traced.failed / ops, "ratio")
    counts = failure_counts(traced.kinds)
    for kind in FAILURE_KINDS:
        metrics[f"ops.{kind}"] = metric(counts.get(kind, 0) / ops, "ratio")
    info = {"rounds": traced.count, "samples": ops, "wall_s": traced.wall, **info,
            "spans": sum(s["layers"][layer][0] for s in summaries for layer in tracing.LAYERS),
            "error_rate": traced.failed / ops, "failures": counts, "wrong": traced.wrong[:5]}
    return metrics, info, traced


def layer_metrics(summaries, children, ops) -> dict:
    spans, layers, errors = {}, {name: [0, 0.0, 0.0] for name in tracing.LAYERS}, {}
    supplied = retained = 0
    for s in summaries:
        for name, values in s["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += values[i]
        for name, values in s["layers"].items():
            for i in range(3):
                layers[name][i] += values[i]
        for key, n in s["errors"].items():
            errors[key] = errors.get(key, 0) + n
        supplied += s["factors"][0]
        retained += s["factors"][1]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def seconds(*names):
        return sum(spans.get(name, [0, 0.0, 0.0])[1] for name in names)

    out = {}
    for layer in tracing.LAYERS:
        n, total, own = layers[layer]
        out[f"{layer}.calls"] = metric(n / ops, "count/op")
        out[f"{layer}.total_ms"] = metric(total * 1e3 / ops, "ms/op")
        out[f"{layer}.self_ms"] = metric(own * 1e3 / ops, "ms/op")
        out[f"{layer}.errors"] = metric(
            sum(v for k, v in errors.items() if k.split(":")[0] == layer) / ops, "count/op")
    for key in tracing.KNOWN_ERRORS:
        out[f"{key.replace(':', '.errors.')}"] = metric(errors.get(key, 0) / ops, "count/op")
    out["hyp.moebius_new"] = metric(calls("hyp.moebius_new") / ops, "count/op")
    out["hyp.moebius_matmul"] = metric(calls("hyp.moebius_matmul") / ops, "count/op")
    out["hyp.moebius_inverse"] = metric(calls("hyp.moebius_inverse") / ops, "count/op")
    out["triangle.holonomy_calls"] = metric(calls("triangle.holonomy") / ops, "count/op")
    out["triangle.place_calls"] = metric(calls("triangle.place") / ops, "count/op")
    out["transport.crossing_factors"] = metric(
        calls("transport.crossing_factor_new") / ops, "count/op")
    out["transport.products"] = metric(calls("transport.ordered_product") / ops, "count/op")
    out["transport.retained_ratio"] = metric(retained / supplied if supplied else 0.0, "ratio")
    out["surface.cuff_shears"] = metric(calls("surface.shear_across_cuff") / ops, "count/op")
    builds = calls("lamination.build")
    queries = calls("lamination.separating_leaves")
    out["lamination.builds"] = metric(builds / ops, "count/op")
    out["lamination.build_ms"] = metric(
        seconds("lamination.build") * 1e3 / builds if builds else 0.0, "ms/build")
    out["lamination.queries"] = metric(queries / ops, "count/op")
    out["lamination.query_ms"] = metric(
        seconds("lamination.separating_leaves") * 1e3 / queries if queries else 0.0,
        "ms/query")
    out["conjugacy.samples"] = metric(calls("conjugacy.sample_new") / ops, "count/op")
    out["schemas.validate_ms"] = metric(seconds("schemas.validate") * 1e3 / ops, "ms/op")
    out["schemas.emit_ms"] = metric(
        seconds(*(f"schemas.{name}" for name in tracing.EMIT_FUNCTIONS)) * 1e3 / ops, "ms/op")
    cli_stages = [child.summary["stages"] for child in children if child.summary]
    for stage in ("interp", "import", "parse", "load", "compute", "emit"):
        value = statistics.fmean(s[stage] for s in cli_stages) * 1e3 if cli_stages else 0.0
        out[f"cli.{stage}_ms"] = metric(value, "ms/op")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    # a cold cli_cold set-up never imports eqlab in this process
    eqlab = None if args.setup_probe and args.workload == "cli_cold" else import_eqlab()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(repr(perf_counter()))
        return 0
    pin_to_one_cpu()
    metrics, info, run = (per_layer if args.trace else end_to_end)(args)
    head = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "eqlab_file": eqlab.__file__, **source_identity(),
            **info}
    print(json.dumps(head))
    print(json.dumps({"correct": not run.wrong, "attempted": len(run.latencies),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
