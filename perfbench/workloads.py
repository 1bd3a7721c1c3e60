"""The four workloads: what one operation does, and how its output is judged.

An in-process workload runs its operations by calling eqlab's public
functions on the generated inputs.  `cli_cold` runs each operation as a
fresh `python -m eqlab.cli` process from the checkout's `src`.

`attempt(op)` is the timed part and returns the output; an exception
it raises is recorded as a `Failure`.  `judge(op, output)` runs right
after, outside the timing, and returns `(kind, wrong)`: `kind` is None
for a passed operation, else the failure type that is counted (an
exception name, `ResidualAboveTolerance` for a report with `passed:
false`, `WrongOutput` for an output that fails its check); `wrong` is
the check's reason when the output is not correct.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


class Failure(NamedTuple):
    kind: str
    message: str


def import_eqlab():
    """Import eqlab from this checkout's src, and refuse any other copy."""
    if not (SRC / "eqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eqlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eqlab

    if Path(eqlab.__file__).resolve().parent != SRC / "eqlab":
        raise SystemExit(f"perfbench: imported eqlab from {eqlab.__file__}, not {SRC}")
    return eqlab


class _Verifier:
    """An in-process workload whose operation returns a VerificationReport."""

    check = None  # the checks.* function for this verifier's report

    def judge(self, op, report):
        if isinstance(report, Failure):
            return report.kind, None
        wrong = self.check(op, checks.report_samples(report), report.max_residual,
                           report.tolerance, report.passed)
        if wrong:
            return "WrongOutput", wrong
        return (None if report.passed else "ResidualAboveTolerance"), None


class ConjugacySweep(_Verifier):
    """verify_conjugacy on one genus-two surface, one cuff arc, six times."""

    round = staticmethod(inputs.conjugacy_round)
    check = staticmethod(checks.conjugacy_report)

    def __init__(self):
        import_eqlab()
        from eqlab import conjugacy, surface

        # functions are looked up at call time, so a tracer's wrappers are seen
        self.surface = surface
        self.conjugacy = conjugacy

    def warm_up(self):
        s = self.surface.FNSurface.genus2()
        self.conjugacy.verify_conjugacy(s, self.surface.WeightedMulticurve({0: 1.0}), [0],
                                        (0.0, 0.1))

    def attempt(self, op):
        s = self.surface.FNSurface.genus2(op["lengths"], op["twists"], op["signs"])
        mc = self.surface.WeightedMulticurve({op["arc"]: op["weight"]})
        return self.conjugacy.verify_conjugacy(s, mc, [op["arc"]], op["ts"],
                                               tolerance=checks.CONJUGACY_TOL)


class ChainLemma(_Verifier):
    """verify_fundamental_lemma on one developed half-plane chain, six times."""

    round = staticmethod(inputs.chain_round)
    check = staticmethod(checks.chain_report)

    def __init__(self):
        import_eqlab()
        from eqlab import conjugacy

        self.conjugacy = conjugacy

    def warm_up(self):
        chain = self.conjugacy.ChainConfiguration.from_steps([(1, 0.5), (2, -0.3)], [1.0, 0.0])
        self.conjugacy.verify_fundamental_lemma(chain, (0.1, 0.2))

    def attempt(self, op):
        chain = self.conjugacy.ChainConfiguration.from_steps(op["steps"], op["weights"])
        return self.conjugacy.verify_fundamental_lemma(chain, op["ts"],
                                                       tolerance=checks.CHAIN_TOL)


class LaminationQuake:
    """Build one DiscreteLamination, then earthquake_map 32 targets through it."""

    round = staticmethod(inputs.lamination_round)

    def __init__(self):
        eqlab = import_eqlab()
        self.hyp = eqlab.hyp
        self.lamination = eqlab.lamination

    def warm_up(self):
        rng = inputs.rng_for("warm_up", 0, 0)
        self.attempt(inputs.lamination_op(rng, 50, False))

    def attempt(self, op):
        hyp = self.hyp
        lam = self.lamination.DiscreteLamination.from_pairs(op["leaves"])
        base = hyp.UnitTangent.upward_at(hyp.HPoint(*op["base"]))
        return [
            self.lamination.earthquake_map(lam, op["t"], base, hyp.HPoint(*p))
            for p in op["targets"]
        ]

    def judge(self, op, images):
        if op["planted"]:
            if isinstance(images, Failure) and images.kind == "ValueError" \
                    and "cross transversally" in images.message:
                return None, None
            return "WrongOutput", "the planted transversal crossing was not rejected"
        if isinstance(images, Failure):
            return images.kind, None
        wrong = checks.quake_images(self.hyp, op["leaves"], op["t"], op["base"],
                                    op["targets"], [(p.x, p.y) for p in images])
        return ("WrongOutput", wrong) if wrong else (None, None)


class CliOutput(NamedTuple):
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    summary: dict | None  # stage times and spans from cli_child.py


def spawn(argv, env, stdout_path, stderr_path) -> tuple[int, int]:
    """Run one child to completion; returns (exit code, its peak RSS in KiB)."""
    out_fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        pid = os.posix_spawn(argv[0], argv, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1),
                                           (os.POSIX_SPAWN_DUP2, err_fd, 2)])
    finally:
        os.close(out_fd)
        os.close(err_fd)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss


class CliCold:
    """One fresh `python -m eqlab.cli` process per operation.

    With `traced`, the process is the benchmark's own stand-in
    (cli_child.py), which runs the same `eqlab.cli.run` and records its
    stage split and spans.
    """

    def __init__(self, traced: bool = False):
        self.traced = traced
        # eqlab comes from this checkout's src; EQLAB_TOL would change the output
        self.env = {k: v for k, v in os.environ.items() if k != "EQLAB_TOL"}
        self.env["PYTHONPATH"] = str(SRC)
        self.dir = WORK / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.hyp = None

    def round(self, seed, round_index):
        """Write this round's input files; file names depend only on the command."""
        ops = inputs.cli_round(seed, round_index)
        for op in ops:
            paths = {}
            for key, doc in op.get("files", {}).items():
                path = self.dir / f"{op['command']}-{key}.json"
                path.write_text(json.dumps(doc))
                paths[key] = str(path)
            op["args"] = [arg.format(**paths) if "{" in arg else arg for arg in op["argv"]]
        return ops

    def warm_up(self):
        self.attempt({"command": "warm_up", "args": ["pants", "--shears=1,1,1"]})

    def attempt(self, op) -> CliOutput:
        name = op["command"]
        out, err, summary = (self.dir / f"{name}.{ext}" for ext in ("out", "err", "json"))
        if self.traced:
            argv = [sys.executable, str(HERE / "cli_child.py"), repr(perf_counter()),
                    str(summary)]
        else:
            argv = [sys.executable, "-m", "eqlab.cli"]
        summary.unlink(missing_ok=True)
        code, rss = spawn(argv + op["args"], self.env, out, err)
        traced = json.loads(summary.read_text()) if summary.exists() else None
        return CliOutput(code, out.read_text(), err.read_text()[-400:], rss, traced)

    def judge(self, op, output):
        if output.summary and Path(output.summary["eqlab_file"]).parent != SRC / "eqlab":
            return "WrongOutput", f"traced child imported {output.summary['eqlab_file']}"
        verify = op["command"].startswith("verify")
        if output.code not in (0, 1) or (output.code == 1 and not verify):
            return f"ExitCode{output.code}", None
        try:
            doc = output.stdout if op["command"] == "render" else json.loads(output.stdout)
            wrong = self._check(op, doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            wrong = f"unreadable output: {type(exc).__name__}: {exc}"
        if wrong:
            return "WrongOutput", wrong
        return ("ResidualAboveTolerance" if output.code == 1 else None), None

    def _check(self, op, doc):
        x = op["expect"]
        command = op["command"]
        if command == "pants_shears":
            return checks.pants_shears(x["shears"], doc)
        if command == "pants_lengths":
            return checks.pants_lengths(x["lengths"], x["signs"], doc)
        if command == "pants_random":
            return checks.pants_random(x["trials"], doc)
        if command == "develop":
            return checks.placements(x["shears"], x["words"], doc)
        if command == "transport":
            return checks.spike_product(x["a"], x["b"], x["depths"], doc)
        if command == "quake_lamination":
            if self.hyp is None:
                self.hyp = import_eqlab().hyp
            return checks.quake_images(self.hyp, x["leaves"], x["t"], x["base"],
                                       x["targets"], [tuple(p) for p in doc["images"]])
        if command == "quake_surface":
            return checks.twisted_surface(x["surface"], x["t"], doc)
        if command == "verify_chain":
            return checks.chain_report(x, checks.json_report_samples(doc),
                                       doc["max_residual"], doc["tolerance"], doc["passed"])
        if command == "verify_conjugacy":
            return checks.conjugacy_report(x, checks.json_report_samples(doc),
                                           doc["max_residual"], doc["tolerance"],
                                           doc["passed"])
        return checks.svg_arcs(x["paths"], doc)


IN_PROCESS = {
    "conjugacy_sweep": ConjugacySweep,
    "lamination_quake": LaminationQuake,
    "chain_lemma": ChainLemma,
}
WORKLOADS = tuple(IN_PROCESS) + ("cli_cold",)
