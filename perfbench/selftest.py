"""Tests of the benchmark's input generators and output checks.

Run from the root of a checkout:  python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose (it is not named
test_*.py), so the tier-1 run does not grow.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import import_eqlab  # noqa: E402

ROUNDS = 3


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def crossing_pairs(leaves):
    """Pairs of finite leaves whose endpoints interleave on the real line."""
    spans = sorted((min(a, b), max(a, b)) for (a, b), _ in leaves)
    found = []
    for i, (a1, b1) in enumerate(spans):
        for a2, b2 in spans[i + 1:]:
            if a2 >= b1:
                break  # sorted by left end: no later leaf starts inside this one
            if a1 < a2 < b1 < b2:
                found.append(((a1, b1), (a2, b2)))
    return found


GENERATORS = {
    "conjugacy_sweep": inputs.conjugacy_round,
    "lamination_quake": inputs.lamination_round,
    "chain_lemma": inputs.chain_round,
    "cli_cold": inputs.cli_round,
}


def test_same_seed_same_inputs():
    for name, gen in GENERATORS.items():
        expect(gen(7, 1) == gen(7, 1), f"{name}: seed 7 gave two different rounds")
        expect(gen(7, 1) != gen(8, 1), f"{name}: seeds 7 and 8 gave the same round")
        expect(gen(7, 1) != gen(7, 2), f"{name}: rounds 1 and 2 are the same")
    # a memo of pants geometry must not hit across rounds
    lengths = [{x for op in inputs.conjugacy_round(7, r) for x in op["lengths"]} for r in (1, 2)]
    expect(not lengths[0] & lengths[1], "conjugacy lengths recur across rounds")


def test_same_inputs_in_a_fresh_process():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "print(json.dumps([inputs.conjugacy_round(3, 0), inputs.lamination_round(3, 0), "
            "inputs.chain_round(3, 0), inputs.cli_round(3, 0)]))")
    here = json.dumps([inputs.conjugacy_round(3, 0), inputs.lamination_round(3, 0),
                       inputs.chain_round(3, 0), inputs.cli_round(3, 0)])
    env = dict(os.environ, PYTHONHASHSEED="12345")
    there = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env, check=True,
                           capture_output=True, text=True, timeout=60).stdout.strip()
    expect(here == there, "inputs depend on the process (hash seed)")


def test_laminations_cross_only_at_the_planted_pair():
    for seed in (1, 2):
        for r in range(ROUNDS):
            ops = inputs.lamination_round(seed, r)
            expect(sum(op["planted"] for op in ops) == 1, "one planted build per round")
            for op in ops:
                n = len(op["leaves"])
                expect(inputs.LEAF_RANGE[0] <= n <= inputs.LEAF_RANGE[1], f"{n} leaves")
                found = crossing_pairs(op["leaves"])
                want = 1 if op["planted"] else 0
                expect(len(found) == want, f"{len(found)} crossing pairs, want {want}")
                expect(all(w > 0 for _, w in op["leaves"]), "leaf weights must be positive")


def test_chains_never_backtrack():
    counts = {}
    for r in range(ROUNDS):
        for op in inputs.chain_round(5, r):
            steps = op["steps"]
            counts[len(steps)] = counts.get(len(steps), 0) + 1
            expect(all(side in (1, 2) for side, _ in steps), "a step crosses side 0")
            expect(all(-1.0 <= s <= 1.0 for _, s in steps), "shear outside [-1, 1]")
            expect(all(w == 0.0 or 0.25 <= w <= 2.0 for w in op["weights"]), "weight range")
            expect(len(op["ts"]) == 6 and all(-0.3 <= t <= 0.3 for t in op["ts"]), "times")
    expect(sorted(counts) == list(inputs.CHAIN_STEPS), "chain lengths 2..12")
    expect(len(set(counts.values())) == 1, "every chain length equally often")


def test_documents_stay_inside_the_schemas():
    import_eqlab()
    from eqlab import schemas

    validate = schemas.validate
    for r in range(ROUNDS):
        ops = inputs.conjugacy_round(9, r)
        signs = [s for op in ops for s in op["signs"]]
        expect(abs(signs.count((1, 1)) * 2 - len(signs)) <= 3, "half of the cuffs spiral (1, 1)")
        for op in ops:
            validate(inputs.surface_doc(op), schemas.SURFACE_SCHEMA)
            expect(all(0.1 <= x <= 10.0 for x in op["lengths"]), "length range")
        for op in inputs.lamination_round(9, r)[:2]:
            validate(inputs.lamination_doc(op), schemas.LAMINATION_SCHEMA)
        for op in inputs.chain_round(9, r):
            validate(inputs.chain_doc(op), schemas.CHAIN_SCHEMA)
        by_command = {op["command"]: op for op in inputs.cli_round(9, r)}
        expect(tuple(by_command) == inputs.CLI_COMMANDS, "one op per CLI command")
        file_schemas = {"develop": schemas.TRIANGULATION_SCHEMA,
                        "transport": schemas.TRANSPORT_SCHEMA,
                        "lamination": schemas.LAMINATION_SCHEMA,
                        "surface": schemas.SURFACE_SCHEMA, "chain": schemas.CHAIN_SCHEMA,
                        "render": schemas.RENDER_SCHEMA}
        for op in by_command.values():
            for key, doc in op.get("files", {}).items():
                validate(json.loads(json.dumps(doc)), file_schemas[key])


def test_checks_reject_wrong_outputs():
    eqlab = import_eqlab()
    hyp, lam = eqlab.hyp, eqlab.lamination
    op = inputs.lamination_op(inputs.rng_for("selftest", 0, 0), 60, False)
    built = lam.DiscreteLamination.from_pairs(op["leaves"])
    base = hyp.UnitTangent.upward_at(hyp.HPoint(*op["base"]))
    images = [lam.earthquake_map(built, op["t"], base, hyp.HPoint(*p)) for p in op["targets"]]
    images = [(p.x, p.y) for p in images]
    args = (hyp, op["leaves"], op["t"], op["base"], op["targets"])
    expect(checks.quake_images(*args, images) is None, "right images rejected")
    moved = [(images[0][0] + 1e-6, images[0][1])] + images[1:]
    expect(checks.quake_images(*args, moved) is not None, "a moved image passed")
    flipped = checks.quake_images(hyp, op["leaves"], -op["t"], op["base"], op["targets"], images)
    expect(flipped is not None or op["t"] == 0.0, "images of the opposite time passed")

    chain = {"steps": ((1, 0.5), (2, -0.25)), "weights": (1.0, 0.0), "ts": (0.1, 0.2)}
    good = [(0.1, (0.35, 1.0), (0.35, 1.0)), (0.2, (0.45, 1.0), (0.45, 1.0))]
    expect(checks.chain_report(chain, good, 0.0, 1e-9, True) is None, "right report rejected")
    expect(checks.chain_report(chain, good, 0.0, 1e-9, False) is not None, "wrong verdict passed")
    off = [(0.1, (0.35, 1.0), (0.36, 1.0)), good[1]]
    expect(checks.chain_report(chain, off, 0.01, 1e-9, False) is not None,
           "a prediction off the orbit passed")
    surface = {"ts": (0.0, 0.1), "weight": 0.5}
    exact = [(0.0, (0.3, 0.5), (0.3, 0.5)), (0.1, (0.35, 0.5), (0.35, 0.5))]
    ulp = [exact[0], (0.1, (0.35, 0.5), (math.nextafter(0.35, 1.0), 0.5))]
    expect(checks.conjugacy_report(surface, ulp, ulp[1][2][0] - 0.35, 1e-6, True) is None,
           "a prediction one ulp from x0 + t*y rejected")
    off = [exact[0], (0.1, (0.35, 0.5), (0.351, 0.5))]
    expect(checks.conjugacy_report(surface, off, 0.001, 1e-6, False) is not None,
           "a conjugacy prediction off the orbit passed")
    expect(checks.pants_shears((1.0, -2.0, 0.5), {"shears": [1.0, -2.0, 0.5],
                                                  "lengths": [1.0, 1.5, 1.5]}) is None,
           "right pants lengths rejected")
    expect(checks.pants_shears((1.0, -2.0, 0.5), {"shears": [1.0, -2.0, 0.5],
                                                  "lengths": [1.0, 1.5, 1.0]}) is not None,
           "wrong pants lengths passed")


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
