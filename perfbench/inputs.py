"""Seeded input generators for the four workloads.

Every generator is a pure function of (seed, round): the same pair gives
the same inputs, byte for byte, in any process.  Inputs are plain Python
data (numbers, tuples, dicts); the workloads turn them into program
objects inside the timed operation, so the program only ever sees these
generated values.

Within a round, the dimensions that set an operation's cost or decide
whether it fails are laid out by quantile cell (conjugacy cuff lengths,
one draw per cell; lamination sizes, the cell midpoints) or by fixed
shares (spiral signs, chain lengths); other dimensions are stratified,
one draw per stratum, shuffled.  Each value still follows the distribution the
workload names (log-uniform lengths, uniform twists, ...), but the mix
of cheap, expensive and failing cases is the same in every round, which
is what keeps medians and failure shares steady from one seed to the
next.
"""

from __future__ import annotations

import random

# -- conjugacy_sweep --------------------------------------------------------
CONJUGACY_ROUND = 25          # odd, so the median falls inside a length class
CONJUGACY_TIMES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
LENGTH_RANGE = (0.1, 10.0)
TWIST_RANGE = (-1.0, 1.0)
WEIGHT_RANGE = (0.25, 2.0)
# (1, 1) every other slot, the three mixed pairs in turn between
SIGN_PATTERN = ((1, 1), (1, -1), (1, 1), (-1, 1), (1, 1), (-1, -1))

# -- lamination_quake -------------------------------------------------------
LAMINATION_SIZES = 8          # regular builds per round, plus one planted crossing
LEAF_RANGE = (50, 800)
QUAKE_TARGETS = 32

# -- chain_lemma --------------------------------------------------------------
CHAIN_ROUND = 44              # four chains of each length 2..12
CHAIN_STEPS = range(2, 13)
CHAIN_TIMES = 6
CHAIN_TIME_RANGE = (-0.3, 0.3)
SHEAR_RANGE = (-1.0, 1.0)


def rng_for(workload: str, seed: int, round_index: int) -> random.Random:
    # string seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{round_index}")


def strata(rng: random.Random, k: int) -> list[float]:
    """k values in [0, 1), one uniform draw per stratum [i/k, (i+1)/k), shuffled."""
    values = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(values)
    return values


def spread(rng: random.Random, items, k: int) -> list:
    """k items taken from `items` in equal shares (cyclically), shuffled."""
    out = [items[i % len(items)] for i in range(k)]
    rng.shuffle(out)
    return out


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def conjugacy_round(seed: int, round_index: int) -> list[dict]:
    """Genus-two surfaces, each verified along one cuff arc at six times.

    The cuff lengths, the spiral signs and which cuff is the arc set how
    many spiral layers the transport runs and whether it diverges, so
    they are laid out the same way in every round: each cuff slot takes
    one draw in each of the k quantile cells of the log-uniform law, and
    the three cuffs of a surface sit at fixed offsets into those cells;
    the sign pairs follow a fixed pattern in which half of all cuffs
    spiral (1, 1) and the other three pairs share the rest; the arc
    cycles through the three cuffs.  The draws inside the cells, the
    twists, the weight and the order come from the seed and the round,
    so no surface's lengths recur.
    """
    k = CONJUGACY_ROUND
    rng = rng_for("conjugacy_sweep", seed, round_index)
    grids = [[log_uniform((i + rng.random()) / k, *LENGTH_RANGE) for i in range(k)]
             for _ in range(3)]
    twists = [[uniform(u, *TWIST_RANGE) for u in strata(rng, k)] for _ in range(3)]
    weights = [uniform(u, *WEIGHT_RANGE) for u in strata(rng, k)]
    ops = []
    for i in range(k):
        arc = i % 3
        lengths = [grids[1][(i + 8) % k], grids[2][(i + 17) % k]]
        lengths.insert(arc, grids[0][i])
        signs = [SIGN_PATTERN[(i + 2 * j) % len(SIGN_PATTERN)] for j in (1, 2)]
        signs.insert(arc, SIGN_PATTERN[i % len(SIGN_PATTERN)])
        ops.append({
            "lengths": tuple(lengths),
            "twists": tuple(twists[j][i] for j in range(3)),
            "signs": tuple(signs),
            "arc": arc,
            "weight": weights[i],
            "ts": CONJUGACY_TIMES,
        })
    rng.shuffle(ops)
    return ops


def surface_doc(op: dict) -> dict:
    """The SURFACE_SCHEMA document of a conjugacy op (two pants, slot k to slot k)."""
    return {
        "pants": [{"id": 0}, {"id": 1}],
        "gluings": [
            {
                "cuffs": [[0, k], [1, k]],
                "length": op["lengths"][k],
                "twist": op["twists"][k],
                "spiral_signs": list(op["signs"][k]),
            }
            for k in range(3)
        ],
        "weights": {str(op["arc"]): op["weight"]},
    }


def _noncrossing_matching(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """A random perfect non-crossing matching of the points 0..2m-1."""
    pairs = []
    stack = [(0, 2 * m)]  # half-open index ranges still to be matched
    while stack:
        lo, hi = stack.pop()
        if hi <= lo:
            continue
        # point lo pairs with an odd offset, leaving even-sized blocks on each side
        partner = lo + 1 + 2 * rng.randrange((hi - lo) // 2)
        pairs.append((lo, partner))
        stack.append((lo + 1, partner))
        stack.append((partner + 1, hi))
    return pairs


def _group_leaves(rng: random.Random, kind: str, count: int, left: float, width: float):
    """Leaves (a, b) of one family inside [left, left + width]; innermost first."""
    if kind == "band":
        center = left + width / 2.0
        radii = sorted(rng.uniform(0.02, 0.49) * width for _ in range(count))
        return [(center - r, center + r) for r in radii]
    points = sorted(left + width * (0.01 + 0.98 * rng.random()) for _ in range(2 * count))
    return [(points[i], points[j]) for i, j in _noncrossing_matching(rng, count)]


def _innermost(leaves):
    """A leaf with no other endpoint strictly between its own."""
    ends = sorted(x for leaf in leaves for x in leaf)
    for a, b in leaves:
        lo, hi = min(a, b), max(a, b)
        if ends.index(hi) == ends.index(lo) + 1:
            return lo, hi
    raise AssertionError("a finite non-crossing family has an innermost leaf")


def lamination_op(rng: random.Random, n: int, planted: bool, base_depth=None) -> dict:
    """n leaves in side-by-side families of nested bands and random matchings.

    A planted op replaces one leaf by a leaf that crosses exactly one
    other leaf transversally: it runs from inside an innermost leaf to
    just past that leaf's right end.
    """
    regular = n - 1 if planted else n
    groups = []
    left = 0.0
    remaining = regular
    while remaining > 0:
        count = min(remaining, rng.randint(5, 60))
        width = rng.uniform(1.0, 4.0)
        kind = "band" if len(groups) % 2 == 0 else "matching"
        groups.append(_group_leaves(rng, kind, count, left, width))
        left += width + rng.uniform(0.1, 0.5)
        remaining -= count
    span = left
    leaves = [leaf for group in groups for leaf in group]
    if planted:
        group = groups[rng.randrange(len(groups))]
        lo, hi = _innermost(group)
        ends = sorted(x for leaf in group for x in leaf)
        after = [x for x in ends if x > hi]
        stop = after[0] if after else max(ends) + 0.005
        leaves.append(((lo + hi) / 2.0, (hi + stop) / 2.0))
    rng.shuffle(leaves)
    weights = [rng.uniform(*WEIGHT_RANGE) / n for _ in leaves]

    def point(u, v):
        return (-0.5 + (span + 1.0) * u, span * log_uniform(v, 1e-3, 1.0))

    # targets stratified across the span and in depth: steadier separation counts
    targets = zip(strata(rng, QUAKE_TARGETS), strata(rng, QUAKE_TARGETS))
    return {
        "leaves": tuple(
            ((a, b) if rng.random() < 0.5 else (b, a), w) for (a, b), w in zip(leaves, weights)
        ),
        "planted": planted,
        "t": rng.uniform(-1.0, 1.0),
        "base": point(rng.random(), rng.random() if base_depth is None else base_depth),
        "targets": tuple(point(u, v) for u, v in targets),
    }


def lamination_round(seed: int, round_index: int) -> list[dict]:
    """Eight builds at the midpoint quantiles of the log-uniform size law and
    one planted build of the smallest size, in seeded order.

    Fixed sizes keep every size class at the same n for every seed.  The
    planted build is always the cheapest operation, so with nine ops per
    round the median falls inside the fourth size class and p90 inside
    the largest, never between two classes.
    """
    rng = rng_for("lamination_quake", seed, round_index)
    k = LAMINATION_SIZES
    # a base point above every leaf: how many leaves a query separates then
    # depends on the (stratified) target alone, not on where the base fell
    ops = [lamination_op(rng, round(log_uniform((i + 0.5) / k, *LEAF_RANGE)), False,
                         base_depth=1.0)
           for i in range(k)]
    ops.append(lamination_op(rng, LEAF_RANGE[0], True))
    rng.shuffle(ops)
    return ops


def lamination_doc(op: dict) -> dict:
    """The LAMINATION_SCHEMA document of a lamination op."""
    return {"leaves": [{"endpoints": list(ends), "weight": w} for ends, w in op["leaves"]]}


def chain_round(seed: int, round_index: int) -> list[dict]:
    """Half-plane chains of 2-12 steps over sides 1 and 2 (never back across side 0)."""
    k = CHAIN_ROUND
    rng = rng_for("chain_lemma", seed, round_index)
    counts = spread(rng, list(CHAIN_STEPS), k)
    ops = []
    for count in counts:
        steps = tuple(
            (rng.choice((1, 2)), rng.uniform(*SHEAR_RANGE)) for _ in range(count)
        )
        weights = tuple(
            0.0 if rng.random() < 0.5 else rng.uniform(*WEIGHT_RANGE) for _ in range(count)
        )
        ts = tuple(sorted(rng.uniform(*CHAIN_TIME_RANGE) for _ in range(CHAIN_TIMES)))
        ops.append({"steps": steps, "weights": weights, "ts": ts})
    return ops


def chain_doc(op: dict) -> dict:
    """The CHAIN_SCHEMA document of a chain op."""
    return {"steps": [list(s) for s in op["steps"]], "weights": list(op["weights"])}


# -- cli_cold -----------------------------------------------------------------
# One round runs each command once.  The verifier inputs stay inside the
# domain where today's code finishes (spiral signs (1, 1), lengths in
# [0.5, 5], chains of at most 6 steps): this workload prices the process,
# and the verifier failures are counted by conjugacy_sweep and chain_lemma.
CLI_COMMANDS = ("pants_shears", "pants_lengths", "pants_random", "develop", "transport",
                "quake_lamination", "quake_surface", "verify_chain", "verify_conjugacy",
                "render")
CLI_LENGTH_RANGE = (0.5, 5.0)
CLI_CHAIN_STEPS = (2, 6)
CLI_LEAVES = 30
CLI_TARGETS = 8


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _pants_doc(shears) -> dict:
    """The triangulation document of eqlab's two-triangle pants."""
    sides = (((0, 0), (1, 2)), ((0, 1), (1, 1)), ((0, 2), (1, 0)))
    return {
        "triangles": [0, 1],
        "edges": [{"id": k, "sides": [list(a), list(b)], "shear": s}
                  for k, ((a, b), s) in enumerate(zip(sides, shears))],
    }


def _word(rng: random.Random, length: int) -> tuple[int, ...]:
    """A crossing word over the pants edges with no letter repeated in a row."""
    word = [rng.randrange(3)]
    while len(word) < length:
        word.append(rng.choice([e for e in range(3) if e != word[-1]]))
    return tuple(word)


def cli_round(seed: int, round_index: int) -> list[dict]:
    """One op per CLI command: argv (with {file} placeholders), files, expectation."""
    rng = rng_for("cli_cold", seed, round_index)
    shears = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
    lengths = tuple(log_uniform(rng.random(), *CLI_LENGTH_RANGE) for _ in range(3))
    signs = tuple(rng.choice((-1, 1)) for _ in range(3))
    word = _word(rng, 5)
    words = [word[:k] for k in range(len(word) + 1)]
    a = rng.uniform(-2.0, 0.0)
    depths = sorted(rng.uniform(0.0, 12.0) for _ in range(8))
    lam = lamination_op(rng, CLI_LEAVES, False)
    targets = lam["targets"][:CLI_TARGETS]
    quake_t = rng.uniform(-1.0, 1.0)
    surface = conjugacy_round(seed, round_index)[0]
    surface = dict(surface, signs=((1, 1),) * 3, lengths=lengths)
    chain = next(op for op in chain_round(seed, round_index)
                 if CLI_CHAIN_STEPS[0] <= len(op["steps"]) <= CLI_CHAIN_STEPS[1])
    render_lam = lamination_op(rng, 10, False)
    ops = [
        {"command": "pants_shears", "argv": ["pants", f"--shears={_floats(shears)}"],
         "expect": {"shears": shears}},
        {"command": "pants_lengths",
         "argv": ["pants", f"--lengths={_floats(lengths)}",
                  "--signs=" + ",".join(str(s) for s in signs)],
         "expect": {"lengths": lengths, "signs": signs}},
        {"command": "pants_random",
         "argv": ["pants", "--random", "50", "--seed", str(rng.randrange(10**6))],
         "expect": {"trials": 50}},
        {"command": "develop",
         "argv": ["develop", "--config", "{develop}",
                  "--words=" + ";".join(",".join(map(str, w)) for w in words)],
         "files": {"develop": _pants_doc(shears)},
         "expect": {"shears": shears, "words": words}},
        {"command": "transport", "argv": ["transport", "--config", "{transport}"],
         "files": {"transport": {"spike": {"edges": [[a, "inf"], [a + 1.0, "inf"]],
                                           "vertex": "inf"},
                                 "depths": depths}},
         "expect": {"a": a, "b": a + 1.0, "depths": depths}},
        {"command": "quake_lamination",
         "argv": ["earthquake", "--config", "{lamination}", f"--t={quake_t!r}",
                  f"--base={_floats(lam['base'])}",
                  "--targets=" + ";".join(_floats(p) for p in targets)],
         "files": {"lamination": lamination_doc(lam)},
         "expect": {"leaves": lam["leaves"], "t": quake_t, "base": lam["base"],
                    "targets": targets}},
        {"command": "quake_surface",
         "argv": ["earthquake", "--config", "{surface}", f"--t={quake_t!r}"],
         "files": {"surface": surface_doc(surface)},
         "expect": {"surface": surface_doc(surface), "t": quake_t}},
        {"command": "verify_chain",
         "argv": ["verify", "fundamental-lemma", "--config", "{chain}",
                  f"--ts={_floats(chain['ts'])}"],
         "files": {"chain": chain_doc(chain)},
         "expect": chain},
        {"command": "verify_conjugacy",
         "argv": ["verify", "conjugacy", "--config", "{surface}",
                  f"--ts={_floats(surface['ts'])}", f"--cuffs={surface['arc']}"],
         "files": {"surface": surface_doc(surface)},
         "expect": surface},
        {"command": "render",
         "argv": ["render", "--config", "{render}", "--format", "svg"],
         "files": {"render": {"triangulation": _pants_doc(shears),
                              "words": [list(w) for w in words[:3]],
                              "lamination": lamination_doc(render_lam),
                              "objects": ["triangles", "leaves", "tangency"]}},
         "expect": {"paths": 3 * 3 + len(render_lam["leaves"])}},
    ]
    return ops
