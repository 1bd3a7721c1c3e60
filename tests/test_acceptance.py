"""Acceptance suite: each criterion runs at its stated tolerance and
prints one pass/fail line (visible under pytest -s or the runner script)."""

import json
import math
import random
import re
import statistics
import time

from eqlab.cli import run
from eqlab.conjugacy import (
    ChainConfiguration,
    PeriodVector,
    unipotent,
    verify_conjugacy,
    verify_fundamental_lemma,
)
from eqlab.hyp import HPoint, UnitTangent, apply, translation_length
from eqlab.lamination import (
    DiscreteLamination,
    UniformBand,
    discretize_band,
    earthquake_map,
)
from eqlab.schemas import REPORT_SCHEMA, validate
from eqlab.surface import (
    FNSurface,
    WeightedMulticurve,
    _spiral_direction,
    earthquake_flow,
    shear_across_cuff,
)
from eqlab.transport import (
    CrossingFactor,
    MoebiusTransform,
    frobenius_deviation,
    horocycle_conjugate,
    ordered_product,
    spike_crossing_sequence,
)
from eqlab.triangle import (
    Developer,
    IdealTriangle,
    edge_tangency_point,
    pants_boundary_lengths,
    pants_boundary_words,
    pants_holonomy,
    pants_triangulation,
)
from hyp_reference import frame_distance, hyp_distance, normalized_spike
from surface_reference import (
    axis_frame, dehn_twist_substitution, multicurve_length, substitute_word,
)


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_pants_boundary_lengths():
    start = time.perf_counter()
    rng = random.Random(2024)
    words = pants_boundary_words()
    ok = True
    for _ in range(50):
        shears = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        lengths = pants_boundary_lengths(*shears)
        for k, w in enumerate(words):
            tr = abs(pants_holonomy(shears, w).trace)
            ok &= abs(tr - 2.0 * math.cosh(lengths[k] / 2.0)) <= 1e-9
    for cusp_shears in ((1.0, -1.0, 0.5), (0.0, 0.0, 0.0), (2.0, -2.0, 1.0)):
        lengths = pants_boundary_lengths(*cusp_shears)
        for k, w in enumerate(words):
            if lengths[k] == 0.0:
                ok &= abs(abs(pants_holonomy(cusp_shears, w).trace) - 2.0) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(1, f"pants boundary traces, 50 random triples + cusps in {elapsed:.3f}s", ok)


def test_criterion_02_basic_computation():
    ok = True
    for t in (0.0, 1.0, 5.0, 20.0):
        m = horocycle_conjugate(t)
        expected = (1.0, math.exp(-t), 0.0, 1.0)
        ok &= all(abs(got - want) <= 1e-15 for got, want in zip(m.entries(), expected))
    report(2, "horocycle conjugation identity entrywise to 1e-15", ok)


def test_criterion_03_product_lemma():
    rng = random.Random(77)

    def small_factor(scale):
        x, t, th = (rng.uniform(-scale, scale) for _ in range(3))
        m = (MoebiusTransform(1.0, x, 0.0, 1.0)
             @ MoebiusTransform(math.exp(t / 2), 0.0, 0.0, math.exp(-t / 2))
             @ MoebiusTransform(math.cos(th), -math.sin(th), math.sin(th), math.cos(th)))
        return CrossingFactor(m)

    ok = True
    for _ in range(200):
        n = rng.randrange(2, 9)
        factors = [small_factor(0.25 / n) for _ in range(n)]
        ok &= sum(f.deviation for f in factors) <= 1.0
        full = ordered_product(factors).raw_value
        growth = math.prod(1.0 + f.deviation for f in factors)
        m = rng.randrange(n)
        partial = ordered_product(factors[:m] + factors[m + 1:]).raw_value
        ok &= math.dist(full, partial) <= growth * factors[m].deviation

    family = spike_crossing_sequence(normalized_spike(), range(1, 61))
    total = sum(f.deviation for f in family)
    pa = ordered_product(family[:25],
                         tail_deviation=total - sum(f.deviation for f in family[:25]))
    pb = ordered_product(family[:45],
                         tail_deviation=total - sum(f.deviation for f in family[:45]))
    ok &= math.dist(pa.raw_value, pb.raw_value) <= pa.error_bound + pb.error_bound
    report(3, "product lemma removal bound (200 trials) and exhaustion agreement", ok)


def truncated_cuff_shear(surface: FNSurface, cuff: int, depth: float) -> float:
    """The shear across a cuff with both spiral transports truncated.

    Each side carries the first root side's tangency point through the
    per-layer horocycle matrices F^-1 U(x_m - x_{m-1}) F, where F is the
    spiral frame and layer m is Re z = x_m there, down to the first layer
    that deviates from the identity by less than max(e^{-depth}, 1e-15).
    Layers 0 and 1 are the first crossed side and the far end of the
    developed second triangle; layer m + 2 is layer m moved by the corner
    holonomy, x_{m+2} = e^{-L} x_m.  The shear is the twist plus the two
    landings' log|z| in their frames.
    """
    gluing = surface.gluing_by_id(cuff)
    shear = surface.twists[cuff]
    root = IdealTriangle.standard()
    for pants_id, slot in gluing.cuffs:
        shears = surface.pants_shears(pants_id)
        tri = pants_triangulation(*shears)
        word, h, corner = _spiral_direction(shears, slot)
        frame = axis_frame(h.inverse()).inverse()
        second = Developer(tri).place(word[:1])
        (_, second_side), _ = tri.cross(second.tri, word[1])
        edge = second.triangle.side(second_side)
        vertex = root.vertices[corner]
        far = edge.end if edge.start.gap(vertex) <= edge.end.gap(vertex) else edge.start
        point = edge_tangency_point(root, word[0])
        xs = [apply(frame, point).x, apply(frame, far).value]
        lam = math.exp(-translation_length(h))
        floor = max(math.exp(-depth), 1e-15)
        while True:
            layer = frame.inverse() @ MoebiusTransform(1.0, xs[-1] - xs[-2], 0.0, 1.0) @ frame
            point = apply(layer, point)
            if frobenius_deviation(layer) < floor:
                break
            xs.append(lam * xs[-2])
        shear += math.log(abs(apply(frame, point).z))
    return shear


def test_criterion_04_spike_decay():
    ok = True
    for delta in (0.5, 1.0, 2.0):
        depths = [delta * k for k in range(1, 40)]
        factors = spike_crossing_sequence(normalized_spike(), depths)
        for f1, f2 in zip(factors, factors[1:]):
            ok &= f2.deviation / f1.deviation <= math.exp(-delta) * (1.0 + 1e-6)
    surface = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.15, -0.3, 0.45))
    for cuff in range(3):
        limit = shear_across_cuff(surface, cuff)
        for depth in (30.0, 60.0):
            ok &= abs(truncated_cuff_shear(surface, cuff, depth) - limit) <= 1e-10
    report(4, "spike decay envelope and transport stability under depth doubling", ok)


def test_criterion_05_earthquake_well_definedness():
    band = UniformBand()
    base = UnitTangent.upward_at(HPoint(0.0, 0.5))
    target = HPoint(0.0, 10.0)
    images = {
        n: earthquake_map(discretize_band(band, n), 1.0, base, target)
        for n in (8, 16, 32, 64, 128)
    }
    errors = [hyp_distance(images[n], images[2 * n]) for n in (8, 16, 32, 64)]
    ok = all(0.4 <= e2 / e1 <= 0.6 for e1, e2 in zip(errors, errors[1:]))

    lam = DiscreteLamination.from_pairs([((-1, 1), 1.0)])
    lam2 = DiscreteLamination.from_pairs([((-1.05, 1.02), 1.0)])
    v = UnitTangent.upward_at(HPoint(0.0, 1.0))
    v2 = UnitTangent.upward_at(HPoint(0.015, 1.0))
    w = UnitTangent.upward_at(HPoint(0.2, 3.0))
    first, second = [], []
    for k in range(1, 11):
        t = 2.0 ** -k
        img1 = earthquake_map(lam, t, base, w)
        img2 = earthquake_map(lam2, t, base, w)
        first.append(frame_distance(img1, w) / t)
        second.append(frame_distance(img1, img2) / (t * frame_distance(v, v2)))
    ok &= max(first) / min(first) < 2.0 and max(first) < math.inf
    ok &= max(second) / min(second) < 2.0 and max(second) < math.inf
    report(5, "refinement ratios in [0.4, 0.6] and Lipschitz ratios bounded", ok)


def test_criterion_06_fundamental_lemma():
    start = time.perf_counter()
    shared = ChainConfiguration.from_steps([(1, 0.6)], [1.0])
    rep_shared = verify_fundamental_lemma(shared, [0.1, 0.2, 0.5], tolerance=1e-12)
    ok = rep_shared.passed

    chain = ChainConfiguration.from_steps(
        [(1, 0.5), (2, -0.4), (1, 0.8)], [1.0, 2.0, 0.5]
    )
    ts = [0.05 * k for k in range(1, 9)]
    rep_chain = verify_fundamental_lemma(chain, ts, tolerance=1e-9)
    ok &= rep_chain.passed
    xs = [s.measured[0] for s in rep_chain.samples]
    slope, intercept = statistics.linear_regression(ts, xs)
    ok &= abs(slope - 3.5) <= 1e-9
    ok &= max(abs(x - (slope * t + intercept)) for t, x in zip(ts, xs)) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    report(6, f"shared-edge residual <= 1e-12, slope 3.5 fit <= 1e-9 in {elapsed:.3f}s", ok)


def test_criterion_07_conjugacy_mechanism():
    start = time.perf_counter()
    surface = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.1, -0.2, 0.3))
    ts = [0.1 * k for k in range(6)]  # t in [0, 0.5]
    ok = True
    for weights in ({0: 1.0}, {0: 2.0}, {1: 1.0, 2: 0.5}):
        mc = WeightedMulticurve(weights)
        arcs = sorted(weights)
        rep = verify_conjugacy(surface, mc, arcs, ts, tolerance=1e-6)
        ok &= rep.passed
        for s in rep.samples:
            ok &= s.measured[1] == s.predicted[1]  # y exactly constant
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    report(7, f"(shear, mass) trajectories = unipotent orbits to 1e-6 in {elapsed:.2f}s", ok)


def test_criterion_08_twist_shear_response():
    rng = random.Random(5150)
    ok = True
    for _ in range(3):
        surface = FNSurface.genus2(
            lengths=tuple(rng.uniform(1.0, 3.0) for _ in range(3)),
            twists=tuple(rng.uniform(-1.0, 1.0) for _ in range(3)),
        )
        cuff = rng.randrange(3)
        tau = surface.twists[cuff]
        for eps in (0.1, 0.01):
            def at(t):
                twists = list(surface.twists)
                twists[cuff] = t
                return shear_across_cuff(FNSurface(surface.pants, surface.gluings, tuple(twists)),
                                         cuff)
            slope = (at(tau + eps) - at(tau - eps)) / (2.0 * eps)
            ok &= abs(slope - 1.0) <= 1e-6
    report(8, "d(shear)/d(twist) = 1 to 1e-6 at eps 0.1 and 0.01, three base points", ok)


def test_criterion_09_marking_periodicity():
    from eqlab.surface import fn_to_holonomy

    lengths = (1.8, 2.1, 2.4)
    twists = (0.2, -0.4, 0.3)
    words = ("c", "d", "ac", "bd", "abcd")
    ok = True
    for cuff in range(3):
        advanced = list(twists)
        advanced[cuff] += lengths[cuff]
        rep_tw = fn_to_holonomy(FNSurface.genus2(lengths=lengths, twists=tuple(advanced)))
        rep_0 = fn_to_holonomy(FNSurface.genus2(lengths=lengths, twists=twists))
        sub = dehn_twist_substitution(cuff)
        for w in words:
            got = abs(rep_tw.evaluate(w).trace)
            want = abs(rep_0.evaluate(substitute_word(w, sub)).trace)
            ok &= abs(got - want) <= 1e-8
    report(9, "full twist reproduces Dehn-substituted traces on 5 words to 1e-8", ok)


def test_criterion_10_invariances():
    surface = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.25, 0.5, -0.75))
    mc = WeightedMulticurve({0: 1.0, 1: 2.0})
    ok = True

    # multicurve length exactly constant under its own earthquake
    l0 = multicurve_length(surface, mc)
    for t in (0.5, 1.25, -2.0):
        ok &= multicurve_length(earthquake_flow(surface, mc, t), mc) == l0

    # the flow is coordinate translation with identity Jacobian: on dyadic
    # data the coordinates transform exactly, lengths bitwise unchanged
    t = 0.5
    moved = earthquake_flow(surface, mc, t)
    ok &= moved.gluings is surface.gluings
    for k, (tau0, tau1) in enumerate(zip(surface.twists, moved.twists)):
        ok &= tau1 == tau0 + t * mc.weight(k)

    # unipotent group law exact on dyadic data
    p = PeriodVector(0.75, 2.5)
    ok &= unipotent(unipotent(p, 0.25), 0.5) == unipotent(p, 0.75)
    report(10, "length invariance, identity-Jacobian translation, unipotent law", ok)


def test_criterion_11_cli_determinism_schema_svg(tmp_path):
    surface_doc = {
        "pants": [{"id": 0}, {"id": 1}],
        "gluings": [
            {"cuffs": [[0, 0], [1, 0]], "length": 2.0, "twist": 0.1,
             "spiral_signs": [1, 1]},
            {"cuffs": [[0, 1], [1, 1]], "length": 2.5, "twist": -0.2,
             "spiral_signs": [1, 1]},
            {"cuffs": [[0, 2], [1, 2]], "length": 3.0, "twist": 0.3,
             "spiral_signs": [1, 1]},
        ],
        "weights": {"0": 1.0},
    }
    cfg = tmp_path / "surf.json"
    cfg.write_text(json.dumps(surface_doc))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = run(["verify", "conjugacy", "--config", str(cfg),
                  "--ts", "0,0.1,0.2,0.3", "--out", str(out)])
        outs.append(out.read_bytes())
        assert rc == 0
    ok = outs[0] == outs[1]
    validate(json.loads(outs[0]), REPORT_SCHEMA)

    render_doc = {
        "triangulation": {
            "triangles": [0, 1],
            "edges": [
                {"id": 0, "sides": [[0, 0], [1, 2]], "shear": 0.5},
                {"id": 1, "sides": [[0, 1], [1, 1]], "shear": 0.8},
                {"id": 2, "sides": [[0, 2], [1, 0]], "shear": -0.3},
            ],
        },
        "words": [[], [0], [0, 1], [1], [2]],
        "objects": ["triangles", "tangency"],
    }
    rcfg = tmp_path / "render.json"
    rcfg.write_text(json.dumps(render_doc))
    svg_out = tmp_path / "plot.svg"
    assert run(["render", "--config", str(rcfg), "--format", "svg",
                "--out", str(svg_out)]) == 0
    svg = svg_out.read_text()
    arc_re = re.compile(
        r'M (-?[\d.]+),(-?[\d.]+) A (-?[\d.]+),(?:-?[\d.]+) 0 (\d),(\d) (-?[\d.]+),(-?[\d.]+)'
    )
    px_per_unit = 600.0 / 2.1
    found = arc_re.findall(svg)
    ok &= bool(found)
    for x1, y1, r, large, sweep, x2, y2 in found:
        x1, y1, r, x2, y2 = map(float, (x1, y1, r, x2, y2))
        hx, hy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
        p2 = hx * hx + hy * hy
        scale = math.sqrt(max(r * r - p2, 0.0) / p2)
        if int(large) == int(sweep):
            scale = -scale
        cx = scale * hy + (x1 + x2) / 2.0
        cy = -scale * hx + (y1 + y2) / 2.0
        defect = abs(math.hypot(cx, cy) - math.sqrt(1.0 + r * r))
        ok &= defect * px_per_unit < 0.5
    report(11, "CLI byte-identical reruns, schema-valid reports, orthogonal SVG arcs", ok)
