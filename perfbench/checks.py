"""Output checks that do not trust the code being timed.

Each check takes the generated input and the program's output and
returns None when the output is right, or a one-line reason when it is
not.  The references are closed forms (chain shear = sum of step
shears, pants lengths |s_i + s_j|, the spike product), recomputation
from the reported samples, or, for earthquakes, a composition of
`hyp.translation_along` built from the benchmark's own separation test
for half-circle leaves.
"""

from __future__ import annotations

import math
import re

# the program's own tolerances, which its pass/fail verdicts must honour
CONJUGACY_TOL = 1e-6
CHAIN_TOL = 1e-9
# how far the chain's period may sit from the closed-form sum of step
# shears; developing 12 steps drifts by about 5e-11 today
CHAIN_X0_TOL = 1e-9
# eqlab predicts the cuff shear from the unmoved surface, the check from the
# shear measured at t = 0; the two may differ by rounding (relative to 1 + |x0|)
CONJUGACY_X0_TOL = 1e-12
# hyperbolic distance between an earthquake image and the reference
QUAKE_TOL = 1e-8


def _residual_report(ts, y, x0, x0_tol, samples, max_residual, tolerance, passed):
    """Shared part of the verifier checks; samples are (t, measured, predicted)."""
    if [s[0] for s in samples] != list(ts):
        return "sample times differ from the requested times"
    if tolerance <= 0.0:
        return f"tolerance {tolerance} is not positive"
    worst = 0.0
    for t, (mx, my), (px, py) in samples:
        if my != y or py != y:
            return f"transverse measure {my}/{py} is not exactly the weight {y}"
        if abs(px - (x0 + t * y)) > x0_tol:
            return f"predicted shear {px} at t={t} is off the orbit x0 + t*y = {x0 + t * y}"
        worst = max(worst, abs(mx - px), abs(my - py))
    if abs(worst - max_residual) > 1e-15 * (1.0 + worst):
        return f"max_residual {max_residual} differs from the samples' {worst}"
    if passed != (max_residual <= tolerance):
        return f"passed={passed} contradicts residual {max_residual} at tolerance {tolerance}"
    return None


def conjugacy_report(op, samples, max_residual, tolerance, passed):
    """The cuff trajectory: y is the arc's weight, x0 the shear sampled at t = 0."""
    if not samples or samples[0][0] != 0.0:
        return "conjugacy report lacks its t = 0 sample"
    x0 = samples[0][1][0]
    x0_tol = CONJUGACY_X0_TOL * (1.0 + abs(x0))
    return _residual_report(op["ts"], op["weight"], x0, x0_tol, samples,
                            max_residual, tolerance, passed)


def chain_report(op, samples, max_residual, tolerance, passed):
    """The chain period: x0 is the sum of the step shears, y the sum of weights."""
    x0 = sum(shear for _, shear in op["steps"])
    y = sum(op["weights"])
    return _residual_report(op["ts"], y, x0, CHAIN_X0_TOL, samples,
                            max_residual, tolerance, passed)


def report_samples(report):
    """(t, measured, predicted) triples of a VerificationReport."""
    return [(s.t, tuple(s.measured), tuple(s.predicted)) for s in report.samples]


def json_report_samples(doc):
    return [(s["t"], tuple(s["measured"]), tuple(s["predicted"])) for s in doc["samples"]]


# -- earthquakes ------------------------------------------------------------
def _inside(leaf, x, y):
    (a, b), _ = leaf
    c = (a + b) / 2.0
    r = abs(b - a) / 2.0
    return (x - c) ** 2 + y * y < r * r


def quake_reference(hyp, leaves, t, base, target):
    """Earthquake image of `target` with `base` fixed, for finite half-circle leaves.

    Disjoint half-circles around one point are nested, so the leaves
    separating base from target are crossed as: those around the base,
    smallest first, then those around the target, largest first.  Each
    leaf moves the far side toward the endpoint ahead of a walker who
    keeps the base on the left: the end point b of an a-to-b half-circle
    when the base is inside it and a > b, or outside it and a < b.
    """
    around_base = []
    around_target = []
    for leaf in leaves:
        in_base = _inside(leaf, *base)
        if in_base != _inside(leaf, *target):
            radius = abs(leaf[0][1] - leaf[0][0])
            (around_base if in_base else around_target).append((radius, leaf))
    order = [leaf for _, leaf in sorted(around_base)]
    order += [leaf for _, leaf in sorted(around_target, reverse=True)]
    point = hyp.HPoint(*target)
    for (a, b), w in reversed(order):  # the leaf nearest the base acts last
        toward_end = (a > b) == _inside(((a, b), w), *base)
        shift = t * w if toward_end else -t * w
        point = hyp.apply(hyp.translation_along(hyp.Geodesic.from_values(a, b), shift), point)
    return point.x, point.y


def _hyp_distance(p, q):
    dx, dy = p[0] - q[0], p[1] - q[1]
    return math.acosh(max(1.0, 1.0 + (dx * dx + dy * dy) / (2.0 * p[1] * q[1])))


def quake_images(hyp, leaves, t, base, targets, images):
    if len(images) != len(targets):
        return f"{len(images)} images for {len(targets)} targets"
    for target, image in zip(targets, images):
        ref = quake_reference(hyp, leaves, t, base, target)
        gap = _hyp_distance(ref, image)
        if not gap <= QUAKE_TOL:
            return f"image of {target} is {gap:.3g} from the reference"
    return None


# -- CLI documents ----------------------------------------------------------
def pants_shears(shears, doc):
    s1, s2, s3 = shears
    want = [abs(s1 + s2), abs(s2 + s3), abs(s3 + s1)]
    if doc.get("shears") != list(shears) or doc.get("lengths") != want:
        return f"pants lengths {doc.get('lengths')} are not |s_i + s_j| = {want}"
    return None


def pants_lengths(lengths, signs, doc):
    s = doc["shears"]
    for k in range(3):
        got = s[k] + s[(k + 1) % 3]
        if abs(got - signs[k] * lengths[k]) > 1e-12 * (1.0 + lengths[k]):
            return f"shear sum {got} does not realize length {lengths[k]} with sign {signs[k]}"
        want = 2.0 * math.cosh(lengths[k] / 2.0)
        if abs(doc["traces"][k] - want) > 1e-9 * want:
            return f"trace {doc['traces'][k]} is not 2 cosh(l/2) = {want}"
    return None


def pants_random(trials, doc):
    if doc["trials"] != trials:
        return f"ran {doc['trials']} trials, asked for {trials}"
    if not doc["passed"] or not 0.0 <= doc["max_trace_defect"] <= doc["tolerance"]:
        return f"trace identity failed: defect {doc['max_trace_defect']}"
    return None


def _cross_ratio_shear(u, v, x, y):
    """Shear across the edge u -> v from the triangle with third vertex x to
    the one with y: the value s with (u, v, x, y) -> (0, inf, -1, e^s)."""
    def diff(p, q):
        return 1.0 if p == "inf" or q == "inf" else p - q
    # infinite factors cancel in pairs; keep the finite ones
    num = -diff(x, v) * diff(y, u)
    den = diff(x, u) * diff(y, v)
    ratio = num / den
    return math.log(ratio) if ratio > 0.0 else None


def placements(shears, words, doc):
    """Each requested word extends the previous by one crossing of edge e;
    the two placed triangles must share an edge and differ by shear s_e."""
    got = doc["placements"]
    if len(got) != len(words) or got[0]["vertices"] != [-1.0, 0.0, "inf"]:
        return "root placement is not the standard triangle (-1, 0, inf)"
    for prev, cur, word in zip(got, got[1:], words[1:]):
        shared = [v for v in cur["vertices"] if v in prev["vertices"]]
        if len(shared) != 2:
            return f"placements for {word[:-1]} and {word} share {len(shared)} vertices"
        pv, cv = prev["vertices"], cur["vertices"]
        i = pv.index(shared[0])
        u, v = (shared[0], shared[1]) if pv[(i + 1) % 3] == shared[1] else (shared[1], shared[0])
        x = next(p for p in pv if p not in shared)
        y = next(p for p in cv if p not in shared)
        s = _cross_ratio_shear(u, v, x, y)
        want = shears[word[-1]]
        if s is None or abs(s - want) > 1e-9:
            return f"crossing edge {word[-1]} has shear {s}, want {want}"
    return None


def spike_product(a, b, depths, doc):
    """Spike with edges (a, inf), (b, inf): every factor is the translation
    z -> z + (b - a) e^-d, so the product adds the sum of the kept steps."""
    kept = [d for d in depths if (b - a) * math.exp(-d) >= 1e-14]  # the tail floor
    shift = (b - a) * sum(math.exp(-d) for d in kept)
    want = [[1.0, shift], [0.0, 1.0]]
    value = doc["value"]
    err = max(abs(value[i][j] - want[i][j]) for i in range(2) for j in range(2))
    if err > 1e-12 * (1.0 + abs(shift)):
        return f"spike product {value} differs from {want}"
    if doc["retained"] != len(kept):
        return f"retained {doc['retained']} factors, want {len(kept)}"
    return None


def twisted_surface(surface, t, doc):
    weights = {int(k): w for k, w in surface["weights"].items()}
    for k, (before, after) in enumerate(zip(surface["gluings"], doc["gluings"])):
        want = before["twist"] + t * weights.get(k, 0.0)
        if after["length"] != before["length"] or after["twist"] != want:
            return f"cuff {k}: twist {after['twist']} length {after['length']}, want {want}"
    return None


_ARC = re.compile(r'M (\S+),(\S+) A (\S+),\S+ 0 0,[01] (\S+),(\S+)"')


def svg_arcs(expected_paths, text):
    """Every geodesic arc starts and ends on the unit circle and meets it at a
    right angle: its circle has |center|^2 = 1 + radius^2."""
    if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
        return "not an SVG document"
    arcs = _ARC.findall(text)
    straight = text.count(" L ")
    if len(arcs) + straight != expected_paths:
        return f"{len(arcs) + straight} geodesic paths, want {expected_paths}"
    for ux, uy, r, vx, vy in arcs:
        u = complex(float(ux), float(uy))
        v = complex(float(vx), float(vy))
        r = float(r)
        if abs(abs(u) - 1.0) > 1e-9 or abs(abs(v) - 1.0) > 1e-9:
            return "arc endpoint off the unit circle"
        # a circle orthogonal to the unit circle through u is centered at u (1 +- i r)
        gap = min(abs(abs(u * complex(1.0, sign * r) - v) - r) for sign in (1.0, -1.0))
        if gap > 1e-6:
            return f"arc of radius {r} is not orthogonal to the unit circle"
    return None
