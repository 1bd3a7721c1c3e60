"""Shear coordinates, earthquakes and unipotent-flow verifiers at desk scale.

The package builds the constructive machinery linking earthquakes on
hyperbolic surfaces to linear motion in shear coordinates: half-plane
isometries, ideal triangles and their developing maps, transport
products with explicit error budgets, finite measured laminations, the
two-pants genus-two surface in Fenchel-Nielsen coordinates, and the
verifiers that check the linear laws numerically.

`import eqlab` loads no submodule.  A public name, or a submodule such as
`eqlab.hyp`, is imported on first use (PEP 562), so a process pays only
for the layers it reaches.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "conjugacy": (
        "ChainConfiguration", "PeriodVector", "Sample", "VerificationReport",
        "chain_period", "unipotent", "verify_conjugacy", "verify_fundamental_lemma",
    ),
    "hyp": (
        "BoundaryPoint", "EarthquakeRangeError", "EllipticError", "Geodesic", "HPoint",
        "MoebiusTransform", "UnitTangent", "apply", "translation_along", "translation_length",
    ),
    "lamination": (
        "DiscreteLamination", "EndpointOnLeafError", "Leaf", "UniformBand", "discretize_band",
        "earthquake_map", "separating_leaves",
    ),
    "surface": (
        "FNSurface", "Gluing", "HolonomyRep", "InvalidGluingError", "UnsupportedCurveError",
        "WeightedMulticurve", "cuff_offset", "earthquake_flow", "fn_to_holonomy",
        "shear_across_cuff",
    ),
    "transport": (
        "CrossingFactor", "DivergentBudgetError", "OrderedProduct", "Spike",
        "horocycle_conjugate", "ordered_product", "spike_crossing_sequence",
    ),
    "triangle": (
        "IdealTriangle", "InvalidWordError", "NotAdjacentError", "ShearRangeError",
        "ShearTriangulation", "develop_step", "edge_tangency_point", "pants_boundary_lengths",
        "shears_from_cuffs",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "render", "schemas"}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
