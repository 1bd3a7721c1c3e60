"""Shear coordinates, earthquakes and unipotent-flow verifiers at desk scale.

The package builds the constructive machinery linking earthquakes on
hyperbolic surfaces to linear motion in shear coordinates: half-plane
isometries, ideal triangles and their developing maps, transport
products with explicit error budgets, finite measured laminations, the
two-pants genus-two surface in Fenchel-Nielsen coordinates, and the
verifiers that check the linear laws numerically.
"""

from .conjugacy import (
    ChainConfiguration,
    PeriodVector,
    Sample,
    VerificationReport,
    chain_period,
    unipotent,
    verify_conjugacy,
    verify_fundamental_lemma,
)
from .hyp import (
    BoundaryPoint,
    EarthquakeRangeError,
    EllipticError,
    Geodesic,
    HPoint,
    MoebiusTransform,
    UnitTangent,
    apply,
    translation_along,
    translation_length,
)
from .lamination import (
    DiscreteLamination,
    EndpointOnLeafError,
    GeodesicArc,
    Leaf,
    UniformBand,
    discretize_band,
    earthquake_map,
    separating_leaves,
    transverse_measure,
)
from .surface import (
    FNSurface,
    Gluing,
    HolonomyRep,
    InvalidGluingError,
    UnsupportedCurveError,
    WeightedMulticurve,
    cuff_offset,
    earthquake_flow,
    fn_to_holonomy,
    multicurve_length,
    shear_across_cuff,
)
from .transport import (
    CrossingFactor,
    DivergentBudgetError,
    OrderedProduct,
    Spike,
    horocycle_conjugate,
    ordered_product,
    spike_crossing_sequence,
)
from .triangle import (
    IdealTriangle,
    InvalidWordError,
    NotAdjacentError,
    ShearRangeError,
    ShearTriangulation,
    develop_step,
    edge_tangency_point,
    holonomy,
    pants_boundary_lengths,
    shear_between_adjacent,
    shears_from_cuffs,
)

__version__ = "0.1.0"
