"""Every eqlab value type, and every value type of the test references, is a
hyp.Record: frozen, compared and shown by its fields, and copied or pickled bit
for bit without running its constructor again."""

import copy
import pickle

import pytest

from eqlab import conjugacy, hyp, lamination, render, surface, transport, triangle
from eqlab.hyp import Record, _set
from hyp_reference import normalized_spike
from lamination_reference import GeodesicArc
from triangle_reference import triangle_from_values

_LAMINATION = lamination.DiscreteLamination.from_pairs([((-1, 1), 0.5), ((-2, 2), 1.0),
                                                        ((3, "inf"), 0.25)])
_FACTORS = [transport.CrossingFactor(transport.horocycle_conjugate(d), d)
            for d in (1.0, 2.5)]
_SAMPLES = (conjugacy.Sample(0.1, (0.3, 2.0), (0.3, 2.0)),
            conjugacy.Sample(0.2, (0.5, 2.0), (0.5 + 1e-12, 2.0)))

EXAMPLES = [
    # det 2: a copy that ran the constructor would rescale it
    hyp.MoebiusTransform.unimodular(2.0, 0.0, 0.0, 1.0),
    hyp.HPoint(0.5, 2.0),
    hyp.BoundaryPoint.from_value(0.3),
    hyp.Geodesic.from_values(-1, 2),
    hyp.UnitTangent.upward_at(hyp.HPoint(0.5, 2.0)),
    triangle.IdealTriangle.standard(),
    triangle.Edge(0, ((0, 0), (1, 2)), 0.5),
    triangle.pants_triangulation(0.5, -0.2, 0.3),
    triangle.PlacedTriangle(1, triangle_from_values(0, 1, "inf")),
    _FACTORS[0],
    transport.ordered_product(_FACTORS),
    normalized_spike(),
    _LAMINATION.leaves[0],
    _LAMINATION,
    _LAMINATION._forest,
    GeodesicArc(hyp.HPoint(0.0, 1.0), hyp.HPoint(1.0, 2.0)),
    lamination.UniformBand(1.0, 3.0),
    surface.Gluing(((0, 0), (1, 0)), 2.0, (1, -1)),
    surface.FNSurface.genus2(),
    surface.WeightedMulticurve({0: 1.0, 2: 0.5}),
    surface.fn_to_holonomy(surface.FNSurface.genus2()),
    conjugacy.PeriodVector(0.1, 2.0),
    conjugacy.ChainConfiguration.from_steps([(1, 0.5), (2, -0.3)], [1.0, 0.0]),
    _SAMPLES[0],
    conjugacy.VerificationReport(_SAMPLES, 1e-9),
    render.RenderSpec(),
]


def _slots(record) -> list:
    # repr tells floats apart bit for bit (signed zeros too)
    return [repr(getattr(record, name)) for name in type(record).__slots__]


def _twin(record):
    """An instance of another Record type with the same slots and values."""
    cls = type(record)
    twin = object.__new__(type(cls.__name__, (Record,), {"__slots__": cls.__slots__}))
    for name in cls.__slots__:
        _set(twin, name, getattr(record, name))
    return twin


def test_every_record_type_has_an_example():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    records = {cls for cls in subclasses(Record)
               if cls.__module__.startswith("eqlab.") or cls.__module__.endswith("_reference")}
    assert records == {type(record) for record in EXAMPLES}
    assert len(EXAMPLES) == len(records)


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda record: type(record).__name__)
class TestRecord:
    def test_assignment_and_deletion_are_refused(self, record):
        for name in type(record).__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert not hasattr(record, "__dict__")

    def test_fields_are_the_public_slots_in_order(self, record):
        cls = type(record)
        assert cls._fields == tuple(name for name in cls.__slots__ if not name.startswith("_"))
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_equality_needs_the_same_type(self, record):
        twin = _twin(record)
        assert _slots(twin) == _slots(record)
        assert record != twin and twin != record
        assert not record == twin
        assert record != tuple(getattr(record, name) for name in type(record)._fields)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda record: pickle.loads(pickle.dumps(record))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_every_slot_bit_for_bit(self, record, clone):
        copied = clone(record)
        assert type(copied) is type(record)
        assert _slots(copied) == _slots(record)
        assert copied == record
        if isinstance(record, (surface.WeightedMulticurve, surface.HolonomyRep,
                               lamination._Forest)):
            with pytest.raises(TypeError):  # their dict or list fields are unhashable
                hash(record)
        else:
            assert hash(copied) == hash(record)


@pytest.mark.parametrize("cls", [hyp.MoebiusTransform, lamination.DiscreteLamination,
                                 transport.CrossingFactor, conjugacy.Sample])
def test_traced_constructors_are_defined_on_the_class(cls):
    # perfbench's tracer wraps cls.__dict__["__init__"] of these four
    assert "__init__" in vars(cls)
