"""Value semantics of the library's record classes.

Each class is an immutable value: rebuilding an instance from its fields
gives an equal one (with the same hash, where the class is hashable), a
different field gives an unequal one, ``repr`` lists the fields, and no
field, derived attribute or new name can be assigned or deleted.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from amld3 import (
    SUM_RATE_GAP_BOUND,
    BoundSet,
    CornerPoint,
    DescriptionScheme,
    DistortionVector,
    EncodedDescriptions,
    EntropyProfile,
    GapReport,
    LinearInequality,
    NoiseParams,
    Ordering,
    Piece,
    RateRegion,
    SchemeTemplate,
    SourceBundle,
    Xor,
    enumerate_orderings,
)
from amld3.codec import DecodePlan
from amld3.ordering import L1

F = Fraction
ROW = LinearInequality((1, 1, 0), F(3, 2), "Q4")
ONES = EntropyProfile([F(1)] * 7)
DYADIC = DistortionVector([2.0 ** -(k + 1) for k in range(7)])
BIT = np.ones(1, dtype=np.uint8)
ZERO = np.zeros(1, dtype=np.uint8)

# (class, fields in repr order, (field, other value), hashable, derived
# attributes).  The field values are the ones the class stores, so that the
# class keeps them as given.  Arrays hold one bit, so that comparing two of
# them gives a plain truth value.
CASES = [
    (Ordering, {"by_level": L1.by_level},
     ("by_level", enumerate_orderings()[1].by_level), True, ()),
    (EntropyProfile, {"h": (F(1, 2), F(1), F(0), F(3), F(1), F(1), F(2))},
     ("h", (F(1),) * 7), True, ("_L", "_hn", "_Hn")),
    (LinearInequality, {"a": (1, 1, 0), "b": F(3, 2), "tag": "Q4"},
     ("b", F(2)), True, ()),
    (CornerPoint, {"rates": (F(1), F(2), F(3)), "tight": ("Q1", "Q4"),
                   "label": "X1"},
     ("label", None), True, ()),
    (RateRegion, {"constraints": (ROW,), "ordering": L1, "profile": ONES},
     ("profile", None), True, ("planes", "scaled_b", "q")),
    (DistortionVector, {"values": DYADIC.values},
     ("values", (1.0,) * 7), True, ()),
    (BoundSet, {"kind": "inner", "constraints": (ROW,), "ordering": L1,
                "distortions": DYADIC},
     ("kind", "outer"), True, ()),
    (NoiseParams, {"d": (0.5, 0.25, 0.125, 0.1, 0.05, 0.01, 0.0)},
     ("d", (0.0,) * 7), True, ()),
    (GapReport, {"singles": 0.0, "pairs": 0.5, "weighted_triples": 1.0,
                 "sum_rate": (1.0, 2.0),
                 "sum_rate_reference": SUM_RATE_GAP_BOUND},
     ("pairs", 0.25), True, ()),
    (SourceBundle, {"streams": (BIT,) * 7},
     ("streams", (ZERO,) + (BIT,) * 6), False, ()),
    (Piece, {"stream": 3, "start": 1, "stop": 4}, ("stop", 5), True, ()),
    (Xor, {"group_a": (Piece(3, 0, 1),), "group_b": (Piece(4, 0, 1),)},
     ("group_b", (Piece(5, 0, 1),)), True, ()),
    (DescriptionScheme, {"label": "X1", "lengths": (1,) * 7,
                         "segments": ((Piece(1, 0, 1),), (), ())},
     ("label", "X2"), True, ()),
    (EncodedDescriptions, {"bits": (BIT, None, ZERO)},
     ("bits", (BIT, None, None)), False, ()),
    (DecodePlan, {"level": 1, "offsets": (0, 1), "bounds": (0, 1),
                  "runs": ((0, (1, 0), None, 1),)},
     ("level", 2), True, ()),
    (SchemeTemplate, {"name": "T", "splits": (), "layout": (("V1",), (), ())},
     ("name", "U"), True, ()),
]


@pytest.mark.parametrize(
    "cls, fields, change, hashable, derived", CASES,
    ids=[case[0].__name__ for case in CASES],
)
def test_value_semantics(cls, fields, change, hashable, derived):
    value = cls(**fields)
    rebuilt = cls(**fields)
    name, other = change
    changed = cls(**{**fields, name: other})
    assert value == rebuilt
    assert not value == changed
    if hashable:
        assert hash(value) == hash(rebuilt)
    else:
        with pytest.raises(TypeError):
            hash(value)
    assert repr(value) == cls.__name__ + "(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()
    ) + ")"
    for attr in (*fields, *derived):
        kept = getattr(value, attr)
        with pytest.raises(AttributeError):
            setattr(value, attr, other)
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert getattr(value, attr) is kept
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert not hasattr(value, "no_such_field")
    assert value == rebuilt
