"""The corner-point coding schemes of the L1 ordering, as symbolic templates.

Templates carve the streams ``V1..V7`` (lengths ``l1..l7``) into pieces with
*splits*, ``(stream, names, forms)`` triples: ``V3 -> V3.1, V3.2`` cuts a
stream into consecutive pieces, each form seven ints over ``l1..l7`` that
give twice the piece's length.  A template applies only where all piece
lengths are non-negative integers (else :class:`~.codec.RegimeMismatch` or
:class:`~.codec.OddSplit`).

The module is also the L1 corner catalog, one label set per regime
(:data:`CATALOG_LABELS`).  Each corner is the rate triple of its scheme:
:data:`RATE_FORMS`, the description lengths as sums of the same doubled
forms.  Each label's forms fix the rows tight at its corner for every
profile, and one nonsingular triple of them, derived once per regime,
names the corner: :func:`label_corners` reads labels off the corners'
tight tags.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .ordering import L1
from .rate_region import (
    CornerPoint, EntropyProfile, _cross, build_mld_region, classify_regime,
    classify_slacks,
)


def _lin(**kw) -> tuple[int, ...]:
    """Linear form over l1..l7, e.g. _lin(l3=2, l4=-2) for 2 * (l3 - l4)."""
    v = [0] * 7
    for key, coef in kw.items():
        v[int(key[1:]) - 1] = coef
    return tuple(v)


class SchemeTemplate(NamedTuple):
    """One scheme: its splits, ``(stream, piece names, forms)`` with each
    form twice a piece's length over l1..l7, and per description, piece
    names, copied verbatim, and pairs of piece-name tuples, XORed."""

    name: str
    splits: tuple[tuple, ...]
    layout: tuple[tuple, tuple, tuple]


def _x(group_a, group_b):
    return tuple(group_a), tuple(group_b)


def _t(name, splits, *layout) -> SchemeTemplate:
    return SchemeTemplate(name, tuple(splits), tuple(map(tuple, layout)))


# Each split's forms are twice its pieces' lengths, so that the halves of
# V4 - V3 in Z7-Z10 stay integers, as in RATE_FORMS.
_SPLIT3_45 = (
    3, ("V3.1", "V3.2"), (_lin(l3=2, l4=-2, l5=-2), _lin(l4=2, l5=2))
)
_SPLIT3_4 = (3, ("V3.1", "V3.2"), (_lin(l3=2, l4=-2), _lin(l4=2)))
_SPLIT5_Y = (
    5, ("V5.1", "V5.2"), (_lin(l3=2, l4=-2), _lin(l4=2, l5=2, l3=-2))
)
_SPLIT4_Z = (4, ("V4.1", "V4.2"), (_lin(l3=2), _lin(l4=2, l3=-2)))
_SPLIT4_ZH = (
    4,
    ("V4.1", "V4.2", "V4.3"),
    (_lin(l3=2), _lin(l4=1, l3=-1), _lin(l4=1, l3=-1)),
)

TEMPLATES: Mapping[str, SchemeTemplate] = {
    t.name: t
    for t in (
        _t("X1", (),
           ["V1"],
           ["V1", "V2", "V3", "V4"],
           ["V1", "V2", "V3", "V4", "V5", "V6", "V7"]),
        _t("X2", (),
           ["V1"],
           ["V1", "V2", "V3", "V4", "V6", "V7"],
           ["V1", "V2", "V3", "V4", "V5"]),
        _t("X3", (),
           ["V1", "V3", "V4"],
           ["V1", "V2"],
           ["V1", "V2", "V3", "V4", "V5", "V6", "V7"]),
        _t("X4", (),
           ["V1", "V3", "V4", "V7"],
           ["V1", "V2"],
           ["V1", "V2", "V3", "V4", "V5", "V6"]),
        _t("X5", (_SPLIT3_45,),
           ["V1", "V4", "V5"],
           ["V1", "V2", "V3.1", _x(["V3.2"], ["V4", "V5"]), "V6", "V7"],
           ["V1", "V2", "V3.1", "V3.2"]),
        _t("X6", (_SPLIT3_45,),
           ["V1", "V3.1", _x(["V3.2"], ["V4", "V5"]), "V7"],
           ["V1", "V2", "V4", "V5", "V6"],
           ["V1", "V2", "V3.1", "V3.2"]),
        _t("X7", (_SPLIT3_4,),
           ["V1", "V4"],
           ["V1", "V2", "V3.1", _x(["V3.2"], ["V4"])],
           ["V1", "V2", "V3.1", "V3.2", "V5", "V6", "V7"]),
        _t("X8", (_SPLIT3_4,),
           ["V1", "V3.1", _x(["V3.2"], ["V4"])],
           ["V1", "V2", "V4"],
           ["V1", "V2", "V3.1", "V3.2", "V5", "V6", "V7"]),
        _t("X9", (_SPLIT3_4,),
           ["V1", "V4"],
           ["V1", "V2", "V3.1", _x(["V3.2"], ["V4"]), "V6", "V7"],
           ["V1", "V2", "V3.1", "V3.2", "V5"]),
        _t("X10", (_SPLIT3_4,),
           ["V1", "V3.1", _x(["V3.2"], ["V4"]), "V7"],
           ["V1", "V2", "V4"],
           ["V1", "V2", "V3.1", "V3.2", "V5", "V6"]),
        _t("Y5", (_SPLIT3_4, _SPLIT5_Y),
           ["V1", "V4", "V5.1", "V5.2"],
           ["V1", "V2", _x(["V3.2"], ["V4"]), _x(["V3.1"], ["V5.1"]),
            "V5.2", "V6", "V7"],
           ["V1", "V2", "V3.1", "V3.2"]),
        _t("Y6", (_SPLIT3_4, _SPLIT5_Y),
           ["V1", "V4", "V5.1", "V5.2", "V7"],
           ["V1", "V2", _x(["V3.2"], ["V4"]), _x(["V3.1"], ["V5.1"]),
            "V5.2", "V6"],
           ["V1", "V2", "V3.1", "V3.2"]),
        _t("Y11", (_SPLIT3_4, _SPLIT5_Y),
           ["V1", "V4", "V5.1"],
           ["V1", "V2", _x(["V3.2"], ["V4"]), _x(["V3.1"], ["V5.1"]),
            "V6", "V7"],
           ["V1", "V2", "V3.1", "V3.2", "V5.2"]),
        _t("Y12", (_SPLIT3_4, _SPLIT5_Y),
           ["V1", "V4", "V5.1", "V7"],
           ["V1", "V2", _x(["V3.2"], ["V4"]), _x(["V3.1"], ["V5.1"]), "V6"],
           ["V1", "V2", "V3.1", "V3.2", "V5.2"]),
        _t("Z5", (_SPLIT4_Z,),
           ["V1", "V4.1", "V4.2", "V5"],
           ["V1", "V2", _x(["V3"], ["V4.1"]), "V4.2", "V5", "V6", "V7"],
           ["V1", "V2", "V3"]),
        _t("Z6", (_SPLIT4_Z,),
           ["V1", "V4.1", "V4.2", "V5", "V7"],
           ["V1", "V2", _x(["V3"], ["V4.1"]), "V4.2", "V5", "V6"],
           ["V1", "V2", "V3"]),
        _t("Z7", (_SPLIT4_ZH,),
           ["V1", "V4.1", "V4.2"],
           ["V1", "V2", _x(["V3"], ["V4.1"]), _x(["V4.2"], ["V4.3"])],
           ["V1", "V2", "V3", "V4.3", "V5", "V6", "V7"]),
        _t("Z8", (_SPLIT4_ZH,),
           ["V1", "V4.1", "V4.2"],
           ["V1", "V2", _x(["V3"], ["V4.1"]), _x(["V4.2"], ["V4.3"]),
            "V6", "V7"],
           ["V1", "V2", "V3", "V4.3", "V5"]),
        _t("Z9", (_SPLIT4_ZH,),
           ["V1", "V4.1", "V4.2", "V7"],
           ["V1", "V2", _x(["V3"], ["V4.1"]), _x(["V4.2"], ["V4.3"])],
           ["V1", "V2", "V3", "V4.3", "V5", "V6"]),
        _t("Z10", (_SPLIT4_ZH,),
           ["V1", "V4.1", "V4.2", "V7"],
           ["V1", "V2", _x(["V3"], ["V4.1"]), _x(["V4.2"], ["V4.3"]), "V6"],
           ["V1", "V2", "V3", "V4.3", "V5"]),
    )
}

CATALOG_LABELS: Mapping[str, tuple[str, ...]] = {
    "I": tuple(f"X{i}" for i in range(1, 11)),
    "II": tuple(f"Y{i}" for i in range(1, 13)),
    "III": tuple(f"Z{i}" for i in range(1, 11)),
}

ALL_SCHEME_LABELS: tuple[str, ...] = tuple(
    chain.from_iterable(CATALOG_LABELS.values())
)
"""The 32 catalog labels across the three regimes."""


def template_name_for_label(label: str) -> str:
    """Template implementing a catalog label (Y1 -> X1, Z3 -> X3, ...)."""
    if label in TEMPLATES:
        return label
    alias = "X" + label[1:]
    if label[:1] in ("Y", "Z") and alias in TEMPLATES:
        return alias
    raise KeyError(f"unknown scheme label {label!r}")


def _rate_forms(t: SchemeTemplate) -> tuple[tuple[int, ...], ...]:
    """Twice each description length: copies add, an XOR its first group."""
    form = {f"V{k}": (0,) * (k - 1) + (2,) + (0,) * (7 - k)
            for k in range(1, 8)}
    for _, names, forms in t.splits:
        form.update(zip(names, forms))
    return tuple(
        tuple(map(sum, zip(*(
            form[n] for item in desc
            for n in ((item,) if type(item) is str else item[0])
        ))))
        for desc in t.layout
    )


_FORMS = {name: _rate_forms(t) for name, t in TEMPLATES.items()}
RATE_FORMS: Mapping[str, tuple[tuple[int, ...], ...]] = {
    label: _FORMS[template_name_for_label(label)] for label in ALL_SCHEME_LABELS
}
"""Catalog label -> twice its scheme's description lengths over l1..l7."""


@cache
def _label_triples(regime: str) -> dict[tuple[str, ...], tuple[str, ...]]:
    """Each label of ``regime``'s tight triple, in all six orders -> labels,
    derived on the regime's first use.

    A row is tight at a label's corner for every profile when its slack, an
    integer form over h, is zero.  Its coefficients are at most 4 in
    absolute value, below B / 2 = 2^15, so the form is zero exactly when it
    is zero at h = (1, B, ..., B^6): the rows tight at the label's rates in
    the L1 region of that profile.  Of those rows the first triple, in row
    order, whose normals are independent is kept: three such planes meet in
    one point, so a corner tight on them is the label's corner.
    """
    h = [1 << 16 * k for k in range(7)]
    rows = build_mld_region(L1, EntropyProfile(h)).constraints
    normal = {c.tag: c.a for c in rows}
    table = {}
    for label in CATALOG_LABELS[regime]:
        rates = [Fraction(sum(map(mul, form, h)), 2)
                 for form in RATE_FORMS[label]]
        triple = next(
            t for t in combinations(classify_slacks(rows, rates)[0], 3)
            if sum(map(mul, normal[t[0]], _cross(normal[t[1]], normal[t[2]])))
        )
        for key in permutations(triple):
            table[key] = (*table.get(key, ()), label)
    return table


def label_corners(
    corners: Sequence[CornerPoint], profile: EntropyProfile
) -> tuple[CornerPoint, ...]:
    """Attach catalog labels to enumerated corners of an L1 region.

    Labels are read from each corner's ``tight`` tags, not from its rates,
    so a hand-built corner is labelled by its tags.  Each label of the
    profile's regime has a triple of rows, tight at its corner for every
    profile, whose normals are independent: a corner tight on all three is
    that label's corner, and a corner equal to it is tight on them, as
    :func:`~.rate_region.enumerate_corners` computes tags exactly.  A corner
    whose tags hold several labels' triples (boundary profiles) gets the
    merged label in catalog order, e.g. ``"Y7+Y8"``; one that holds none
    keeps label None.
    """
    regime = classify_regime(profile)
    table, order = _label_triples(regime), CATALOG_LABELS[regime]
    out = []
    for c in corners:
        tight = tuple(c.tight)  # a hand-built corner may list its tags
        # Most corners have three tags (83% of the L1 corners that perfbench's
        # analysis workload draws): one lookup, which takes 44% off labelling.
        if len(tight) == 3:
            labels = table.get(tight)
        else:
            # A set, so that a tag listed twice names its label once.
            labels = sorted({label for t in combinations(tight, 3)
                             for label in table.get(t, ())}, key=order.index)
        out.append(
            CornerPoint(c.rates, c.tight, "+".join(labels)) if labels else c
        )
    return tuple(out)
