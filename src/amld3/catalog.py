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
forms, from which :func:`label_corners` reads the corners.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .rate_region import CornerPoint, EntropyProfile, classify_regime


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


def label_corners(
    corners: Sequence[CornerPoint], profile: EntropyProfile
) -> tuple[CornerPoint, ...]:
    """Attach catalog labels to enumerated corners of an L1 region.

    Corners whose coordinates match several catalog entries (boundary
    profiles) get the merged label, e.g. ``"Y7+Y8"``.  Corners not in the
    catalog keep label None.  A corner is looked up by its rates times 2L,
    the integer key that each :data:`RATE_FORMS` entry of the regime takes
    at ``L * h``; a rate whose denominator does not divide 2L is in no
    catalog entry.
    """
    d, h = 2 * profile._L, profile._hn
    table: dict[tuple[int, ...], list[str]] = {}
    for label in CATALOG_LABELS[classify_regime(profile)]:
        a, b, c = RATE_FORMS[label]
        key = sum(map(mul, a, h)), sum(map(mul, b, h)), sum(map(mul, c, h))
        table.setdefault(key, []).append(label)
    out = []
    for c in corners:
        key = tuple(
            r.numerator * (d // r.denominator) if d % r.denominator == 0
            else None
            for r in c.rates
        )
        labels = table.get(key)
        out.append(
            CornerPoint(c.rates, c.tight, "+".join(labels)) if labels else c
        )
    return tuple(out)
