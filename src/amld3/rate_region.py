"""Exact admissible rate regions for 3-description multilevel diversity coding.

A source is split into seven independent streams with layer entropies
``h_1, ..., h_7`` (exact rationals) and cumulative sums ``H_k``.  Given an
admissible decoder ordering, the closure of achievable description-rate
triples ``(R1, R2, R3)`` is the polyhedron cut out by eleven linear
inequalities; :func:`build_mld_region` constructs them, with the offsets of
:func:`constraint_offsets` and the row builder :func:`_rows` that the
Gaussian bounds share, and :func:`enumerate_corners` lists every vertex of
the region exactly.  For the fully alternating ordering L1,
:func:`classify_regime` tells which of the three corner catalogs of
:mod:`.catalog` applies.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .ordering import L1, Ordering


class NegativeEntropy(ValueError):
    """A layer entropy was negative."""


def _read_only(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a value whose derived
    attributes ``__new__`` sets once in its ``__dict__``."""
    raise AttributeError(f"cannot assign to or delete {name!r}")


def _rational(v) -> Fraction:
    """The exact layer's one coercion: ``v`` kept if a ``Fraction``."""
    return v if type(v) is Fraction else Fraction(v)


class EntropyProfile(namedtuple("EntropyProfile", "h")):
    """Layer entropies h_1..h_7 as exact non-negative rationals.

    Each h_i is coerced once and read once as integers, kept over one
    common denominator: ``_L`` is the least common denominator of the h_i,
    ``_hn`` holds the L * h_i and ``_Hn`` their running sums, the L * H_k.
    The exact layer does its sums on these integers and builds a
    ``Fraction`` only for a result.
    """

    __setattr__ = __delattr__ = _read_only

    def __new__(cls, h: Iterable) -> EntropyProfile:
        vals = tuple(map(_rational, h))
        if len(vals) != 7:
            raise ValueError(f"expected 7 layer entropies, got {len(vals)}")
        ratios = [v.as_integer_ratio() for v in vals]
        for i, (n, _) in enumerate(ratios):
            if n < 0:
                raise NegativeEntropy(f"h_{i + 1} = {vals[i]} is negative")
        L = lcm(*(d for _, d in ratios))
        hn = tuple(n * (L // d) for n, d in ratios)
        self = super().__new__(cls, vals)
        self.__dict__.update(_L=L, _hn=hn, _Hn=tuple(accumulate(hn)))
        return self

    @property
    def H(self) -> tuple[Fraction, ...]:
        """Cumulative sums H_1..H_7, from the integer sums over L."""
        return tuple(Fraction(n, self._L) for n in self._Hn)


class LinearInequality(namedtuple("LinearInequality", "a b tag")):
    """One constraint a . (R1,R2,R3) >= b with a stable tag; the normal
    ``a``, three integers (``ValueError`` otherwise), is kept as ints."""

    __slots__ = ()

    def __new__(cls, a, b, tag: str) -> LinearInequality:
        a = tuple(a)
        if len(a) != 3:
            raise ValueError("normal must have 3 components")
        try:
            ints = tuple(map(int, a))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != a:
            raise ValueError("the entries of a normal must be integers")
        return super().__new__(cls, ints, b, tag)

    def evaluate(self, rates: Sequence) -> object:
        """Slack a . rates - b; the type of ``b`` picks the arithmetic.

        On an exact row (``b`` an int or ``Fraction``) each rate is read as
        :func:`contains` reads it, at its exact value (NaN or inf raises),
        then once as integers: with ``R = n / p`` over the rates' common
        denominator p, the slack is the single ``Fraction``
        ``((a . n) b_den - b_num p) / (p b_den)``.  On a float row it is
        ``sum(a_i R_i) - b`` in floats.  Rates not 3 long are a ValueError.
        """
        if len(rates) != 3:
            raise ValueError("expected 3 rates")
        a, b = self.a, self.b
        # The first test is implied by the second, and is there for speed:
        # it sends a float row past the slower tuple test.
        if type(b) is not float and type(b) in (int, Fraction):
            (a1, a2, a3), (r1, r2, r3) = a, rates
            n1, d1 = _rational(r1).as_integer_ratio()
            n2, d2 = _rational(r2).as_integer_ratio()
            n3, d3 = _rational(r3).as_integer_ratio()
            bn, bd = b.as_integer_ratio()
            p = lcm(d1, d2, d3)
            an = a1 * n1 * (p // d1) + a2 * n2 * (p // d2) + a3 * n3 * (p // d3)
            return Fraction(an * bd - bn * p, p * bd)
        return sum(map(mul, a, rates)) - b


class CornerPoint(NamedTuple):
    """A vertex of the rate region.

    ``tight`` holds the tags of the constraints satisfied with equality,
    always recomputed from the coordinates (never trusted from a table).
    :func:`~.catalog.label_corners` reads ``label`` off these tags alone, not
    off ``rates``, so a hand-built corner is labelled by its tags.
    """

    rates: tuple[Fraction, Fraction, Fraction]
    tight: tuple[str, ...]
    label: str | None = None


AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
"""Normals of the coordinate planes R_i >= 0."""


class RateRegion(namedtuple("RateRegion", "constraints ordering profile")):
    """A polyhedral rate region {R >= 0 : a_t . R >= b_t for all t}.

    Its rows keep each b_t as a ``Fraction``, and its integer rows are: ``q``
    the least common denominator of the b_t, ``planes`` the constraint
    normals (integers, as :class:`LinearInequality` checks) then
    :data:`AXES`, and ``scaled_b`` the q * b_t then 0 for each axis.  The
    constructor coerces each b_t once and derives them;
    :func:`build_mld_region` hands its own to :meth:`_with_rows`, the one
    place that stores them.
    """

    __setattr__ = __delattr__ = _read_only

    def __new__(cls, constraints: Iterable[LinearInequality],
                ordering: Ordering | None = None,
                profile: EntropyProfile | None = None) -> RateRegion:
        constraints = tuple(c._replace(b=_rational(c.b)) for c in constraints)
        b = [c.b.as_integer_ratio() for c in constraints]
        q = lcm(*(d for _, d in b))
        return cls._with_rows(constraints, ordering, profile, q,
                              [n * (q // d) for n, d in b])

    @classmethod
    def _with_rows(cls, constraints, ordering, profile, q, scaled_b):
        """The region of these rows, given their q and q * b_t."""
        self = super().__new__(cls, constraints, ordering, profile)
        self.__dict__.update(planes=(*(c.a for c in constraints), *AXES),
                             q=q, scaled_b=(*scaled_b, 0, 0, 0))
        return self


CONSTRAINT_ROWS: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("1.1", (1, 0, 0)), ("1.2", (0, 1, 0)), ("1.3", (0, 0, 1)),
    ("2.12", (1, 1, 0)), ("2.13", (1, 0, 1)), ("2.23", (0, 1, 1)),
    ("3.1", (2, 1, 1)), ("3.2", (1, 2, 1)), ("3.3", (1, 1, 2)),
    ("4", (1, 1, 1)), ("5", (1, 1, 1)),
)
"""The eleven inequalities as (tag suffix, normal), in emission order."""

P_TAGS = tuple(f"P{suffix}" for suffix, _ in CONSTRAINT_ROWS)
Q_TAGS = tuple(f"Q{i}" for i in range(1, 12))
_NORMALS = tuple(a for _, a in CONSTRAINT_ROWS)


def constraint_offsets(r: Mapping[str, object]) -> tuple:
    """Twice the eleven offsets b, in :data:`CONSTRAINT_ROWS` order.

    ``r[S]`` is the cumulative rate decoder S needs: ``L * H`` at the level
    of S for the exact region, over the profile's common denominator L, and
    ``(1/4) log2(1/D~_S)`` for the Gaussian inner bound.  Only sums, minima
    and doubling are used: integers stay integers, the exact offsets being
    these over 2L, and floats fed r / 2 give exactly the offsets at r, as
    halving and doubling a float are exact.
    """
    r1, r2, r3 = r["G1"], r["G2"], r["G3"]
    r12, r13, r23, r123 = r["G12"], r["G13"], r["G23"], r["G123"]
    m12, m13, m23 = min(r1, r2), min(r1, r3), min(r2, r3)
    return (
        2 * r1, 2 * r2, 2 * r3,
        2 * (m12 + r12), 2 * (m13 + r13), 2 * (m23 + r23),
        2 * (m12 + m13 + min(r12, r13) + r123),
        2 * (m12 + m23 + min(r12, r23) + r123),
        2 * (m13 + m23 + min(r13, r23) + r123),
        2 * (r1 + min(r12, r3) + r123),
        2 * r1 + r2 + min(r12, r13, r23) + 2 * r123,
    )


def _rows(offsets: Iterable, tags: Sequence[str]) -> tuple:
    """The eleven rows: the fixed int normals with these offsets and tags."""
    return tuple([tuple.__new__(LinearInequality, row)
                  for row in zip(_NORMALS, offsets, tags)])


def build_mld_region(ordering: Ordering, profile: EntropyProfile) -> RateRegion:
    """The eleven-inequality description of the admissible rate region.

    All eleven constraints are always emitted, including any that are
    redundant for the given profile.  Tags are Q1..Q11 when ``ordering`` is
    L1 and P1.1..P5 otherwise, in the same fixed emission order.  The
    offsets are summed as integers over 2L (see :class:`EntropyProfile`)
    and each becomes one ``Fraction``; with g the gcd of 2L and the offsets,
    the region is handed q = 2L / g and the offsets / g as its integer rows.
    """
    d = 2 * profile._L
    offsets = constraint_offsets(dict(zip(ordering.by_level, profile._Hn)))
    g = gcd(d, *offsets)
    return RateRegion._with_rows(
        _rows([Fraction(b, d) for b in offsets],
              Q_TAGS if ordering == L1 else P_TAGS),
        ordering, profile, d // g, [b // g for b in offsets])


def classify_regime(profile: EntropyProfile) -> str:
    """The L1 regime, a key of :data:`~.catalog.CATALOG_LABELS`, by
    precedence: ``"I"`` when h_3 >= h_4 + h_5, else ``"II"`` when
    h_3 >= h_4, else ``"III"``.
    """
    h = profile._hn
    if h[2] >= h[3] + h[4]:
        return "I"
    if h[2] >= h[3]:
        return "II"
    return "III"


# ---------------------------------------------------------------------------
# Exact vertex enumeration and membership.
# ---------------------------------------------------------------------------

def _cross(u, v) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


@lru_cache(maxsize=32)
def _vertex_solvers(planes) -> tuple[int, object, tuple, tuple, tuple, list]:
    """``(D, heads, rest, owner, solvers, types)`` of a set of planes,
    computed once per process.

    ``owner[t]`` is the index of plane t's normal among the distinct
    normals; the itemgetter ``heads`` picks each normal's first plane, and
    ``rest`` holds ``(t, owner[t])`` for every other plane.  ``solvers``
    holds ``(i, j, k, cols, slacks)`` for each nonsingular triple of
    normals.  With offsets b the triple meets in ``n / D``, ``n = b_i
    cols[0] + b_j cols[1] + b_k cols[2]``: ``cols`` are the adjugate's
    columns (cross products of the normals) times D / det, so that every
    vertex has the one denominator D, the lcm of the determinants.  Each
    other normal t has ``(t, *(a_t . c for c in cols))`` in ``slacks``,
    ``a_t . n`` as a form on the offsets.  ``types`` lists the vertex types
    that :func:`enumerate_corners` has found for these planes, most
    recently used first; all callers share it.
    """
    normals = tuple(dict.fromkeys(planes))
    owner = tuple(map(normals.index, planes))
    triples = []
    for i, j, k in combinations(range(len(normals)), 3):
        u, v, w = normals[i], normals[j], normals[k]
        cols = _cross(v, w), _cross(w, u), _cross(u, v)
        if det := sum(map(mul, u, cols[0])):
            triples.append((i, j, k, det, cols))
    D = lcm(*(det for *_, det, _ in triples))
    solvers = []
    for i, j, k, det, cols in triples:
        cols = tuple(tuple(D // det * x for x in c) for c in cols)
        slacks = tuple((t, *(sum(map(mul, a, c)) for c in cols))
                       for t, a in enumerate(normals) if t not in (i, j, k))
        solvers.append((i, j, k, cols, slacks))
    heads = [planes.index(a) for a in normals]
    rest = tuple((t, u) for t, u in enumerate(owner) if t not in heads)
    return D, itemgetter(*heads), rest, owner, tuple(solvers), []


_KEPT_TYPES = 64
"""The most vertex types kept per planes: the least recently used go."""


def _vertex(solver, kb, lb, need):
    """``(n, tight)`` for the point of ``solver``'s triple at the normals'
    offsets ``kb`` (``lb`` = D ``kb``), or None.

    ``tight`` lists the triple's normals, then every other normal tight at
    the point.  None when a slack form falls below its D q b, so the point
    is outside the region, or when a normal of ``need`` is not tight.
    """
    i, j, k, ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2)), slacks = solver
    bi, bj, bk = kb[i], kb[j], kb[k]
    tight = [i, j, k]
    for t, ci, cj, ck in slacks:
        s = ci * bi + cj * bj + ck * bk - lb[t]
        if s < 0:
            return None
        if not s:
            tight.append(t)
    if need and not need.issubset(tight):
        return None
    return (bi * x0 + bj * y0 + bk * z0, bi * x1 + bj * y1 + bk * z1,
            bi * x2 + bj * y2 + bk * z2), tight


def enumerate_corners(region: RateRegion) -> tuple[CornerPoint, ...]:
    """All vertices of the region, exactly.

    Of the planes (constraints, then the coordinate planes) that share a
    normal, only the one with the largest q b can be tight in the region.
    So a triple of distinct normals meets there in ``n / (q D)``, a vertex
    when the other normals' slack forms (:func:`_vertex_solvers`) are all at
    least D q b.  Over the one denominator q D, the integer ``n`` tells
    vertices apart and orders them.  A constraint is tight at a vertex when
    its normal is and its q b is its normal's largest.  Corners come sorted
    by rates, without labels (see :func:`~.catalog.label_corners`).

    A region's type lists, for each of its vertices, one triple meeting
    there and the normals tight there.  The types kept for these planes
    are tried first, most recently used first, and a type that fails moves
    the entry that cut it off to its own front, so the order of the entries
    within a type changes from call to call.  A type is taken when each
    of its triples meets in a point of the region at which its recorded
    normals are tight again, and the points taken, merged where they
    coincide, are then exactly the vertices.  Each is a vertex: three
    independent planes are tight there.  And each vertex v is taken.  The
    type's own region was not empty, so the cones spanned by the tight
    normals of its vertices cover every c whose minimum over it exists:
    the dual of its recession cone, which depends on the normals alone.  So
    one of these cones meets the open normal cone of v, at some c.  The
    point taken for that cone is in the region and tight on every normal
    of the cone, so it minimises c there, and v is the one point that does.
    When no type is taken, every triple is searched, and a region with a
    vertex leaves its type for later calls (an empty type would be taken
    for any region).  The types and their entries only order the work:
    the argument above holds for any order, and the check decides every
    result.
    """
    planes, bs, q = region.planes, region.scaled_b, region.q
    D, heads, rest, owner, solvers, types = _vertex_solvers(planes)
    kb = list(heads(bs))
    for t, u in rest:
        if bs[t] > kb[u]:
            kb[u] = bs[t]
    lb = [D * b for b in kb]
    for u, kept in enumerate(types):
        found = {}
        for i, (solver, need) in enumerate(kept):
            if not (v := _vertex(solver, kb, lb, need)):
                # Rebound, not reordered in place: another caller may be
                # iterating this type.
                types[u] = (kept[i], *kept[:i], *kept[i + 1:])
                break
            found[v[0]] = solver, v[1]
        else:
            if u:
                types.insert(0, types.pop(u))
            break
    else:
        found = {}
        for solver in solvers:
            if v := _vertex(solver, kb, lb, ()):
                found.setdefault(v[0], (solver, v[1]))
        if found:
            types.insert(0, tuple(
                (solver, frozenset(tight[3:])) for solver, tight in found.values()
            ))
            del types[_KEPT_TYPES:]
    rows = [(c.tag, u) for c, u, b in zip(region.constraints, owner, bs)
            if b == kb[u]]
    d = q * D
    return tuple([
        tuple.__new__(CornerPoint, (
            (Fraction(n0, d), Fraction(n1, d), Fraction(n2, d)),
            tuple([tag for tag, u in rows if u in tight]),
            None,
        ))
        for (n0, n1, n2), (_, tight) in sorted(found.items())
    ])


def contains(region: RateRegion, rates: Sequence) -> bool:
    """Exact membership test (each rate coerced to a rational once).

    With ``R = n / p`` over the rates' common denominator ``p``, every
    integer row, coordinate planes included, must have q a . n >= p q b.
    """
    r = tuple(map(_rational, rates))
    if len(r) != 3:
        raise ValueError("expected 3 rates")
    (n0, d0), (n1, d1), (n2, d2) = [x.as_integer_ratio() for x in r]
    p, q = lcm(d0, d1, d2), region.q
    n0, n1, n2 = q * n0 * (p // d0), q * n1 * (p // d1), q * n2 * (p // d2)
    for (a1, a2, a3), b in zip(region.planes, region.scaled_b):
        if a1 * n0 + a2 * n1 + a3 * n2 < p * b:
            return False
    return True


def classify_slacks(
    constraints: Iterable[LinearInequality], rates: Sequence, tol=0
) -> tuple[list[str], list[str]]:
    """Tags of the constraints tight at ``rates`` and of those violated.

    A constraint is tight when ``abs(slack) <= tol`` and violated when not
    ``slack >= -tol``; ``tol`` is 0 for exact rows.  On a float row a NaN
    slack counts as violated; on an exact row a NaN rate raises (see
    :meth:`LinearInequality.evaluate`).
    """
    tight, violated = [], []
    for c in constraints:
        s = c.evaluate(rates)
        if not s >= -tol:
            violated.append(c.tag)
        elif s <= tol:
            tight.append(c.tag)
    return tight, violated


# ---------------------------------------------------------------------------
# JSON serialization.
# ---------------------------------------------------------------------------

def corner_json_dict(corner: CornerPoint) -> dict:
    """JSON-ready form of a corner, each rate printed with ``str`` as it
    is: :func:`enumerate_corners` gives exact ``Fraction``s."""
    return {
        "rates": [str(r) for r in corner.rates],
        "tight": list(corner.tight),
        "label": corner.label,
    }


def region_json_dict(region: RateRegion, corners: Sequence[CornerPoint]) -> dict:
    """JSON-ready form of a region of :func:`build_mld_region` and its
    corners; ``regime`` is None for every ordering but L1."""
    return {
        "ordering": region.ordering.index,
        "regime": (classify_regime(region.profile)
                   if region.ordering == L1 else None),
        "constraints": [{"a": list(c.a), "b": str(c.b), "tag": c.tag}
                        for c in region.constraints],
        "corners": [corner_json_dict(c) for c in corners],
    }
