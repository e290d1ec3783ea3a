"""Distortion-driven rate bounds for the Gaussian 3-description problem.

A unit-variance Gaussian source is described by three encoders; decoder S
(a nonempty subset of descriptions) must meet a mean-squared-error target
``D_S`` in (0, 1].  Targets are first *normalized* — a decoder can always use
the reconstruction of any sub-subset, so effectively
``D~_S = min over T <= S of D_T`` — and the normalized targets induce an
admissible decoder ordering (larger distortion means earlier level).

With ``r(S) = (1/2) log2(1/D~_S)``, the successive-refinement layer rates of
the induced ordering turn the distortion problem into a multilevel diversity
problem.  The inner bound below is the image of the eleven rate-region
inequalities under that reduction: it and the exact region of
:func:`~.rate_region.build_mld_region` call the one generator
:func:`~.rate_region.constraint_offsets`, with ``r(S)`` here and
``H(level(S))`` there, and the one row builder.  The outer bound subtracts
a fixed per-inequality slack, so the two polyhedra sit within a constant
gap of each other independent of the targets.  A sharper parametric outer bound
with free noise parameters ``d_1 >= ... >= d_6 >= d_7 = 0`` is exposed as
well; choosing ``d_i = D~`` of the level-i decoder makes it at least as
tight as the fixed-slack bound everywhere.

What a vector works out once and keeps is listed at
:meth:`DistortionVector.__getattr__`.  All arithmetic here is float64 with
logs base 2; membership tests use an absolute tolerance of 1e-9.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import ge, itemgetter, sub
from typing import Mapping, NamedTuple, Sequence

from .ordering import (
    SUBSETS,
    Ordering,
    enumerate_orderings,
    union,
    validate_ordering,
)
from .rate_region import (
    CONSTRAINT_ROWS,
    LinearInequality,
    _read_only,
    _rows,
    classify_slacks,
    constraint_offsets,
)

DEFAULT_TOL = 1e-9


class DistortionRangeError(ValueError):
    """A distortion target lies outside (0, 1]."""


class InvalidFloatInput(ValueError):
    """A rate, bound offset or tolerance is not finite, or a tolerance < 0."""


class NotNormalized(ValueError):
    """The operation requires normalized (monotone) distortion targets."""


class NonMonotoneNoise(ValueError):
    """Noise parameters must satisfy d_1 >= ... >= d_6 >= d_7 = 0."""


# Canonical position of each subset, and of each subset's nonempty subsets.
_POSITION = {s: i for i, s in enumerate(SUBSETS)}
_SUB_POSITIONS = tuple(
    tuple(_POSITION[t] for t in SUBSETS if union(t, s) == s) for s in SUBSETS
)
# Per subset, a getter of its own target and then its sub-subsets' targets
# (own position first, so even a single returns a tuple to take min of).
_SUB_GETTERS = tuple(itemgetter(i, *p) for i, p in enumerate(_SUB_POSITIONS))


def _parametric_plan(lv) -> tuple:
    """``(p, k)`` of each single factor and tail (the pair step from rank k
    to rank 6, where d_7 = 0), and ``(p, hi, lo)`` of each pair step, that
    :func:`parametric_outer_bound` reads when position p is at 0-based level
    (noise rank) ``lv[p]``; positions 0-6 are G1 G2 G3 G12 G13 G23 G123."""
    k1, k2, k3, k12, k13, k23, _ = lv
    m12, m13, m23, m4 = max(k1, k2), max(k1, k3), max(k2, k3), min(k12, k3)
    alpha = k3 if k3 > k12 else min(k12, k13, k23)
    return (
        ((0, k1), (1, k2), (2, k3), (2, m4)),
        ((3, m12), (4, m13), (5, m23), (6, max(k12, k13)),
         (6, max(k12, k23)), (6, max(k13, k23)), (6, m4), (6, k3)),
        ((3, k12, m12), (4, k13, m13), (5, k23, m23),
         (3, m4, k2), (3, alpha, k2), (4, alpha, k3), (5, alpha, k3)),
    )


# The eight admissible orderings by level sequence of positions, each with
# its parametric plan, fixed here for the ordering's ranks.
_RANKED = {
    tuple(map(_POSITION.get, o.by_level)):
        (o, _parametric_plan(tuple(map(o.by_level.index, SUBSETS))))
    for o in enumerate_orderings()
}


class DistortionVector(namedtuple("DistortionVector", "values")):
    """Distortion targets for the 7 decoders, in canonical subset order.

    What the bounds read off the targets is worked out on first use by
    :meth:`__getattr__` and kept in the vector's ``__dict__``.
    """

    __setattr__ = __delattr__ = _read_only

    def __new__(cls, values) -> DistortionVector:
        if isinstance(values, Mapping):
            missing = [s for s in SUBSETS if s not in values]
            if missing:
                raise KeyError(f"missing distortion targets for {missing}")
            vals = tuple(float(values[s]) for s in SUBSETS)
        else:
            vals = tuple(map(float, values))
            if len(vals) != 7:
                raise ValueError(f"expected 7 targets, got {len(vals)}")
        for s, v in zip(SUBSETS, vals):
            if not 0.0 < v <= 1.0:
                raise DistortionRangeError(f"D_{s} = {v} is outside (0, 1]")
        return tuple.__new__(cls, (vals,))

    def __getattr__(self, name: str):
        """Work out one fact of the targets on first use, and keep it unless
        that raises.  ``_norm`` is D~, by position the least target over
        each subset's sub-subsets, as a vector, or None when that is this
        vector (so none holds a reference to itself).  The others are facts
        of D~: ``_ranked`` is (ordering, its parametric plan), from the
        positions stable-sorted by descending target, so ties keep canonical
        order (a sequence that is none of the eight orderings breaks an
        axiom, and :func:`~.ordering.validate_ordering` raises its error);
        ``_inner`` is the inner offsets, the region's generator at
        r(S) = (1/2) log2(1/D~_S), checked finite (it returns twice the
        offsets, so it is fed r(S) / 2)."""
        t = self.values
        if name == "_norm":
            n, value = tuple([min(get(t)) for get in _SUB_GETTERS]), None
            if n != t:
                value = DistortionVector._make((n,))
                value.__dict__["_norm"] = None  # normalizing is idempotent
        elif name not in ("_ranked", "_inner"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        elif self._norm is not None:
            value = getattr(self._norm, name)
        elif name == "_ranked":
            seq = tuple(sorted(range(7), key=t.__getitem__, reverse=True))
            value = _RANKED.get(seq)
            if value is None:
                validate_ordering({SUBSETS[j]: k
                                   for k, j in enumerate(seq, 1)})
        else:
            self._ranked  # an ordering's error comes before an offset's
            r = [0.25 * math.log2(1.0 / x) for x in t]
            value = _finite(constraint_offsets(dict(zip(SUBSETS, r))),
                            "a target below ~5.6e-309")
        self.__dict__[name] = value
        return value

    def __getitem__(self, subset: str) -> float:
        try:
            return self.values[_POSITION[subset]]
        except (KeyError, TypeError):
            raise ValueError(f"unknown decoder subset {subset!r}") from None

    def as_dict(self) -> dict[str, float]:
        return {s: v for s, v in zip(SUBSETS, self.values)}


def normalize_distortions(D: DistortionVector) -> DistortionVector:
    """Effective targets: D~_S = min over nonempty T <= S of D_T (``D``
    itself when it is normalized)."""
    return D._norm or D


def induced_ordering(Dn: DistortionVector) -> Ordering:
    """Decoder ordering induced by normalized targets.

    Levels follow decreasing D~; ``sorted`` is stable, so ties keep
    canonical subset order.
    Raises :class:`NotNormalized` if the input is not normalized and
    :class:`~.ordering.SinglesOutOfOrder` if the single-description targets
    are not sorted (D_G1 >= D_G2 >= D_G3 is required; relabeling
    descriptions is the caller's business).
    """
    if Dn._norm is not None:
        raise NotNormalized(
            "distortion targets must be normalized first "
            "(see normalize_distortions)"
        )
    return Dn._ranked[0]


def sr_layer_rates(
    Dn: DistortionVector, ordering: Ordering
) -> tuple[float, ...]:
    """Layer rates of the refinement decomposition along the ordering.

    h'_k = (1/2) log2(D~ at level k-1 / D~ at level k), with the level-0
    distortion defined as 1.  All values are non-negative when the ordering
    is the one induced by ``Dn``.  A ratio that overflows a float (a target
    below ~5.6e-309 times the one before it) raises
    :class:`InvalidFloatInput`.
    """
    out, prev = [], 1.0
    for k, s in enumerate(ordering.by_level, start=1):
        cur = Dn.values[_POSITION[s]]
        if cur > prev:
            raise NotNormalized(
                f"distortion increases from level {k - 1} to {k}; "
                "the ordering does not match the targets"
            )
        out.append(0.5 * math.log2(prev / cur))
        if not math.isfinite(out[-1]):
            raise InvalidFloatInput(f"layer rate h'_{k} is not finite")
        prev = cur
    return tuple(out)


# ---------------------------------------------------------------------------
# Inner and outer bounds.
# ---------------------------------------------------------------------------

# Outer-bound slack of each row, in CONSTRAINT_ROWS order.
_SLACK = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 2.0, 4.5)


class BoundSet(NamedTuple):
    """A family of linear rate bounds a . R >= b at fixed distortions."""

    kind: str
    constraints: tuple[LinearInequality, ...]
    ordering: Ordering
    distortions: DistortionVector


_TAGS = {
    p: tuple(f"{p}-{sfx}" for sfx, _ in CONSTRAINT_ROWS)
    for p in ("I", "O", "PO")
}


def _bound(kind: str, prefix: str, offsets, D: DistortionVector) -> BoundSet:
    return tuple.__new__(BoundSet, (kind, _rows(offsets, _TAGS[prefix]),
                                    D._ranked[0], normalize_distortions(D)))


def _finite(offsets, why: str):
    if all(map(math.isfinite, offsets)):
        return offsets
    raise InvalidFloatInput(f"a bound offset is not finite: {why}")


def inner_bound(D: DistortionVector) -> BoundSet:
    """Achievable-side bounds (distortions are normalized internally)."""
    return _bound("inner", "I", D._inner, D)


def outer_bound(D: DistortionVector) -> BoundSet:
    """Converse-side bounds: the inner b's minus fixed per-row slacks."""
    return _bound("outer", "O", map(sub, D._inner, _SLACK), D)


# ---------------------------------------------------------------------------
# Parametric outer bound.
# ---------------------------------------------------------------------------

class NoiseParams(namedtuple("NoiseParams", "d")):
    """Auxiliary noise levels d_1 >= ... >= d_6 >= d_7 = 0."""

    __slots__ = ()

    def __new__(cls, d: Sequence[float]) -> NoiseParams:
        vals = tuple(map(float, d))
        if len(vals) == 6:
            vals = vals + (0.0,)
        if len(vals) != 7:
            raise ValueError("expected 6 or 7 noise parameters")
        if vals[6] != 0.0:
            raise NonMonotoneNoise("d_7 must be exactly 0")
        # Written so that NaN fails every comparison.
        if not all(0.0 <= x < math.inf for x in vals):
            raise NonMonotoneNoise(
                f"noise parameters must be finite and non-negative, got {vals}"
            )
        if not all(map(ge, vals, vals[1:])):
            raise NonMonotoneNoise(
                f"noise parameters must be non-increasing, got {vals}"
            )
        return tuple.__new__(cls, (vals,))

    @classmethod
    def matched(cls, Dn: DistortionVector, ordering: Ordering) -> NoiseParams:
        """d_i = normalized distortion of the level-i decoder (d_7 = 0)."""
        return cls([Dn.values[_POSITION[s]] for s in ordering.by_level[:6]])


def parametric_outer_bound(
    D: DistortionVector, noise: NoiseParams
) -> BoundSet:
    """Converse bounds with free noise parameters (tags PO-*).

    For every admissible noise choice each bound is valid; at
    ``NoiseParams.matched`` the family dominates :func:`outer_bound`
    row-by-row.  Noise near 1e155 overflows a pair step's products, and an
    offset that is not finite raises :class:`InvalidFloatInput`.
    """
    singles, tails, steps = D._ranked[1]
    t = normalize_distortions(D).values
    d = noise.d                 # 0-based, as the ranks: d_k is d[k - 1]
    lg = math.log2
    s1, s2, s3, s4 = [lg((1.0 + d[k]) / (t[p] + d[k])) for p, k in singles]
    w12, w13, w23, w1, w2, w3, w4, w5 = [
        lg((t[p] + d[k]) / ((1.0 + d[k]) * t[p])) for p, k in tails]
    # Rate carried by decoder p between noise ranks lo and hi.
    u12, u13, u23, u4, f12, f13, f23 = [
        lg((1.0 + d[hi]) * (t[p] + d[lo]) / ((1.0 + d[lo]) * (t[p] + d[hi])))
        for p, hi, lo in steps]
    offsets = (
        0.5 * lg(1.0 / t[0]), 0.5 * lg(1.0 / t[1]), 0.5 * lg(1.0 / t[2]),
        0.5 * (s1 + s2 + w12), 0.5 * (s1 + s3 + w13), 0.5 * (s2 + s3 + w23),
        0.5 * (2.0 * s1 + s2 + s3 + u12 + u13 + w1),
        0.5 * (2.0 * s2 + s1 + s3 + u12 + u23 + w2),
        0.5 * (2.0 * s3 + s1 + s2 + u13 + u23 + w3),
        0.5 * (s1 + s2 + s4 + u4 + w4),
        0.5 * (s1 + s2 + s3) + 0.25 * f12 + 0.25 * f13 + 0.25 * f23
        + 0.5 * w5,
    )
    offsets = _finite(offsets, "the targets or noise overflow")
    return _bound("parametric", "PO", offsets, D)


# ---------------------------------------------------------------------------
# Gap report and membership.
# ---------------------------------------------------------------------------

SUM_RATE_GAP_BOUND = 9.0 / (4.0 * math.sqrt(3.0))
"""Reference bound (about 1.2990) on the combined sum-rate facet distance.

Reported for context only; :func:`facet_gap` returns the two raw sum-rate
plane distances rather than asserting this combined figure.
"""


class GapReport(NamedTuple):
    """Normalized plane-to-plane distances between inner and outer bounds.

    Distances are (b_inner - b_outer) / ||a||, constant by construction:
    0 for single-rate planes, 1/sqrt(2) for pair planes, 3/sqrt(6) for the
    doubled-rate planes, and the pair (2/sqrt(3), 4.5/sqrt(3)) for the two
    sum-rate plane families.
    """

    singles: float
    pairs: float
    weighted_triples: float
    sum_rate: tuple[float, float]
    sum_rate_reference: float = SUM_RATE_GAP_BOUND

    def as_dict(self) -> dict:
        return {
            "(1,0,0)": self.singles,
            "(1,1,0)": self.pairs,
            "(2,1,1)": self.weighted_triples,
            "(1,1,1)": list(self.sum_rate),
            "(1,1,1)_reference": self.sum_rate_reference,
        }


# Euclidean norm of each row's normal, in CONSTRAINT_ROWS order.
_NORMS = tuple(math.sqrt(sum(x * x for x in a)) for _, a in CONSTRAINT_ROWS)


def facet_gap(D: DistortionVector) -> GapReport:
    """Distances between matching inner and outer planes (see GapReport)."""
    offsets = D._inner
    # b - (b - s), not s: the distance to the outer offset as rounded.
    gap = [(b - (b - s)) / n for b, s, n in zip(offsets, _SLACK, _NORMS)]
    return GapReport(max(gap[0:3]), max(gap[3:6]), max(gap[6:9]),
                     (gap[9], gap[10]))


def md_contains(
    bound: BoundSet, rates: Sequence[float], tol: float = DEFAULT_TOL
) -> bool:
    """Whether a rate triple satisfies every bound, within tolerance.

    NaN rates are never inside (see :func:`~.rate_region.classify_slacks`),
    and rates of any length but 3 are a ``ValueError``.
    """
    rates = tuple(map(float, rates))
    return not classify_slacks(bound.constraints, rates, tol)[1]


def bound_json_dict(bound: BoundSet) -> dict:
    return {
        "kind": bound.kind,
        "ordering": bound.ordering.index,
        "constraints": [
            {"a": [float(x) for x in c.a], "b": float(c.b), "tag": c.tag}
            for c in bound.constraints
        ],
    }


def distortions_from_json(obj: Mapping) -> DistortionVector:
    """Parse {"D": {"G1": 0.5, ...}} into a DistortionVector; after the
    KeyError for a missing subset, a target that is not a JSON number (an
    int or a float, not a bool) raises ValueError."""
    D = obj.get("D") if isinstance(obj, Mapping) else None
    if not isinstance(D, Mapping):
        raise ValueError("expected an object with a 'D' mapping")
    if all(s in D for s in SUBSETS):  # else DistortionVector's KeyError
        for s in SUBSETS:
            if isinstance(D[s], bool) or not isinstance(D[s], (int, float)):
                raise ValueError(f"D_{s} must be a JSON number, got {D[s]!r}")
    try:
        return DistortionVector(D)
    except OverflowError:  # an int too large for a float
        raise DistortionRangeError("a target is outside (0, 1]") from None
