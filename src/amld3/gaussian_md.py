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
``H(level(S))`` there.  The outer bound subtracts a fixed per-inequality
slack, so the two polyhedra sit within a constant gap of each other
independent of the targets.  A sharper parametric outer bound
with free noise parameters ``d_1 >= ... >= d_6 >= d_7 = 0`` is exposed as
well; choosing ``d_i = D~`` of the level-i decoder makes it at least as
tight as the fixed-slack bound everywhere.

All arithmetic here is float64 with logs base 2; membership tests use an
absolute tolerance of 1e-9.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import sub
from typing import Mapping, NamedTuple, Sequence

from .ordering import (
    SUBSETS,
    Ordering,
    union,
    validate_ordering,
)
from .rate_region import (
    CONSTRAINT_ROWS,
    LinearInequality,
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


class DistortionVector(namedtuple("DistortionVector", "values")):
    """Distortion targets for the 7 decoders, in canonical subset order."""

    __slots__ = ()

    def __new__(cls, values) -> DistortionVector:
        if isinstance(values, Mapping):
            missing = [s for s in SUBSETS if s not in values]
            if missing:
                raise KeyError(f"missing distortion targets for {missing}")
            vals = tuple(float(values[s]) for s in SUBSETS)
        else:
            vals = tuple(float(v) for v in values)
            if len(vals) != 7:
                raise ValueError(f"expected 7 targets, got {len(vals)}")
        for s, v in zip(SUBSETS, vals):
            if not 0.0 < v <= 1.0:
                raise DistortionRangeError(
                    f"D_{s} = {v} is outside (0, 1]"
                )
        return super().__new__(cls, vals)

    def __getitem__(self, subset: str) -> float:
        try:
            return self.values[_POSITION[subset]]
        except (KeyError, TypeError):
            raise ValueError(f"unknown decoder subset {subset!r}") from None

    def as_dict(self) -> dict[str, float]:
        return {s: v for s, v in zip(SUBSETS, self.values)}


def normalize_distortions(D: DistortionVector) -> DistortionVector:
    """Effective targets: D~_S = min over nonempty T <= S of D_T."""
    v = D.values
    mins = tuple([min([v[j] for j in subs]) for subs in _SUB_POSITIONS])
    return DistortionVector._make((mins,))  # D's floats, checked already


def induced_ordering(Dn: DistortionVector) -> Ordering:
    """Decoder ordering induced by normalized targets.

    Levels follow decreasing D~; ``sorted`` is stable, so ties keep
    canonical subset order.
    Raises :class:`NotNormalized` if the input is not normalized and
    :class:`~.ordering.SinglesOutOfOrder` if the single-description targets
    are not sorted (D_G1 >= D_G2 >= D_G3 is required; relabeling
    descriptions is the caller's business).
    """
    if Dn.values != normalize_distortions(Dn).values:
        raise NotNormalized(
            "distortion targets must be normalized first "
            "(see normalize_distortions)"
        )
    return _ranked_ordering(Dn)


def _ranked_ordering(Dn: DistortionVector) -> Ordering:
    """:func:`induced_ordering` of targets the caller has just normalized."""
    ranked = sorted(SUBSETS, key=lambda s: -Dn[s])
    return validate_ordering({s: i + 1 for i, s in enumerate(ranked)})


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
    out = []
    prev = 1.0
    for k in range(1, 8):
        cur = Dn[ordering.inverse_level(k)]
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


def _bound(kind: str, prefix: str, offsets, o, Dn) -> BoundSet:
    cons = tuple(
        LinearInequality(a, b, f"{prefix}-{suffix}")
        for (suffix, a), b in zip(CONSTRAINT_ROWS, offsets)
    )
    return BoundSet(kind, cons, o, Dn)


def _finite(offsets, why: str):
    if all(map(math.isfinite, offsets)):
        return offsets
    raise InvalidFloatInput(f"a bound offset is not finite: {why}")


def _inner_offsets(D: DistortionVector):
    """Normalized targets, their ordering, and the inner offsets: the
    region's generator at r(S) = (1/2) log2(1/D~_S), checked finite."""
    Dn = normalize_distortions(D)
    o = _ranked_ordering(Dn)
    r = {s: 0.5 * math.log2(1.0 / Dn[s]) for s in SUBSETS}
    return Dn, o, _finite(constraint_offsets(r), "a target below ~5.6e-309")


def inner_bound(D: DistortionVector) -> BoundSet:
    """Achievable-side bounds (distortions are normalized internally)."""
    Dn, o, offsets = _inner_offsets(D)
    return _bound("inner", "I", offsets, o, Dn)


def outer_bound(D: DistortionVector) -> BoundSet:
    """Converse-side bounds: the inner b's minus fixed per-row slacks."""
    Dn, o, offsets = _inner_offsets(D)
    return _bound("outer", "O", map(sub, offsets, _SLACK), o, Dn)


# ---------------------------------------------------------------------------
# Parametric outer bound.
# ---------------------------------------------------------------------------

class NoiseParams(namedtuple("NoiseParams", "d")):
    """Auxiliary noise levels d_1 >= ... >= d_6 >= d_7 = 0."""

    __slots__ = ()

    def __new__(cls, d: Sequence[float]) -> NoiseParams:
        vals = tuple(float(x) for x in d)
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
        if not all(vals[i] >= vals[i + 1] for i in range(6)):
            raise NonMonotoneNoise(
                f"noise parameters must be non-increasing, got {vals}"
            )
        return super().__new__(cls, vals)

    @classmethod
    def matched(
        cls, Dn: DistortionVector, ordering: Ordering
    ) -> "NoiseParams":
        """d_i = normalized distortion of the level-i decoder (d_7 = 0)."""
        return cls(
            [Dn[ordering.inverse_level(i)] for i in range(1, 7)]
        )

    def at_level(self, level: int) -> float:
        return self.d[level - 1]


def parametric_outer_bound(
    D: DistortionVector, noise: NoiseParams
) -> BoundSet:
    """Converse bounds with free noise parameters (tags PO-*).

    For every admissible noise choice each bound is valid; at
    ``NoiseParams.matched`` the family dominates :func:`outer_bound`
    row-by-row.  Noise near 1e155 overflows a pair step's products, and an
    offset that is not finite raises :class:`InvalidFloatInput`.
    """
    Dn = normalize_distortions(D)
    o = _ranked_ordering(Dn)
    lv = o.levels
    d = noise.at_level
    lg = math.log2
    singles = ("G1", "G2", "G3")

    def single_factor(g: str, level: int) -> float:
        return lg((1.0 + d(level)) / (Dn[g] + d(level)))

    def pair_step(pair: str, hi: int, lo: int) -> float:
        # Rate carried by decoder `pair` between noise levels lo and hi.
        return lg(
            (1.0 + d(hi)) * (Dn[pair] + d(lo))
            / ((1.0 + d(lo)) * (Dn[pair] + d(hi)))
        )

    def tail(level: int) -> float:
        return lg(
            (Dn["G123"] + d(level)) / ((1.0 + d(level)) * Dn["G123"])
        )

    offsets = [0.5 * lg(1.0 / Dn[g]) for g in singles]
    for gi, gj in (("G1", "G2"), ("G1", "G3"), ("G2", "G3")):
        gij = union(gi, gj)
        m = max(lv[gi], lv[gj])
        offsets.append(0.5 * (
            single_factor(gi, lv[gi])
            + single_factor(gj, lv[gj])
            + lg((Dn[gij] + d(m)) / ((1.0 + d(m)) * Dn[gij]))
        ))
    for gi in singles:
        gj, gk = [g for g in singles if g != gi]
        gij, gik = union(gi, gj), union(gi, gk)
        offsets.append(0.5 * (
            2.0 * single_factor(gi, lv[gi])
            + single_factor(gj, lv[gj])
            + single_factor(gk, lv[gk])
            + pair_step(gij, lv[gij], max(lv[gi], lv[gj]))
            + pair_step(gik, lv[gik], max(lv[gi], lv[gk]))
            + tail(max(lv[gij], lv[gik]))
        ))
    m4 = min(lv["G12"], lv["G3"])
    offsets.append(0.5 * (
        single_factor("G1", lv["G1"])
        + single_factor("G2", lv["G2"])
        + single_factor("G3", m4)
        + pair_step("G12", m4, lv["G2"])
        + tail(m4)
    ))
    if lv["G3"] > lv["G12"]:
        alpha = lv["G3"]
    else:
        alpha = min(lv["G12"], lv["G13"], lv["G23"])
    offsets.append(
        0.5
        * (
            single_factor("G1", lv["G1"])
            + single_factor("G2", lv["G2"])
            + single_factor("G3", lv["G3"])
        )
        + 0.25 * pair_step("G12", alpha, lv["G2"])
        + 0.25 * pair_step("G13", alpha, lv["G3"])
        + 0.25 * pair_step("G23", alpha, lv["G3"])
        + 0.5 * tail(lv["G3"])
    )
    offsets = _finite(offsets, "the targets or noise overflow")
    return _bound("parametric", "PO", offsets, o, Dn)


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


def facet_gap(D: DistortionVector) -> GapReport:
    """Distances between matching inner and outer planes (see GapReport)."""
    _, _, offsets = _inner_offsets(D)
    gap = {
        suffix: (b - bo) / math.sqrt(sum(x * x for x in a))
        for (suffix, a), b, bo in zip(
            CONSTRAINT_ROWS, offsets, map(sub, offsets, _SLACK)
        )
    }
    return GapReport(
        singles=max(gap["1.1"], gap["1.2"], gap["1.3"]),
        pairs=max(gap["2.12"], gap["2.13"], gap["2.23"]),
        weighted_triples=max(gap["3.1"], gap["3.2"], gap["3.3"]),
        sum_rate=(gap["4"], gap["5"]),
    )


def md_contains(
    bound: BoundSet, rates: Sequence[float], tol: float = DEFAULT_TOL
) -> bool:
    """Whether a rate triple satisfies every bound, within tolerance.

    NaN rates are never inside (see :func:`~.rate_region.classify_slacks`).
    """
    r = tuple(float(x) for x in rates)
    if len(r) != 3:
        raise ValueError("expected 3 rates")
    return not classify_slacks(bound.constraints, r, tol)[1]


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
