"""Unit tests for the distortion-driven rate bounds."""

from __future__ import annotations

import copy
import gc
import hashlib
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from amld3 import (
    BoundSet,
    DistortionRangeError,
    DistortionVector,
    GapReport,
    InvalidFloatInput,
    NoiseParams,
    NonMonotoneNoise,
    NotNormalized,
    SinglesOutOfOrder,
    SUM_RATE_GAP_BOUND,
    bound_json_dict,
    classify_slacks,
    distortions_from_json,
    enumerate_orderings,
    facet_gap,
    induced_ordering,
    inner_bound,
    md_contains,
    normalize_distortions,
    outer_bound,
    parametric_outer_bound,
    sr_layer_rates,
)
from amld3.ordering import SUBSETS, L1, union

LG = math.log2
TOL = 1e-9

DYADIC = DistortionVector([2.0 ** -(k + 1) for k in range(7)])


def _random_l1_targets(rng: random.Random) -> DistortionVector:
    vals = sorted((rng.uniform(0.01, 1.0) for _ in range(7)), reverse=True)
    return DistortionVector(vals)


# ---------------------------------------------------------------------------
# Targets and normalization.
# ---------------------------------------------------------------------------

def test_distortion_vector_accepts_mapping_and_sequence():
    d = DistortionVector({s: 0.5 for s in SUBSETS})
    assert d.values == (0.5,) * 7
    assert d["G13"] == 0.5
    assert d.as_dict() == {s: 0.5 for s in SUBSETS}
    assert DistortionVector([0.5] * 7).values == d.values


def test_distortion_vector_range_checks():
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DistortionRangeError):
            DistortionVector([bad] + [0.5] * 6)
    with pytest.raises(ValueError):
        DistortionVector([0.5] * 6)
    with pytest.raises(KeyError):
        DistortionVector({s: 0.5 for s in SUBSETS[:-1]})
    with pytest.raises(ValueError, match="G4"):
        DistortionVector([0.5] * 7)["G4"]


def test_normalization_takes_minimum_over_subsubsets():
    d = DistortionVector(
        {
            "G1": 0.5, "G2": 0.4, "G3": 0.9,
            "G12": 0.6, "G13": 0.2, "G23": 0.8,
            "G123": 0.7,
        }
    )
    n = normalize_distortions(d)
    assert n["G12"] == 0.4      # capped by G2
    assert n["G13"] == 0.2
    assert n["G23"] == 0.4      # capped by G2, not its own 0.8
    assert n["G123"] == 0.2     # capped by G13
    assert n["G3"] == 0.9       # singles are untouched


def test_normalization_is_idempotent():
    rng = random.Random(99)
    for _ in range(50):
        d = DistortionVector([rng.uniform(0.05, 1.0) for _ in range(7)])
        n = normalize_distortions(d)
        assert normalize_distortions(n).values == n.values


# ---------------------------------------------------------------------------
# Induced orderings.
# ---------------------------------------------------------------------------

def test_each_of_the_eight_orderings_is_induced_by_some_targets():
    for o in enumerate_orderings():
        targets = {
            s: 2.0 ** -o.level_of(s) for s in SUBSETS
        }
        d = DistortionVector(targets)
        assert normalize_distortions(d).values == d.values
        assert induced_ordering(d) == o


def test_ties_break_to_the_first_ordering():
    assert induced_ordering(DistortionVector([0.5] * 7)) == L1


def test_induced_ordering_requires_normalized_input():
    d = DistortionVector(
        {
            "G1": 0.5, "G2": 0.4, "G3": 0.3,
            "G12": 0.45, "G13": 0.2, "G23": 0.2,
            "G123": 0.1,
        }
    )
    with pytest.raises(NotNormalized):
        induced_ordering(d)


def test_induced_ordering_requires_sorted_singles():
    d = DistortionVector(
        {
            "G1": 0.3, "G2": 0.5, "G3": 0.25,
            "G12": 0.25, "G13": 0.2, "G23": 0.2,
            "G123": 0.1,
        }
    )
    assert normalize_distortions(d).values == d.values
    with pytest.raises(SinglesOutOfOrder):
        induced_ordering(d)


# ---------------------------------------------------------------------------
# Refinement layer rates.
# ---------------------------------------------------------------------------

def test_layer_rates_for_dyadic_targets():
    o = induced_ordering(DYADIC)
    assert o == L1
    h = sr_layer_rates(DYADIC, o)
    assert h == pytest.approx((0.5,) * 7, abs=TOL)


def test_layer_rates_sum_telescopes():
    rng = random.Random(4)
    for _ in range(20):
        d = _random_l1_targets(rng)
        h = sr_layer_rates(d, induced_ordering(d))
        assert sum(h) == pytest.approx(0.5 * LG(1.0 / d["G123"]), abs=1e-8)
        assert all(x >= 0 for x in h)


def test_layer_rates_reject_mismatched_ordering():
    other = enumerate_orderings()[6]  # expects G12 before G3
    with pytest.raises(NotNormalized):
        sr_layer_rates(DYADIC, other)


def test_layer_rates_refuse_a_ratio_that_overflows():
    # 0.015625 / 4e-324 overflows to inf, so h'_7 would be infinite.
    tiny = DistortionVector([*DYADIC.values[:6], 4e-324])
    with pytest.raises(InvalidFloatInput, match="h'_7 is not finite"):
        sr_layer_rates(tiny, induced_ordering(tiny))
    near = DistortionVector([*DYADIC.values[:6], 1e-308])
    h = sr_layer_rates(near, induced_ordering(near))
    assert all(map(math.isfinite, h))
    assert h[:6] == (0.5,) * 6


# ---------------------------------------------------------------------------
# Inner and outer bound anchors.
# ---------------------------------------------------------------------------

def test_dyadic_anchor_values():
    inner = inner_bound(DYADIC)
    outer = outer_bound(DYADIC)
    bi = {c.tag: c.b for c in inner.constraints}
    bo = {c.tag: c.b for c in outer.constraints}
    assert bi["I-4"] == pytest.approx(5.5, abs=TOL)
    assert bo["O-2.12"] == pytest.approx(1.5, abs=TOL)
    assert bi["I-1.1"] == pytest.approx(0.5, abs=TOL)
    assert bo["O-1.1"] == pytest.approx(0.5, abs=TOL)  # zero slack
    assert bi["I-3.1"] == pytest.approx(0.5 + 0.5 + 2.0 + 3.5, abs=TOL)
    assert bo["O-3.1"] == pytest.approx(bi["I-3.1"] - 3.0, abs=TOL)
    assert bi["I-5"] == pytest.approx(0.5 + 0.5 + 1.0 + 3.5, abs=TOL)
    assert bo["O-5"] == pytest.approx(bi["I-5"] - 4.5, abs=TOL)


def test_trivial_targets_give_zero_inner_offsets():
    d = DistortionVector([1.0] * 7)
    inner = inner_bound(d)
    for c in inner.constraints:
        assert c.b == pytest.approx(0.0, abs=TOL)


def test_inner_and_outer_share_normals_and_tag_order():
    rng = random.Random(8)
    d = _random_l1_targets(rng)
    inner = inner_bound(d)
    outer = outer_bound(d)
    assert [c.tag for c in inner.constraints] == [
        "I-1.1", "I-1.2", "I-1.3",
        "I-2.12", "I-2.13", "I-2.23",
        "I-3.1", "I-3.2", "I-3.3",
        "I-4", "I-5",
    ]
    for ci, co in zip(inner.constraints, outer.constraints):
        assert ci.a == co.a
        assert co.tag == "O-" + ci.tag.split("-", 1)[1]
        assert co.b <= ci.b + TOL


def test_bounds_normalize_their_input():
    messy = DistortionVector(
        {
            "G1": 0.5, "G2": 0.4, "G3": 0.3,
            "G12": 0.25, "G13": 0.2, "G23": 0.15,
            "G123": 0.9,
        }
    )
    inner = inner_bound(messy)
    assert inner.distortions["G123"] == 0.15  # capped by G23
    assert inner.ordering == L1


def test_capping_a_pair_reorders_the_levels():
    # A raw pair target above its singles is capped to the smaller single,
    # and the tie then places the pair right after that single.
    messy = DistortionVector(
        {
            "G1": 0.5, "G2": 0.4, "G3": 0.3,
            "G12": 0.9, "G13": 0.2, "G23": 0.2,
            "G123": 0.1,
        }
    )
    inner = inner_bound(messy)
    assert inner.distortions["G12"] == 0.4
    assert inner.ordering.by_level == (
        "G1", "G2", "G12", "G3", "G13", "G23", "G123"
    )


# ---------------------------------------------------------------------------
# Gap report.
# ---------------------------------------------------------------------------

def test_gap_constants_are_distortion_independent():
    rng = random.Random(123)
    for _ in range(25):
        D = _random_l1_targets(rng)
        g = facet_gap(D)
        assert g.singles == pytest.approx(0.0, abs=TOL)
        assert g.pairs == pytest.approx(1.0 / math.sqrt(2.0), abs=TOL)
        assert g.weighted_triples == pytest.approx(3.0 / math.sqrt(6.0), abs=TOL)
        assert g.sum_rate[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=TOL)
        assert g.sum_rate[1] == pytest.approx(4.5 / math.sqrt(3.0), abs=TOL)
        # Bit for bit the distances between the two bound sets' planes.
        gap = {
            ci.tag.split("-", 1)[1]:
                (ci.b - co.b) / math.sqrt(sum(x * x for x in ci.a))
            for ci, co in zip(
                inner_bound(D).constraints, outer_bound(D).constraints
            )
        }
        assert g == GapReport(
            singles=max(gap["1.1"], gap["1.2"], gap["1.3"]),
            pairs=max(gap["2.12"], gap["2.13"], gap["2.23"]),
            weighted_triples=max(gap["3.1"], gap["3.2"], gap["3.3"]),
            sum_rate=(gap["4"], gap["5"]),
        )


def test_gap_report_dict_shape():
    g = facet_gap(DYADIC)
    d = g.as_dict()
    assert set(d) == {
        "(1,0,0)", "(1,1,0)", "(2,1,1)", "(1,1,1)", "(1,1,1)_reference",
    }
    assert d["(1,1,1)"] == [g.sum_rate[0], g.sum_rate[1]]
    assert d["(1,1,1)_reference"] == SUM_RATE_GAP_BOUND
    assert SUM_RATE_GAP_BOUND == pytest.approx(9.0 / (4.0 * math.sqrt(3.0)))


# ---------------------------------------------------------------------------
# Golden floats.
# ---------------------------------------------------------------------------

def _digest_targets(count: int, seed: int):
    """Seeded targets over all 8 orderings: per-level ratios that tie, that
    reach 1e-12, or lie in [0.4, 0.95], a level-1 target of 1 in a quarter
    of the draws, and un-normalized pair and triple targets in half."""
    rng = random.Random(seed)
    rows = enumerate_orderings()
    for i in range(count):
        o = rows[i % len(rows)]
        v = 1.0 if rng.random() < 0.25 else rng.uniform(0.5, 1.0)
        vals = {}
        for level in range(1, 8):
            kind = rng.randrange(3) if level > 1 else 0  # 0 keeps v: a tie
            if kind == 1:
                v *= 10.0 ** -rng.uniform(0.0, 12.0)
            elif kind == 2:
                v *= rng.uniform(0.4, 0.95)
            vals[o.by_level[level - 1]] = v
        if rng.random() < 0.5:
            for s in SUBSETS[3:]:
                if rng.random() < 0.5:
                    vals[s] = rng.uniform(vals[s], 1.0)
        yield DistortionVector(vals)


# sha256 of the repr of every inner, outer and matched parametric offset and
# every facet_gap value over _digest_targets(2000, 1010): pins the floats bit
# for bit, where the CLI golden digest sees 12 significant digits.
FLOAT_DIGEST = (
    "94f97447134bc26d3692a99f8f58da5956d88bae28e8ffd850eb3f7fd793e417"
)


def test_bound_floats_match_golden_digest():
    digest = hashlib.sha256()
    for D in _digest_targets(2000, 1010):
        Dn = normalize_distortions(D)
        noise = NoiseParams.matched(Dn, induced_ordering(Dn))
        for bound in (
            inner_bound(D), outer_bound(D), parametric_outer_bound(D, noise)
        ):
            for c in bound.constraints:
                digest.update(repr(c.b).encode())
        g = facet_gap(D)
        for x in (g.singles, g.pairs, g.weighted_triples, *g.sum_rate):
            digest.update(repr(x).encode())
    assert digest.hexdigest() == FLOAT_DIGEST


# Fixed rate triples for the membership verdicts of the structure digest.
DIGEST_RATES = (
    (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 2.0, 3.0),
    (3.0, 3.0, 3.0), (6.0, 4.0, 2.0), (20.0, 20.0, 20.0),
)

# sha256 over _digest_targets(2000, 1010) of what FLOAT_DIGEST leaves out:
# the normalized targets, the induced ordering index, each bound's ordering
# index and each row's normal, tag and types, and md_contains at tol 0 and
# 1e-9 on DIGEST_RATES and on a point 5e-10 below the first row's plane,
# for every bound.
STRUCT_DIGEST = (
    "b241ed81b31dab6e3759d229acfacb314a47464dac1b9444f2884d618aa0d67c"
)


def test_bound_structure_matches_golden_digest():
    digest = hashlib.sha256()
    for D in _digest_targets(2000, 1010):
        Dn = normalize_distortions(D)
        o = induced_ordering(Dn)
        digest.update(repr((Dn.values, o.index)).encode())
        for bound in (inner_bound(D), outer_bound(D),
                      parametric_outer_bound(D, NoiseParams.matched(Dn, o))):
            digest.update(repr((bound.kind, bound.ordering.index)).encode())
            for c in bound.constraints:
                digest.update(repr((
                    type(c).__name__, c.a, tuple(type(x).__name__ for x in c.a),
                    c.tag, type(c.b).__name__,
                )).encode())
            edge = (bound.constraints[0].b - 5e-10, 1e3, 1e3)
            for rates in (*DIGEST_RATES, edge):
                verdicts = (md_contains(bound, rates, tol=0.0),
                            md_contains(bound, rates, tol=1e-9))
                digest.update(repr(verdicts).encode())
    assert digest.hexdigest() == STRUCT_DIGEST


# ---------------------------------------------------------------------------
# Noise parameters and the parametric bound.
# ---------------------------------------------------------------------------

def test_noise_params_validation():
    n = NoiseParams([0.6, 0.5, 0.4, 0.3, 0.2, 0.1])
    assert n.d[6] == 0.0
    assert NoiseParams([0.5, 0.4, 0.3, 0.2, 0.1, 0.0]).d[5] == 0.0
    with pytest.raises(NonMonotoneNoise):
        NoiseParams([0.5, 0.6, 0.4, 0.3, 0.2, 0.1])
    with pytest.raises(NonMonotoneNoise):
        NoiseParams([0.5, 0.4, 0.3, 0.2, 0.1, -0.1])
    with pytest.raises(NonMonotoneNoise):
        NoiseParams([0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01])
    with pytest.raises(ValueError):
        NoiseParams([0.5, 0.4])
    for bad in (math.nan, math.inf):
        with pytest.raises(NonMonotoneNoise):
            NoiseParams([bad, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_matched_noise_reads_levels_off_the_ordering():
    n = NoiseParams.matched(DYADIC, L1)
    assert n.d == (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0)


def _reference_parametric_offsets(Dn, lv, d):
    """Independent transcription of the parametric bound, dict arithmetic."""
    def sf(g):
        return LG((1.0 + d[lv[g]]) / (Dn[g] + d[lv[g]]))

    def sf_at(g, m):
        return LG((1.0 + d[m]) / (Dn[g] + d[m]))

    def ps(pair, hi, lo):
        return LG(
            (1.0 + d[hi]) * (Dn[pair] + d[lo])
            / ((1.0 + d[lo]) * (Dn[pair] + d[hi]))
        )

    def tail(m):
        return LG((Dn["G123"] + d[m]) / ((1.0 + d[m]) * Dn["G123"]))

    out = {}
    for i, g in zip((1, 2, 3), ("G1", "G2", "G3")):
        out[f"PO-1.{i}"] = 0.5 * LG(1.0 / Dn[g])
    for suffix, (gi, gj) in (
        ("2.12", ("G1", "G2")),
        ("2.13", ("G1", "G3")),
        ("2.23", ("G2", "G3")),
    ):
        gij = union(gi, gj)
        m = max(lv[gi], lv[gj])
        out[f"PO-{suffix}"] = 0.5 * (
            sf(gi) + sf(gj) + LG((Dn[gij] + d[m]) / ((1.0 + d[m]) * Dn[gij]))
        )
    for suffix, (gi, gj, gk) in (
        ("3.1", ("G1", "G2", "G3")),
        ("3.2", ("G2", "G1", "G3")),
        ("3.3", ("G3", "G1", "G2")),
    ):
        gij, gik = union(gi, gj), union(gi, gk)
        out[f"PO-{suffix}"] = 0.5 * (
            2.0 * sf(gi) + sf(gj) + sf(gk)
            + ps(gij, lv[gij], max(lv[gi], lv[gj]))
            + ps(gik, lv[gik], max(lv[gi], lv[gk]))
            + tail(max(lv[gij], lv[gik]))
        )
    m4 = min(lv["G12"], lv["G3"])
    out["PO-4"] = 0.5 * (
        sf("G1") + sf("G2") + sf_at("G3", m4)
        + ps("G12", m4, lv["G2"]) + tail(m4)
    )
    alpha = (
        lv["G3"] if lv["G3"] > lv["G12"]
        else min(lv["G12"], lv["G13"], lv["G23"])
    )
    out["PO-5"] = (
        0.5 * (sf("G1") + sf("G2") + sf("G3"))
        + 0.25 * ps("G12", alpha, lv["G2"])
        + 0.25 * ps("G13", alpha, lv["G3"])
        + 0.25 * ps("G23", alpha, lv["G3"])
        + 0.5 * tail(lv["G3"])
    )
    return out


def test_parametric_bound_matches_reference_transcription():
    # Every ordering's plan, at matched noise and at free monotone noise
    # (uniform, or log-uniform over 1e-12..1e2), bit for bit.
    rng = random.Random(2026)
    seen = set()
    for D in _digest_targets(400, 2026):
        Dn = normalize_distortions(D)
        o = induced_ordering(Dn)
        free = sorted((rng.uniform(0.0, 1.0) if rng.random() < 0.5
                       else 10.0 ** rng.uniform(-12.0, 2.0)
                       for _ in range(6)), reverse=True)
        for kind, noise in (("matched", NoiseParams.matched(Dn, o)),
                            ("free", NoiseParams(free))):
            ref = _reference_parametric_offsets(
                Dn.as_dict(), o.levels, dict(enumerate(noise.d, 1)))
            for c in parametric_outer_bound(D, noise).constraints:
                assert repr(c.b) == repr(ref[c.tag]), (D, noise, c.tag)
            seen.add((o.index, kind))
    assert seen == {(i, k) for i in range(1, 9) for k in ("matched", "free")}


def test_parametric_dominates_fixed_outer_at_matched_noise():
    rng = random.Random(17)
    for _ in range(100):
        D = _random_l1_targets(rng)
        o = induced_ordering(D)
        po = parametric_outer_bound(D, NoiseParams.matched(D, o))
        out = outer_bound(D)
        for cp, co in zip(po.constraints, out.constraints):
            assert cp.a == co.a
            assert cp.b >= co.b - TOL, (cp.tag, cp.b, co.b)


def test_parametric_zero_noise_degenerates_to_rate_sums():
    # With every d_i = 0 the pair-step and tail factors vanish and each row
    # collapses to a plain sum of single rates (hand values for the dyadic
    # targets, where r = 0.5, 1.0, 1.5 for the three singles).
    po = parametric_outer_bound(DYADIC, NoiseParams([0.0] * 6))
    b = {c.tag: c.b for c in po.constraints}
    assert b["PO-1.1"] == pytest.approx(0.5, abs=TOL)
    assert b["PO-1.2"] == pytest.approx(1.0, abs=TOL)
    assert b["PO-1.3"] == pytest.approx(1.5, abs=TOL)
    assert b["PO-2.12"] == pytest.approx(1.5, abs=TOL)
    assert b["PO-2.13"] == pytest.approx(2.0, abs=TOL)
    assert b["PO-2.23"] == pytest.approx(2.5, abs=TOL)
    assert b["PO-3.1"] == pytest.approx(3.5, abs=TOL)
    assert b["PO-4"] == pytest.approx(3.0, abs=TOL)
    assert b["PO-5"] == pytest.approx(3.0, abs=TOL)


def test_parametric_works_for_non_first_orderings():
    o = enumerate_orderings()[6]
    D = DistortionVector({s: 2.0 ** -o.level_of(s) for s in SUBSETS})
    po = parametric_outer_bound(D, NoiseParams.matched(D, o))
    out = outer_bound(D)
    assert po.ordering == o
    for cp, co in zip(po.constraints, out.constraints):
        assert cp.b >= co.b - TOL


# ---------------------------------------------------------------------------
# Membership and serialization.
# ---------------------------------------------------------------------------

def test_bounds_refuse_offsets_that_overflow():
    # Below about 5.6e-309, 1/D overflows; noise near 1e155 overflows the
    # products of a pair step.  Either would give an infinite or NaN offset.
    tiny = DistortionVector([*DYADIC.values[:6], 4e-324])
    huge = NoiseParams([1e155] * 6)
    for bound in (inner_bound, outer_bound, facet_gap,
                  lambda D: parametric_outer_bound(D, NoiseParams([0.5] * 6))):
        with pytest.raises(InvalidFloatInput, match="not finite"):
            bound(tiny)
    with pytest.raises(InvalidFloatInput, match="not finite"):
        parametric_outer_bound(DYADIC, huge)
    # Just inside the range every offset is finite.
    near = DistortionVector([*DYADIC.values[:6], 1e-308])
    for bound in (inner_bound(near), outer_bound(near),
                  parametric_outer_bound(near, NoiseParams([0.5] * 6)),
                  parametric_outer_bound(DYADIC, NoiseParams([1e150] * 6))):
        assert all(math.isfinite(c.b) for c in bound.constraints)
    assert math.isfinite(facet_gap(near).sum_rate[1])


def test_md_contains_tolerance_edges():
    inner = inner_bound(DYADIC)
    b1 = next(c.b for c in inner.constraints if c.tag == "I-1.1")
    point = (b1, 100.0, 100.0)
    assert md_contains(inner, point)
    assert md_contains(inner, (b1 - 5e-10, 100.0, 100.0))
    assert not md_contains(inner, (b1 - 1e-6, 100.0, 100.0))
    assert md_contains(inner, (b1 - 1e-6, 100.0, 100.0), tol=1e-5)
    with pytest.raises(ValueError):
        md_contains(inner, (1.0, 2.0))


def test_nan_slack_counts_as_violated():
    outer = outer_bound(DYADIC)
    point = (math.nan, 100.0, 100.0)
    tight, violated = classify_slacks(outer.constraints, point, TOL)
    assert tight == []
    assert violated == [c.tag for c in outer.constraints]
    assert not md_contains(outer, point)


def test_outer_contains_inner_corner_like_points():
    rng = random.Random(55)
    for _ in range(20):
        D = _random_l1_targets(rng)
        inner = inner_bound(D)
        outer = outer_bound(D)
        b = {c.tag.split("-", 1)[1]: c.b for c in inner.constraints}
        probe = (b["1.1"], b["1.2"], b["1.3"])
        # Inner singles alone do not guarantee inner membership, but any
        # point meeting the inner bound meets the outer bound too.
        if md_contains(inner, probe):
            assert md_contains(outer, probe)


def _level_targets(rng: random.Random, o, lo: float) -> DistortionVector:
    """Targets that induce ``o``: each level's target is the one below it
    times a factor drawn from (lo, 0.95)."""
    vals, v = {}, 1.0
    for s in o.by_level:
        v *= rng.uniform(lo, 0.95)
        vals[s] = v
    return DistortionVector(vals)


def _inner_corners(D):
    """Every corner of the inner bound, exact over its offsets' Fractions."""
    rows = [(c.a, Fraction(c.b), c.tag) for c in inner_bound(D).constraints]
    return [tuple(map(float, rates))
            for rates, _ in _oracles.reference_corners(rows)]


def test_outer_rows_contain_the_inner_bound():
    # An outer bound must hold every achievable point, so every corner of
    # the inner bound.  Every O row, and every PO row at matched noise
    # but PO-5, does so over all 8 orderings and level factors down to
    # 1e-6.  PO-5 cuts off inner corners for orderings 1-6 (ROADMAP item
    # 14, reproduced below) and is checked for orderings 7 and 8 alone.
    rng = random.Random(14)
    for o in enumerate_orderings():
        for lo in (0.4, 0.05, 1e-3, 1e-6):
            for _ in range(10):
                D = _level_targets(rng, o, lo)
                assert induced_ordering(D) == o
                rows = [*outer_bound(D).constraints,
                        *parametric_outer_bound(D, _matched(D)).constraints]
                if o.index <= 6:
                    rows = [c for c in rows if c.tag != "PO-5"]
                for rates in _inner_corners(D):
                    for c in rows:
                        assert c.evaluate(rates) >= -TOL, (o.index, D, c.tag)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: PO-5 at matched "
                   "noise cuts off points of the inner bound")
def test_parametric_bound_contains_an_inner_point():
    D = DistortionVector([0.74372, 0.398031, 0.217024, 0.000644, 0.000163,
                          6.3e-05, 4e-06])
    rates = (2.54, 2.99, 6.66)
    assert md_contains(inner_bound(D), rates)
    assert md_contains(outer_bound(D), rates)
    assert md_contains(parametric_outer_bound(D, _matched(D)), rates)


def test_bound_json_shape():
    doc = bound_json_dict(outer_bound(DYADIC))
    assert doc["kind"] == "outer"
    assert doc["ordering"] == 1
    assert len(doc["constraints"]) == 11
    first = doc["constraints"][0]
    assert first["tag"] == "O-1.1"
    assert first["a"] == [1.0, 0.0, 0.0]
    assert isinstance(first["b"], float)


def test_distortions_from_json():
    d = distortions_from_json({"D": {s: 0.25 for s in SUBSETS}})
    assert d.values == (0.25,) * 7
    with pytest.raises(ValueError):
        distortions_from_json({"targets": {}})
    with pytest.raises(KeyError):
        distortions_from_json({"D": {"G1": 0.5}})
    with pytest.raises(KeyError):  # before the null target is looked at
        distortions_from_json({"D": {"G1": None}})
    for obj in (5, "D", [], {"D": [0.5] * 7}):
        with pytest.raises(ValueError):
            distortions_from_json(obj)
    assert distortions_from_json({"D": {s: 1 for s in SUBSETS}}).values == (
        (1.0,) * 7
    )
    for bad in (None, [0.5], {"x": 0.5}, "0.5", True):
        with pytest.raises(ValueError, match="D_G13 must be a JSON number"):
            distortions_from_json({"D": {**dict.fromkeys(SUBSETS, 0.5),
                                         "G13": bad}})
    with pytest.raises(DistortionRangeError):
        distortions_from_json({"D": dict.fromkeys(SUBSETS, 10**400)})


# ---------------------------------------------------------------------------
# Facts kept in the vector.
# ---------------------------------------------------------------------------

def _matched(D):
    Dn = normalize_distortions(D)
    return NoiseParams.matched(Dn, induced_ordering(Dn))


# Every public call that reads a vector's kept facts, by name.
CALLS = {
    "normalize": normalize_distortions,
    "induced": lambda D: induced_ordering(normalize_distortions(D)),
    "inner": inner_bound,
    "outer": outer_bound,
    "parametric": lambda D: parametric_outer_bound(D, _matched(D)),
    "gap": facet_gap,
}


@st.composite
def kept_fact_targets(draw):
    """Targets non-increasing along one of the 8 orderings, with ties and
    with steps of 1e-160 (two of them overflow an inner offset), with some
    pair and triple targets raised (so not normalized) in some draws, and
    with the singles swapped out of order in others."""
    o = draw(st.sampled_from(enumerate_orderings()))
    v, vals = draw(st.sampled_from((1.0, 0.75))), {}
    for level in range(1, 8):
        v *= draw(st.sampled_from((1.0, 0.5, 0.9, 1e-6, 1e-160)))
        v = max(v, 5e-324)
        vals[o.by_level[level - 1]] = v
    for s in SUBSETS[3:]:
        if draw(st.booleans()):
            vals[s] = draw(st.floats(vals[s], 1.0))
    if draw(st.integers(0, 7)) == 0:
        vals["G1"], vals["G3"] = vals["G3"], vals["G1"]
    return [vals[s] for s in SUBSETS]


def _outcome(call, D):
    """A call's result, or its exception's type and message."""
    try:
        return call(D)
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(values=kept_fact_targets(),
       order=st.permutations(sorted(CALLS)), repeats=st.integers(1, 2))
def test_kept_facts_change_no_result(values, order, repeats):
    shared = DistortionVector(values)
    for name in order * repeats:
        got = _outcome(CALLS[name], shared)
        want = _outcome(CALLS[name], DistortionVector(values))
        assert got == want and repr(got) == repr(want), name
    assert shared == DistortionVector(values)


@pytest.mark.parametrize("singles, levels", [((0.3, 0.5, 0.25), "2, 1, 3"),
                                             ((0.5, 0.25, 0.3), "1, 3, 2")])
def test_singles_out_of_order_raise_on_every_call(singles, levels):
    D = DistortionVector([*singles, 0.2, 0.2, 0.2, 0.1])
    want = ("single-description levels must satisfy L(G1) < L(G2) < L(G3), "
            f"got {levels}")
    for _ in range(3):
        for name in sorted(set(CALLS) - {"normalize"}):
            with pytest.raises(SinglesOutOfOrder) as e:
                CALLS[name](D)
            assert str(e.value) == want, name
    assert normalize_distortions(D) is D
    assert "_ranked" not in D.__dict__ and "_inner" not in D.__dict__


def test_tiny_targets_raise_on_every_call():
    D = DistortionVector([*DYADIC.values[:6], 1e-320])
    for _ in range(3):
        for bound in (inner_bound, facet_gap, outer_bound):
            with pytest.raises(InvalidFloatInput) as e:
                bound(D)
            assert str(e.value) == (
                "a bound offset is not finite: a target below ~5.6e-309")
    assert "_inner" not in D.__dict__
    assert induced_ordering(D) == L1  # the ordering was fine, and is kept


def test_induced_ordering_still_refuses_a_vector_normalized_before():
    D = DistortionVector([0.5, 0.4, 0.3, 0.45, 0.2, 0.2, 0.1])
    Dn = normalize_distortions(D)
    assert Dn != D and normalize_distortions(D) is Dn
    for _ in range(2):
        with pytest.raises(NotNormalized, match="must be normalized first"):
            induced_ordering(D)
    assert induced_ordering(Dn) == inner_bound(D).ordering


def test_a_normalized_vector_is_its_own_normal_form():
    D = DistortionVector([0.5, 0.4, 0.3, 0.45, 0.2, 0.2, 0.1])
    Dn = normalize_distortions(D)
    for v in (Dn, DistortionVector(Dn.values), DYADIC):
        assert normalize_distortions(v) is v
        assert normalize_distortions(normalize_distortions(v)) is v
    for bound in (inner_bound(D), outer_bound(D), parametric_outer_bound(
            D, _matched(D))):
        assert bound.distortions is Dn
    assert inner_bound(DYADIC).distortions is DYADIC


def test_kept_facts_leave_identity_copies_and_pickles_alone():
    values = [0.5, 0.4, 0.3, 0.45, 0.2, 0.2, 0.1]
    fresh, used = DistortionVector(values), DistortionVector(values)
    for call in CALLS.values():
        call(used)
    assert used.__dict__ and not fresh.__dict__
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == (
        "DistortionVector(values=(0.5, 0.4, 0.3, 0.45, 0.2, 0.2, 0.1))")
    for other in (copy.copy(used), pickle.loads(pickle.dumps(used)),
                  copy.deepcopy(used)):
        assert other == fresh and hash(other) == hash(fresh)
        assert repr(other) == repr(fresh)
        for call in CALLS.values():
            assert call(other) == call(fresh)
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        used.missing
    with pytest.raises(AttributeError, match="cannot assign"):
        used._norm = None


def test_no_vector_keeps_a_reference_to_itself():
    D = DistortionVector([0.5, 0.4, 0.3, 0.45, 0.2, 0.2, 0.1])
    for call in CALLS.values():
        call(D)
    Dn = normalize_distortions(D)
    for v in (D, Dn, DYADIC):
        for call in CALLS.values():
            call(v)
        assert not any(x is v for x in gc.get_referents(v.__dict__))
    assert Dn.__dict__["_norm"] is None and D.__dict__["_norm"] is Dn
