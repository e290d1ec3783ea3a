"""Unit tests for the exact rate-region machinery."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

import _oracles
from amld3 import (
    CATALOG_LABELS,
    CornerPoint,
    EntropyProfile,
    LinearInequality,
    NegativeEntropy,
    P_TAGS,
    Q_TAGS,
    RateRegion,
    DistortionVector,
    build_mld_region,
    classify_regime,
    classify_slacks,
    contains,
    corner_json_dict,
    enumerate_corners,
    enumerate_orderings,
    label_corners,
    md_contains,
    outer_bound,
    region_json_dict,
)
from amld3.catalog import RATE_FORMS, TEMPLATES, _label_triples
from amld3.catalog import template_name_for_label
from amld3.ordering import L1
from amld3.rate_region import _vertex_solvers

F = Fraction
ALL_ONES = EntropyProfile([1] * 7)


def _b_by_tag(region):
    return {c.tag: F(c.b) for c in region.constraints}


# ---------------------------------------------------------------------------
# Profiles and constraint construction.
# ---------------------------------------------------------------------------

def test_profile_parsing_and_cumsums():
    p = EntropyProfile(["1", "1/2", 0.25, F(3, 4), 2, 0, 1])
    assert p.h == (F(1), F(1, 2), F(1, 4), F(3, 4), F(2), F(0), F(1))
    assert p.H[6] == F(11, 2)
    assert p.H[1] == F(3, 2)


def test_profile_rejects_negative_and_wrong_arity():
    with pytest.raises(NegativeEntropy):
        EntropyProfile([1, 1, -1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        EntropyProfile([1, 1, 1])


# One profile, (1/2, 3, 0, 7/4, 1, 1, 2), written in each input kind.
PROFILE_KINDS = {
    "ints-and-fractions": (F(1, 2), 3, 0, F(7, 4), 1, F(1), 2),
    "fractions": (F(1, 2), F(3), F(0), F(7, 4), F(1), F(1), F(2)),
    "floats": (0.5, 3.0, 0.0, 1.75, 1.0, 1.0, 2.0),
    "strings": ("1/2", "3", "0", "7/4", "1", "1.0", " 2 "),
    "all-kinds": ("1/2", 3, 0.0, F(7, 4), True, "1", 2.0),
}


@pytest.mark.parametrize("h", PROFILE_KINDS.values(), ids=PROFILE_KINDS)
def test_profile_accepts_ints_fractions_floats_and_strings(h):
    p = EntropyProfile(h)
    assert p.h == (F(1, 2), F(3), F(0), F(7, 4), F(1), F(1), F(2))
    assert all(type(x) is Fraction for x in p.h)
    assert (p._L, p._hn, p._Hn) == (
        4, (2, 12, 0, 7, 4, 4, 8), (2, 14, 14, 21, 25, 29, 37)
    )


@pytest.mark.parametrize("bad, shown", [
    (-1, "-1"), (F(-3, 4), "-3/4"), (-0.75, "-3/4"), ("-3/4", "-3/4"),
    (F(-1, 2**70), f"-1/{2**70}"), (f"-1/{2**70}", f"-1/{2**70}"),
], ids=["int", "fraction", "float", "string", "tiny", "tiny-string"])
def test_negative_entropy_names_the_first_negative_layer(bad, shown):
    h = [1, 0, 1, 1, bad, 1, -5]
    with pytest.raises(NegativeEntropy) as e:
        EntropyProfile(h)
    assert str(e.value) == f"h_5 = {shown} is negative"


def test_eleven_constraints_fixed_tag_order():
    region = build_mld_region(L1, ALL_ONES)
    assert tuple(c.tag for c in region.constraints) == Q_TAGS
    for o in enumerate_orderings()[1:]:
        r = build_mld_region(o, ALL_ONES)
        assert tuple(c.tag for c in r.constraints) == P_TAGS


def test_all_ones_offsets_first_ordering():
    region = build_mld_region(L1, ALL_ONES)
    got = [F(c.b) for c in region.constraints]
    assert got == [1, 2, 3, 5, 6, 8, 13, 14, 15, 11, 11]


def test_coefficient_table_matches_frozen_oracle():
    # Unit profiles extract each h_k coefficient of every offset exactly.
    for k in range(7):
        e_k = [0] * 7
        e_k[k] = 1
        region = build_mld_region(L1, EntropyProfile(e_k))
        for c in region.constraints:
            a_exp, coeffs = _oracles.Q_TABLE[c.tag]
            assert tuple(c.a) == tuple(F(x) for x in a_exp)
            assert F(c.b) == F(coeffs[k]), (c.tag, k)


def test_offsets_are_linear_in_the_profile():
    rng = random.Random(20240817)
    for _ in range(25):
        h = [F(rng.randrange(0, 12), rng.choice((1, 2, 4))) for _ in range(7)]
        region = build_mld_region(L1, EntropyProfile(h))
        for c in region.constraints:
            _, coeffs = _oracles.Q_TABLE[c.tag]
            assert F(c.b) == sum(F(ck) * hk for ck, hk in zip(coeffs, h))


def test_non_first_ordering_hand_values():
    # Seventh row: G1,G2,G12,G3,G13,G23,G123 with all-ones layers.
    o = enumerate_orderings()[6]
    assert o.by_level == ("G1", "G2", "G12", "G3", "G13", "G23", "G123")
    b = _b_by_tag(build_mld_region(o, ALL_ONES))
    assert b["P1.1"] == 1 and b["P1.2"] == 2 and b["P1.3"] == 4
    assert b["P2.12"] == 4      # H_1 + H_3
    assert b["P2.13"] == 6      # H_1 + H_5
    assert b["P3.1"] == 12      # H_1 + H_1 + H_3 + H_7
    assert b["P4"] == 11        # H_1 + H_min(3,4) + H_7
    assert b["P5"] == F(21, 2)  # H_1 + H_2/2 + H_3/2 + H_7


def test_evaluate_slack():
    c = LinearInequality((1, 1, 0), F(5), "P2.12")
    assert c.evaluate((F(2), F(3), F(9))) == 0
    assert c.evaluate((2, 4, 0)) == 1


def test_float_row_slack_is_the_float_sum_bit_for_bit():
    # A float b picks sum(map(mul, a, rates)) - b, compared by repr so that
    # the sign of zero counts, for float, int and Fraction rates alike; an
    # unrolled a1 r1 + a2 r2 + a3 r3 - b differs from it at -0.0.  An int or
    # Fraction b keeps the exact slack, and refuses NaN and inf.
    values = (0.0, -0.0, 2.5, 3, -1, F(1, 3), math.inf, -math.inf, math.nan)
    normals = ((1, 0, 0), (0, 1, 1), (2, 1, 1), (-1, 0, 2))
    for a in normals:
        for b in (0.0, -0.0, 0.75, -1e300, math.inf, math.nan):
            row = LinearInequality(a, b, "t")
            for rates in itertools.product(values, repeat=3):
                want = sum(map(mul, a, rates)) - b
                assert repr(row.evaluate(rates)) == repr(want), (a, b, rates)
        for b in (0, 3, F(-5, 2)):
            row = LinearInequality(a, b, "t")
            for rates in itertools.product(values, repeat=3):
                if all(map(math.isfinite, rates)):
                    got = row.evaluate(rates)
                    assert type(got) is F
                    assert got == sum(map(mul, a, map(F, rates))) - b
                else:
                    with pytest.raises((ValueError, OverflowError)):
                        row.evaluate(rates)


@pytest.mark.parametrize("n", [0, 1, 2, 4])
@pytest.mark.parametrize("kind", [F, float], ids=["exact", "float"])
def test_rates_of_the_wrong_length_are_refused(n, kind):
    # Rows read the rates by position: another length is refused, not cut.
    rates = tuple(kind(x) for x in (1, 4, 7, 9)[:n])
    region = build_mld_region(L1, ALL_ONES)
    bound = outer_bound(DistortionVector([2.0 ** -k for k in range(1, 8)]))
    for rows in (region.constraints, bound.constraints):
        with pytest.raises(ValueError, match="expected 3 rates"):
            rows[0].evaluate(rates)
        with pytest.raises(ValueError, match="expected 3 rates"):
            classify_slacks(rows, rates)
    for seq in (rates, list(rates)):
        with pytest.raises(ValueError, match="expected 3 rates"):
            contains(region, seq)
    with pytest.raises(ValueError, match="expected 3 rates"):
        md_contains(bound, rates)


# ---------------------------------------------------------------------------
# Regime classification.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "h,expected",
    [
        ((1, 1, 3, 1, 1, 1, 1), "I"),
        ((1, 1, 2, 1, 1, 1, 1), "I"),    # boundary h3 = h4 + h5
        ((1, 1, 1, 1, 1, 1, 1), "II"),
        ((1, 1, 3, 2, 2, 1, 1), "II"),
        ((1, 1, 2, 2, 1, 1, 1), "II"),   # boundary h3 = h4
        ((1, 1, 1, 3, 1, 1, 1), "III"),
        ((1, 1, 0, 1, 1, 1, 1), "III"),
    ],
    ids=lambda v: f"Regime.{v}" if isinstance(v, str) else None,
)
def test_classify_regime(h, expected):
    assert classify_regime(EntropyProfile(h)) == expected
    assert _oracles.regime_of(h) == expected


# ---------------------------------------------------------------------------
# Corner enumeration against the frozen closed forms.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_representative_corner_sets(regime):
    profile = EntropyProfile(_oracles.REP_PROFILES[regime])
    assert classify_regime(profile) == regime
    corners = enumerate_corners(build_mld_region(L1, profile))
    got = {tuple(c.rates) for c in corners}
    expected = {
        tuple(F(x) for x in rates)
        for rates in _oracles.REP_CORNERS[regime].values()
    }
    assert got == expected
    assert len(corners) == len(expected)


@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_labeling_of_representative_corners(regime):
    profile = EntropyProfile(_oracles.REP_PROFILES[regime])
    corners = enumerate_corners(build_mld_region(L1, profile))
    labeled = label_corners(corners, profile)
    got = {c.label: tuple(c.rates) for c in labeled}
    assert got == {
        lbl: tuple(F(x) for x in rates)
        for lbl, rates in _oracles.REP_CORNERS[regime].items()
    }


def test_every_corner_has_at_least_three_tight_planes():
    for regime in ("I", "II", "III"):
        profile = EntropyProfile(_oracles.REP_PROFILES[regime])
        region = build_mld_region(L1, profile)
        for c in enumerate_corners(region):
            zeros = sum(1 for r in c.rates if r == 0)
            assert len(c.tight) + zeros >= 3, c


def test_all_ones_merges_coinciding_corners():
    region = build_mld_region(L1, ALL_ONES)
    corners = enumerate_corners(region)
    assert len(corners) == 10
    labeled = label_corners(corners, ALL_ONES)
    by_label = {c.label: c for c in labeled}
    assert set(by_label) == {
        "Y1", "Y2", "Y3", "Y4", "Y5", "Y6",
        "Y7+Y8", "Y9+Y11", "Y10", "Y12",
    }
    assert tuple(by_label["Y7+Y8"].rates) == (2, 3, 6)
    assert tuple(by_label["Y9+Y11"].rates) == (2, 5, 4)
    assert tuple(by_label["Y1"].rates) == (1, 4, 7)
    assert set(by_label["Y1"].tight) == {"Q1", "Q4", "Q7"}
    # Merged labels cover the full 12-label catalog.
    covered = {part for c in labeled for part in c.label.split("+")}
    assert covered == set(CATALOG_LABELS["II"])


def test_zero_profile_collapses_to_origin():
    profile = EntropyProfile([0] * 7)
    for order in enumerate_orderings():
        region = build_mld_region(order, profile)
        corners = enumerate_corners(region)
        assert len(corners) == 1
        assert corners[0].rates == (0, 0, 0)
        assert set(corners[0].tight) == set(Q_TAGS if order == L1 else P_TAGS)
        assert [(c.rates, c.tight) for c in corners] == (
            _oracles.reference_corners(
                (c.a, c.b, c.tag) for c in region.constraints
            )
        )


# Correct regions with fewer than three vertices: at every ordering, h1
# alone or h2 alone gives one point and h6 alone a segment.
@pytest.mark.parametrize("h, rates", [
    ((1, 0, 0, 0, 0, 0, 0), (1, 1, 1)),
    ((0, 4, 0, 0, 0, 0, 0), (0, 4, 4)),
])
def test_one_vertex_regions(h, rates):
    for order in enumerate_orderings():
        region = build_mld_region(order, EntropyProfile(h))
        got = [(c.rates, c.tight) for c in enumerate_corners(region)]
        assert got == _oracles.reference_corners(
            (c.a, c.b, c.tag) for c in region.constraints
        )
        assert got == [(rates, tuple(c.tag for c in region.constraints))]


def test_two_vertex_regions():
    profile = EntropyProfile((0, 0, 0, 0, 0, 1, 0))
    for order in enumerate_orderings():
        region = build_mld_region(order, profile)
        got = [(c.rates, c.tight) for c in enumerate_corners(region)]
        assert len(got) == 2
        assert got == _oracles.reference_corners(
            (c.a, c.b, c.tag) for c in region.constraints
        )
    second = build_mld_region(enumerate_orderings()[1], profile)
    assert [c.rates for c in enumerate_corners(second)] == [
        (0, 0, 1), (1, 0, 0)
    ]


EDGE_PROFILES = {
    "all zero": (0,) * 7,
    # L = 3 and every offset even over 2L = 6, so q = 3.
    "q below 2L": (F(2, 3), F(4, 3), 2, F(2, 3), 0, F(8, 3), 2),
    "numerators past 2**80": (F(2**80 + 1, 3), 2**81, F(3 * 2**80, 7),
                              2**80, F(2**80 - 1, 9), 5, F(2**82, 11)),
    "every numerator a multiple of 2**80": tuple(
        k * 2**80 for k in (3, 6, 9, 3, 12, 3, 6)
    ),
}


@pytest.mark.parametrize("name", EDGE_PROFILES)
def test_handed_over_integer_rows_equal_the_derived_ones(name):
    # build_mld_region hands the region q and q * b from its integer
    # offsets; the constructor derives them from the rows' Fractions.
    profile = EntropyProfile(EDGE_PROFILES[name])
    for order in enumerate_orderings():
        region = build_mld_region(order, profile)
        derived = RateRegion(region.constraints)
        assert (region.q, region.scaled_b) == (derived.q, derived.scaled_b)
        assert region.planes == derived.planes
        assert all(type(n) is int for n in (region.q, *region.scaled_b))
        assert all(type(c.b) is Fraction for c in region.constraints)
        if name == "q below 2L":
            assert region.q == 3 < 2 * profile._L
        if name == "all zero":
            assert region.q == 1 and not any(region.scaled_b)


def test_corner_scaling_is_homogeneous():
    lam = F(3, 2)
    base = EntropyProfile(_oracles.REP_PROFILES["I"])
    scaled = EntropyProfile([lam * x for x in base.h])
    c0 = enumerate_corners(build_mld_region(L1, base))
    c1 = enumerate_corners(build_mld_region(L1, scaled))
    assert {tuple(lam * r for r in c.rates) for c in c0} == {
        tuple(c.rates) for c in c1
    }


@pytest.mark.parametrize(
    "regime,drop",
    [("I", {"Q9", "Q11"}), ("II", {"Q11"}), ("III", {"Q10"})],
)
def test_inactive_constraints_are_redundant(regime, drop):
    # Strictly inside each regime, the dominated cuts can be removed without
    # changing the region: same corner set either way.
    profile = EntropyProfile(_oracles.REP_PROFILES[regime])
    full = build_mld_region(L1, profile)
    pruned = RateRegion(
        tuple(c for c in full.constraints if c.tag not in drop),
        L1,
        profile,
    )
    assert {tuple(c.rates) for c in enumerate_corners(full)} == {
        tuple(c.rates) for c in enumerate_corners(pruned)
    }


@pytest.mark.parametrize("normal", [(1, F(1, 2), 0), (0.5, 1, 1), ("1", 0, 0)])
def test_region_refuses_non_integer_normals(normal):
    with pytest.raises(ValueError, match="must be integers"):
        RateRegion((LinearInequality(normal, 1, "A"),))
    region = RateRegion((LinearInequality((F(2), 1.0, 0), 1, "A"),))
    assert region.planes[0] == (2, 1, 0)


def test_float_rates_and_offsets_are_read_exactly():
    # As binary floats, 0.3 lies below 3/10 and 0.1 above 1/10, so both
    # points are outside, and every reader of the rows must say so.
    region = build_mld_region(L1, EntropyProfile([F(3, 10)] + [1] * 6))
    rates = (0.3, 100, 100)
    assert not contains(region, rates)
    assert classify_slacks(region.constraints, rates) == ([], ["Q1"])
    region = RateRegion((LinearInequality((1, 0, 0), 0.1, "A"),))
    assert region.constraints[0].b == F(0.1)
    assert type(region.constraints[0].b) is Fraction
    point = (F(1, 10), 0, 0)
    assert not contains(region, point)
    assert classify_slacks(region.constraints, point) == ([], ["A"])


def test_region_refuses_unhashable_normal_entries():
    # Normals are checked when a row is built; an entry that cannot be
    # hashed is refused like any other non-integer.
    with pytest.raises(ValueError, match="must be integers"):
        RateRegion((LinearInequality(([1], 0, 0), 1, "A"),))


def test_row_normal_is_three_ints():
    with pytest.raises(ValueError, match="3 components"):
        LinearInequality((1, 1), 1, "A")
    for normal in ((math.inf, 0, 0), (0, math.nan, 0), (0, 0, 1 + 1e-9)):
        with pytest.raises(ValueError, match="must be integers"):
            LinearInequality(normal, 1, "A")
    row = LinearInequality([F(2), 1.0, 0], 1, "A")
    assert row.a == (2, 1, 0)
    assert [type(x) for x in row.a] == [int, int, int]


BUILT_FAMILIES = [*_oracles.REP_PROFILES.values(),
                  (1, 1, 3, 2, 1, 1, 1),  # h3 = h4 + h5
                  (1, 1, 2, 2, 1, 1, 1),  # h3 = h4
                  (1, 2, 3, 3, 1, 2, 1)]  # h3 = h4: rows 4 and 5 tie


def test_corner_tables_are_shared_by_all_built_regions():
    # Every build_mld_region region has the same planes, so the vertex
    # solver tables are computed once: a key that varied per region would
    # recompute them on every enumerate_corners call.
    before = _vertex_solvers.cache_info()
    for order in enumerate_orderings():
        for h in BUILT_FAMILIES:
            enumerate_corners(build_mld_region(order, EntropyProfile(h)))
    after = _vertex_solvers.cache_info()
    assert after.currsize - before.currsize <= 1
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 8 * len(BUILT_FAMILIES) - 1


def test_a_second_pass_over_built_regions_runs_no_search():
    # Each search of a nonempty region keeps a new type in the shared list,
    # so a list holding the same types after the second pass shows that
    # every region of that pass was served by a kept type.  A search makes
    # new entries, while a failing type is rebound to its entries reordered,
    # so the types are compared by their entries.
    regions = [build_mld_region(order, EntropyProfile(h))
               for order in enumerate_orderings() for h in BUILT_FAMILIES]
    types = _vertex_solvers(regions[0].planes)[-1]
    first = [enumerate_corners(r) for r in regions]
    kept = list(types)
    assert kept
    assert [enumerate_corners(r) for r in regions] == first
    assert (sorted(id(e) for t in types for e in t)
            == sorted(id(e) for t in kept for e in t))


def test_an_empty_region_leaves_no_type_behind():
    # An empty region has no vertex, so its type would be empty and would
    # pass for every later region of the same planes.
    def region(*offsets):
        return RateRegion(LinearInequality(a, b, f"T{t}") for t, (a, b) in
                          enumerate(zip(normals, offsets)))

    normals = ((0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 0, 0))
    _vertex_solvers.cache_clear()
    assert enumerate_corners(region(0, 0, 0, 1)) == ()
    later = region(3, 2, 3, 0)
    got = [(c.rates, c.tight) for c in enumerate_corners(later)]
    assert got == [((0, 3, 0), ("T0", "T2", "T3"))]
    assert got == _oracles.reference_corners(
        (c.a, c.b, c.tag) for c in later.constraints
    )


def test_corner_oracle_formulas_match_library_on_random_profiles():
    rng = random.Random(11)
    hits = {"I": 0, "II": 0, "III": 0}
    while min(hits.values()) < 5:
        h = [F(rng.randrange(0, 9), rng.choice((1, 2))) for _ in range(7)]
        profile = EntropyProfile(h)
        reg = classify_regime(profile)
        if hits[reg] >= 12:
            continue
        hits[reg] += 1
        expected = {
            tuple(r) for r in _oracles.expected_corners(h).values()
        }
        got = {
            tuple(c.rates)
            for c in enumerate_corners(build_mld_region(L1, profile))
        }
        assert got == expected, h


# ---------------------------------------------------------------------------
# Membership.
# ---------------------------------------------------------------------------

def test_contains_at_corners_and_just_outside():
    eps = F(1, 1000)
    for regime in ("I", "II", "III"):
        profile = EntropyProfile(_oracles.REP_PROFILES[regime])
        region = build_mld_region(L1, profile)
        for c in enumerate_corners(region):
            assert contains(region, c.rates)
            shifted = tuple(r - eps for r in c.rates)
            assert not contains(region, shifted)
            bumped = tuple(r + 1 for r in c.rates)
            assert contains(region, bumped)


def test_contains_rejects_negative_rates():
    region = build_mld_region(L1, ALL_ONES)
    assert not contains(region, (-1, 100, 100))


def test_contains_parses_mixed_inputs():
    region = build_mld_region(L1, ALL_ONES)
    assert contains(region, ("1", F(4), 7.0))
    with pytest.raises(ValueError):
        contains(region, (1, 2))


def _tight(region, rates):
    return tuple(classify_slacks(region.constraints, rates)[0])


def test_tight_constraints_recomputed():
    region = build_mld_region(L1, ALL_ONES)
    assert _tight(region, (1, 4, 7)) == ("Q1", "Q4", "Q7")
    assert _tight(region, (100, 100, 100)) == ()


# ---------------------------------------------------------------------------
# Catalog and serialization.
# ---------------------------------------------------------------------------

def _catalog(h):
    """Label -> rates of the L1 catalog at profile ``h``, in catalog order:
    each label's RATE_FORMS at L * h, over 2L."""
    h = [F(x) for x in h]
    L = math.lcm(*(x.denominator for x in h))
    Lh = [int(L * x) for x in h]
    return {
        label: tuple(F(sum(map(mul, form, Lh)), 2 * L)
                     for form in RATE_FORMS[label])
        for label in CATALOG_LABELS[classify_regime(EntropyProfile(h))]
    }


@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_catalog_entries_are_true_corners(regime):
    h = _oracles.REP_PROFILES[regime]
    region = build_mld_region(L1, EntropyProfile(h))
    corners = {tuple(c.rates): c.tight for c in enumerate_corners(region)}
    catalog = _catalog(h)
    assert list(catalog) == list(CATALOG_LABELS[regime])
    for rates in catalog.values():
        assert rates in corners
        assert corners[rates] == _tight(region, rates)


def test_catalog_at_boundary_keeps_one_entry_per_label():
    catalog = _catalog([1] * 7)
    assert list(catalog) == list(CATALOG_LABELS["II"])
    rates = list(catalog.values())
    assert rates.count((2, 3, 6)) == 2  # Y7 and Y8 coincide here
    assert catalog["Y7"] == catalog["Y8"]


def test_label_corners_leaves_off_catalog_denominators_unlabeled():
    # Labels are read from the tags: a corner tight on no catalog triple
    # (here on nothing, at a rate over 3) stays unlabelled.
    off = CornerPoint((F(1, 3), F(4), F(7)), ())
    on = CornerPoint((F(1), F(4), F(7)), ("Q1", "Q4", "Q7"))
    assert label_corners([off, on], ALL_ONES) == (off, on._replace(label="Y1"))


def test_a_hand_built_corner_is_labelled_by_its_tags():
    # The rates are not read: Y1's triple in any order gives Y1, tags
    # holding Y7's and Y8's triples give the merged label in catalog order,
    # and a tag listed twice names its label once.
    zero = (F(0),) * 3
    got = label_corners([
        CornerPoint(zero, ("Q7", "Q1", "Q4")),
        CornerPoint(zero, ("Q4", "Q7", "Q8", "Q10")),
        CornerPoint(zero, ("Q1", "Q2", "Q3", "Q11")),
        CornerPoint(zero, ("P1.1", "P2.12", "P3.1")),
        CornerPoint(zero, ("Q1", "Q4", "Q1", "Q7")),
        CornerPoint(zero, ["Q1", "Q4", "Q7"]),
    ], ALL_ONES)
    assert [c.label for c in got] == ["Y1", "Y7+Y8", None, None, "Y1", "Y1"]
    assert got[-1].tight == ["Q1", "Q4", "Q7"]


def _description_forms(template):
    """A template's three description lengths as 7-vectors over h, from the
    oracle's piece forms: copies add, an XOR counts its first group."""
    pieces = _oracles.piece_forms(template)
    return [
        tuple(sum(col, F(0)) for col in zip(*(
            pieces[n] for item in desc
            for n in ((item,) if isinstance(item, str) else item[0])
        )))
        for desc in template.layout
    ]


def _always_tight(label):
    """The Q rows tight at the label's corner for every profile: those whose
    normal times the description forms is the row's offset form."""
    rates = _description_forms(TEMPLATES[template_name_for_label(label)])
    return {
        tag for tag, (a, offset) in _oracles.Q_TABLE.items()
        if tuple(sum((x * r[k] for x, r in zip(a, rates)), F(0))
                 for k in range(7)) == tuple(map(F, offset))
    }


def test_each_label_keeps_its_own_nonsingular_always_tight_triple():
    for regime, labels in CATALOG_LABELS.items():
        table = _label_triples(regime)
        # Every key names one label, so no triple is shared in a regime.
        assert all(len(names) == 1 for names in table.values()), regime
        keys = {}
        for key, (label,) in table.items():
            keys.setdefault(label, set()).add(key)
        assert set(keys) == set(labels)
        for label in labels:
            triple = min(keys[label])
            assert len(set(triple)) == 3
            assert keys[label] == set(itertools.permutations(triple)), label
            normals = [_oracles.Q_TABLE[t][0] for t in triple]
            assert _oracles._det3(*normals) != 0, label
            assert set(triple) <= _always_tight(label), label


def test_region_json_shape():
    profile = EntropyProfile((1, 1, 1, 2, 1, 1, 1))
    region = build_mld_region(L1, profile)
    corners = label_corners(enumerate_corners(region), profile)
    doc = region_json_dict(region, corners)
    assert doc["ordering"] == 1
    assert doc["regime"] == "III"
    assert len(doc["constraints"]) == 11
    by_tag = {c["tag"]: c for c in doc["constraints"]}
    assert by_tag["Q7"]["a"] == [2, 1, 1]
    assert by_tag["Q7"]["b"] == "15"
    assert by_tag["Q11"]["b"] == "25/2"
    by_label = {c["label"]: c for c in doc["corners"]}
    assert by_label["Z7"]["rates"] == ["5/2", "7/2", "13/2"]
    assert by_label["Z1"]["rates"] == ["1", "5", "8"]


def test_region_json_for_other_orderings_has_null_regime():
    o = enumerate_orderings()[3]
    region = build_mld_region(o, ALL_ONES)
    doc = region_json_dict(region, enumerate_corners(region))
    assert doc["ordering"] == 4
    assert doc["regime"] is None


def test_corner_json_null_label():
    c = CornerPoint((F(1), F(2), F(3)), ("Q1",))
    doc = corner_json_dict(c)
    assert doc == {"rates": ["1", "2", "3"], "tight": ["Q1"], "label": None}


def test_regions_for_all_eight_orderings_have_corners():
    for o in enumerate_orderings():
        region = build_mld_region(o, ALL_ONES)
        corners = enumerate_corners(region)
        assert corners, o.index
        for c in corners:
            assert contains(region, c.rates)
