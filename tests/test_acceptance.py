"""Acceptance gate: the eight headline guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion with its elapsed time.  Each criterion also
enforces its own wall-clock budget.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import gcd, sqrt

import numpy as np

import _oracles
from amld3 import (
    EntropyProfile,
    NoiseParams,
    Ordering,
    DistortionVector,
    build_mld_region,
    classify_regime,
    contains,
    enumerate_corners,
    enumerate_orderings,
    facet_gap,
    induced_ordering,
    inner_bound,
    instantiate_scheme,
    outer_bound,
    parametric_outer_bound,
    random_bundle,
    sr_layer_rates,
    encode,
    decode,
    restrict,
    template_name_for_label,
    TEMPLATES,
)
from amld3.ordering import SUBSETS, L1

F = Fraction


@contextmanager
def criterion(n: int, desc: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] FAIL — {desc} ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"[criterion {n}] {verdict} — {desc} ({elapsed:.2f}s)")
    assert elapsed < budget, (
        f"criterion {n} exceeded its {budget}s budget: {elapsed:.2f}s"
    )


# ---------------------------------------------------------------------------
# 1. Symbolic region equivalence.
# ---------------------------------------------------------------------------

def test_criterion_1_symbolic_region_equivalence():
    with criterion(1, "the 11 region inequalities of all 8 orderings match "
                      "the frozen coefficient tables symbolically", 1.0):
        # Unit profiles extract every h_k coefficient of every offset; the
        # offsets are then confirmed linear on random rational profiles, so
        # the two checks together pin the symbolic form exactly.
        rng = random.Random(101)
        for index, row in enumerate(_oracles.ORDERING_ROWS, start=1):
            o = Ordering(row)
            table = _oracles.TABLES[index]
            for k in range(7):
                e_k = [0] * 7
                e_k[k] = 1
                region = build_mld_region(o, EntropyProfile(e_k))
                assert [c.tag for c in region.constraints] == list(table)
                for c in region.constraints:
                    a_exp, coeffs = table[c.tag]
                    assert tuple(c.a) == tuple(F(x) for x in a_exp), c.tag
                    assert F(c.b) == F(coeffs[k]), (index, c.tag, k)
            for _ in range(5):
                h = [F(rng.randrange(0, 30), rng.choice((1, 2, 3, 4)))
                     for _ in range(7)]
                region = build_mld_region(o, EntropyProfile(h))
                for c in region.constraints:
                    _, coeffs = table[c.tag]
                    assert F(c.b) == sum(
                        F(ck) * hk for ck, hk in zip(coeffs, h)
                    )


# ---------------------------------------------------------------------------
# 2. Corner-count reproduction.
# ---------------------------------------------------------------------------

def test_criterion_2_corner_reproduction():
    expected_count = {"I": 10, "II": 12, "III": 10}
    with criterion(2, "corner sets at the three representative profiles "
                      "(10/12/10, exact rational match)", 3.0):
        for regime in ("I", "II", "III"):
            t0 = time.perf_counter()
            h = _oracles.REP_PROFILES[regime]
            profile = EntropyProfile(h)
            assert classify_regime(profile) == regime
            corners = enumerate_corners(build_mld_region(L1, profile))
            assert len(corners) == expected_count[regime], regime
            got = {tuple(c.rates) for c in corners}
            from_formulas = {
                tuple(r) for r in _oracles.expected_corners(h).values()
            }
            frozen = {
                tuple(F(x) for x in r)
                for r in _oracles.REP_CORNERS[regime].values()
            }
            assert got == from_formulas == frozen, regime
            assert time.perf_counter() - t0 < 1.0, f"regime {regime} over 1s"


# ---------------------------------------------------------------------------
# 3. Codec roundtrip.
# ---------------------------------------------------------------------------

def _draw_lengths(regime: str, rng: random.Random) -> tuple[int, ...]:
    l = [rng.randrange(0, 4) for _ in range(7)]
    if regime == "I":
        l[2] = l[3] + l[4] + rng.randrange(0, 4)
    elif regime == "II":
        if l[4] == 0:
            l[4] = rng.randrange(1, 4)
        l[2] = l[3] + rng.randrange(0, l[4])
    else:
        l[3] = l[2] + 2 * rng.randrange(1, 4)
    assert _oracles.regime_of(l) == regime, l
    return tuple(l)


def test_criterion_3_codec_roundtrip():
    regime_of_label = {}
    for lbl in [f"X{i}" for i in range(1, 11)]:
        regime_of_label[lbl] = "I"
    for lbl in [f"Y{i}" for i in range(1, 13)]:
        regime_of_label[lbl] = "II"
    for lbl in [f"Z{i}" for i in range(1, 11)]:
        regime_of_label[lbl] = "III"
    rng = random.Random(303)
    nprng = np.random.default_rng(303)
    with criterion(3, "32 catalog schemes x 100 bundles each: bit-exact "
                      "roundtrip at the corner rates", 30.0):
        for label, regime in regime_of_label.items():
            template = TEMPLATES[template_name_for_label(label)]
            for trial in range(100):
                if trial == 0 and regime == "I":
                    lengths = (0,) * 7  # zero-length edge case
                else:
                    lengths = _draw_lengths(regime, rng)
                scheme = instantiate_scheme(template, lengths)
                rates = _oracles.expected_corners(lengths)[label]
                assert scheme.description_lengths == tuple(
                    int(r) for r in rates
                ), (label, lengths)
                bundle = random_bundle(lengths, nprng)
                enc = encode(scheme, bundle)
                assert enc.lengths == scheme.description_lengths
                for subset in SUBSETS:
                    level = L1.level_of(subset)
                    out = decode(scheme, subset, restrict(enc, subset))
                    assert len(out) == level
                    for k in range(level):
                        if not np.array_equal(out[k], bundle.streams[k]):
                            raise AssertionError(
                                f"{label} at {lengths}: decoder {subset} "
                                f"corrupted stream V{k + 1}"
                            )


# ---------------------------------------------------------------------------
# 4. Membership oracle agreement.
# ---------------------------------------------------------------------------

def _draw_profile(regime: str, rng: random.Random) -> list[Fraction]:
    while True:
        h = [F(rng.randrange(0, 25), rng.choice((1, 2, 4))) for _ in range(7)]
        if regime == "I":
            h[2] = h[3] + h[4] + F(rng.randrange(0, 9), rng.choice((1, 2, 4)))
        elif regime == "II":
            if h[4] == 0:
                h[4] = F(rng.randrange(1, 9), rng.choice((1, 2)))
            h[2] = h[3] + F(rng.randrange(0, 4), 4) * h[4]
        else:
            if h[3] == 0:
                h[3] = F(rng.randrange(1, 9), rng.choice((1, 2)))
            h[2] = F(rng.randrange(0, 4), 4) * h[3]
        if _oracles.regime_of(h) == regime:
            return h


def test_criterion_4_membership_oracle_agreement():
    rng = random.Random(404)
    total = 0
    with criterion(4, "contains() agrees with the hull oracle on 100 "
                      "profiles/regime x 1000 queries", 60.0):
        for regime in ("I", "II", "III"):
            for _ in range(100):
                h = _draw_profile(regime, rng)
                region = build_mld_region(L1, EntropyProfile(h))
                corner_rates = list(_oracles.expected_corners(h).values())
                facets = _oracles.hull_facets(corner_rates)
                hi = max((x for r in corner_rates for x in r), default=F(0))
                span = int(hi) + 2

                queries: list[tuple[Fraction, Fraction, Fraction]] = []
                for _ in range(400):
                    queries.append(tuple(
                        F(rng.randrange(0, 16 * span + 1), 16)
                        for _ in range(3)
                    ))
                n = len(corner_rates)
                for _ in range(300):
                    k = rng.randrange(1, min(3, n) + 1)
                    picks = [corner_rates[rng.randrange(n)] for _ in range(k)]
                    w = [rng.randrange(0, 9) for _ in range(k)]
                    if sum(w) == 0:
                        w[0] = 8
                    tw = sum(w)
                    pt = [
                        sum(F(wi, tw) * p[c] for wi, p in zip(w, picks))
                        + F(rng.randrange(0, 8), 16)
                        for c in range(3)
                    ]
                    queries.append(tuple(pt))
                for _ in range(300):
                    base = corner_rates[rng.randrange(n)]
                    delta = F(rng.randrange(1, 17), 16)
                    queries.append(tuple(max(F(0), x - delta) for x in base))

                oracle_in = _oracles.hull_contains_batch(
                    facets,
                    [
                        (
                            int(q[0] * (d := reduce(
                                lambda a, b: a * b // gcd(a, b),
                                (x.denominator for x in q), 1,
                            ))),
                            int(q[1] * d),
                            int(q[2] * d),
                            d,
                        )
                        for q in queries
                    ],
                )
                for q, expect in zip(queries, oracle_in):
                    assert contains(region, q) == expect, (h, q)
                total += len(queries)
        assert total == 300_000


# ---------------------------------------------------------------------------
# 5. Gap constants.
# ---------------------------------------------------------------------------

def _random_l1_distortions(rng: random.Random) -> DistortionVector:
    vals, v = [], 1.0
    for _ in range(7):
        v *= rng.uniform(0.4, 0.95)
        vals.append(v)
    return DistortionVector(vals)


def test_criterion_5_gap_constants():
    rng = random.Random(505)
    with criterion(5, "facet gaps equal 0, 1/sqrt(2), 3/sqrt(6), "
                      "(2, 4.5)/sqrt(3) over 1000 draws", 5.0):
        for _ in range(1000):
            g = facet_gap(_random_l1_distortions(rng))
            assert g.singles == 0.0
            assert abs(g.pairs - 1 / sqrt(2)) <= 1e-9
            assert abs(g.weighted_triples - 3 / sqrt(6)) <= 1e-9
            assert abs(g.sum_rate[0] - 2 / sqrt(3)) <= 1e-9
            assert abs(g.sum_rate[1] - 4.5 / sqrt(3)) <= 1e-9
    # Logged for context, never asserted against the raw distances.
    print(f"  (sum-rate reference constant: {9 / (4 * sqrt(3)):.8f})")


# ---------------------------------------------------------------------------
# 6. Successive-refinement reduction equivalence.
# ---------------------------------------------------------------------------

def _random_distortions_for(ordering, rng: random.Random) -> DistortionVector:
    vals, v = {}, 1.0
    for level in range(1, 8):
        v *= rng.uniform(0.4, 0.95)
        vals[ordering.by_level[level - 1]] = v
    return DistortionVector(vals)


def test_criterion_6_sr_reduction_equivalence():
    rng = random.Random(606)
    rows = enumerate_orderings()
    with criterion(6, "inner bound offsets equal the exact region built "
                      "from the layer rates (1000 draws, all orderings)", 5.0):
        for i in range(1000):
            o = rows[i % len(rows)]
            D = _random_distortions_for(o, rng)
            assert induced_ordering(D) == o
            inner = inner_bound(D)
            h = sr_layer_rates(D, o)
            region = build_mld_region(o, EntropyProfile(h))
            for cm, ci in zip(region.constraints, inner.constraints):
                assert tuple(float(x) for x in cm.a) == tuple(ci.a)
                assert abs(float(cm.b) - ci.b) <= 1e-9, (ci.tag, i)


# ---------------------------------------------------------------------------
# 7. Parametric dominance.
# ---------------------------------------------------------------------------

def test_criterion_7_parametric_dominance():
    rng = random.Random(707)
    rows = enumerate_orderings()
    with criterion(7, "matched-noise parametric offsets dominate the "
                      "fixed outer offsets (1000 draws)", 5.0):
        for i in range(1000):
            o = rows[i % len(rows)]
            D = _random_distortions_for(o, rng)
            po = parametric_outer_bound(D, NoiseParams.matched(D, o))
            out = outer_bound(D)
            for cp, co in zip(po.constraints, out.constraints):
                assert cp.b >= co.b - 1e-9, (cp.tag, i)


# ---------------------------------------------------------------------------
# 8. XOR-necessity witness.
# ---------------------------------------------------------------------------

def test_criterion_8_xor_necessity():
    lengths = (1, 1, 3, 1, 1, 1, 1)
    budgets = (3, 7, 5)
    level_seq = L1.by_level
    with criterion(8, "no concatenation-only scheme reaches the X5 corner "
                      "rates; the XOR scheme does", 60.0):
        # Exhaustive search: nothing concatenation-only fits (3,7,5)...
        assert not _oracles.concat_feasible(level_seq, lengths, budgets)
        # ...and the best possible total is 16 bits, above the corner's 15.
        assert _oracles.concat_min_total(level_seq, lengths) == 16
        assert sum(budgets) == 15
        # Sanity of the search itself: a corner achieved by pure
        # concatenation (the all-in-one layout) is reported feasible.
        assert _oracles.concat_feasible(level_seq, lengths, (1, 6, 9))
        # The XOR scheme meets the budgets and every decoder, bit-exactly.
        scheme = instantiate_scheme(TEMPLATES["X5"], lengths)
        assert scheme.description_lengths == budgets
        nprng = np.random.default_rng(808)
        for _ in range(25):
            bundle = random_bundle(lengths, nprng)
            enc = encode(scheme, bundle)
            for subset in SUBSETS:
                out = decode(scheme, subset, restrict(enc, subset))
                for k in range(L1.level_of(subset)):
                    assert np.array_equal(out[k], bundle.streams[k])
