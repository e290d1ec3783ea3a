"""Property tests against the oracles of ``_oracles``.

The exact region is checked against the frozen coefficient tables, with
expected values from direct ``Fraction`` arithmetic on them; no library call
enters them.  Its slacks, tight tags and membership verdicts are checked
against the oracle's term-by-term slack at exact rates given as ints,
``Fraction``s or a mix, in tuples and lists, and its integer rows against
the tables' offsets.  On built regions and on regions given int,
``Fraction``, float or ``"a/b"`` offsets, rates of all four types are read
exactly by every reader of the rows, which also raise alike on NaN and inf.  Its corners are checked against the closed-form L1
catalog and against the reference Cramer enumerator, on full and pruned
regions, on profiles whose planes coincide and on directly built regions,
each test clearing the vertex tables first so that a failing example
replays alike, and exact membership equals the verdict of the eleven
constraint rows alone.
Plan-based decode, on arrays and on packed bytes, is checked against the
bit-level decoder on random hand-built schemes and random description bits,
and every catalog template either round-trips a random bundle or refuses its
lengths with a documented error.  The packed replays are checked against the
array replays and the bit-level decoder on every catalog label, with the
padding bits of their inputs set, and ``encode_packed`` against ``encode``
on random hand-built schemes too.  Gaussian targets are normalized and
ranked as the oracle's normalizer and ranker do, and the matched-noise
parametric bound dominates the fixed-slack outer bound on all of them.  On
tie-heavy dyadic targets the induced ordering of every bound is the sorting
oracle's, or the same axiom error as ``validate_ordering`` gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _oracles
from amld3 import (
    ALL_SCHEME_LABELS,
    CATALOG_LABELS,
    L1,
    TEMPLATES,
    DescriptionScheme,
    DistortionVector,
    EntropyProfile,
    LengthMismatch,
    LinearInequality,
    NoiseParams,
    OddSplit,
    Ordering,
    Piece,
    RateRegion,
    RegimeMismatch,
    SourceBundle,
    Unresolvable,
    Xor,
    build_mld_region,
    classify_regime,
    classify_slacks,
    compose_time_share,
    contains,
    decode,
    decode_packed,
    encode,
    encode_packed,
    enumerate_corners,
    induced_ordering,
    inner_bound,
    instantiate_scheme,
    label_corners,
    normalize_distortions,
    outer_bound,
    pack_bits,
    parametric_outer_bound,
    random_bundle,
    restrict,
    template_name_for_label,
    unpack_bits,
    validate_ordering,
)
from amld3.catalog import RATE_FORMS
from amld3.codec import decode_plan
from amld3.ordering import SUBSETS, subset_members
from amld3.rate_region import AXES, _vertex_solvers

F = Fraction
# Numerators above 2**62 leave the int64 range of the hull oracle's fast path.
NUMERATORS = st.one_of(st.integers(0, 40), st.integers(2**62, 2**80))


@st.composite
def profiles(draw):
    """Seven rational entropies, often pinned to an L1 regime boundary."""
    h = [F(draw(NUMERATORS), draw(st.integers(1, 12))) for _ in range(7)]
    boundary = draw(st.sampled_from(("none", "h3 = h4 + h5", "h3 = h4")))
    if boundary == "h3 = h4 + h5":
        h[2] = h[3] + h[4]
    elif boundary == "h3 = h4":
        h[2] = h[3]
    return h


def _expected_offsets(table, h):
    return [
        sum(F(c) * x for c, x in zip(coeffs, h))
        for _, coeffs in table.values()
    ]


@settings(max_examples=300, deadline=None)
@given(index=st.integers(1, 8), h=profiles(), data=st.data())
def test_offsets_and_slack_tags_match_oracle_tables(index, h, data):
    table = _oracles.TABLES[index]
    region = build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )
    b = _expected_offsets(table, h)
    assert [c.tag for c in region.constraints] == list(table)
    assert [c.b for c in region.constraints] == b

    # Rates built from the offsets land on constraint planes often enough to
    # exercise the tight tags as well as the violated ones.
    pool = [F(0), *b, b[3] - b[0], b[3] - b[1], b[4] - b[2], b[5] - b[1]]
    coord = st.one_of(
        st.sampled_from(pool),
        st.fractions(min_value=0, max_value=2**81),
        st.integers(0, 2**81),
    )
    rates = tuple(data.draw(coord) for _ in range(3))
    slacks = [
        sum(F(a) * r for a, r in zip(normal, rates)) - bt
        for (normal, _), bt in zip(table.values(), b)
    ]
    got = [c.evaluate(rates) for c in region.constraints]
    assert got == slacks
    assert all(type(s) is Fraction for s in got)
    tags = list(table)
    assert classify_slacks(region.constraints, rates) == (
        [t for t, s in zip(tags, slacks) if s == 0],
        [t for t, s in zip(tags, slacks) if s < 0],
    )


@st.composite
def exact_rates(draw, pool):
    """Three exact rates, all ints, all ``Fraction``s or a mix, in a tuple
    or a list; ``pool`` holds values that land on the rows' planes."""
    ints = st.one_of(
        st.sampled_from([int(x) for x in pool if x.denominator == 1] or [0]),
        st.integers(-40, 40),
        st.integers(2**62, 2**81),
    )
    fractions = st.one_of(
        st.sampled_from(pool),
        st.fractions(min_value=-(2**81), max_value=2**81),
        st.builds(F, NUMERATORS, st.integers(1, 2**64)),
    )
    kind = draw(st.sampled_from(("ints", "fractions", "mix")))
    if kind == "mix":
        coords = draw(st.permutations(
            [ints, fractions, st.one_of(ints, fractions)]))
    else:
        coords = [ints if kind == "ints" else fractions] * 3
    rates = [draw(c) for c in coords]
    return rates if draw(st.booleans()) else tuple(rates)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(1, 8), h=profiles(), data=st.data())
def test_exact_slack_and_membership_match_the_oracle_slack(index, h, data):
    # The exact path reads each rational once as integers; every slack must
    # still be the Fraction that term-by-term arithmetic gives.
    table = _oracles.TABLES[index]
    region = build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )
    b = _expected_offsets(table, h)
    pool = [F(0), *b, b[3] - b[0], b[3] - b[1], b[4] - b[2], b[5] - b[1]]
    rates = data.draw(exact_rates(pool))
    normals = [a for a, _ in table.values()]

    def slacks(point):
        return [_oracles.row_slack(a, bt, point) for a, bt in zip(normals, b)]

    # Moved along (1, 1, 1) to where it first meets the region, the point
    # lies on the boundary, with the denominators of rates and offsets mixed.
    t = max(-s / sum(a) for a, s in zip(normals, slacks(rates)))
    edge = type(rates)(r + t for r in rates)
    below = type(rates)(r - F(1, 2**64 + 1) for r in edge)
    for point in (rates, edge, below):
        want = slacks(point)
        got = [c.evaluate(point) for c in region.constraints]
        assert got == want
        assert all(type(s) is Fraction for s in got)
        assert classify_slacks(region.constraints, point)[0] == [
            tag for tag, s in zip(table, want) if s == 0
        ]
        assert contains(region, point) == (
            all(s >= 0 for s in want) and all(r >= 0 for r in point)
        )
    assert contains(region, edge) and not contains(region, below)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(1, 8), h=profiles())
def test_region_integer_rows_match_the_oracle_offsets(index, h):
    table = _oracles.TABLES[index]
    region = build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )
    rebuilt = RateRegion(region.constraints)
    assert (region.q, region.scaled_b) == (rebuilt.q, rebuilt.scaled_b)
    b = _expected_offsets(table, h)
    q = math.lcm(*(x.denominator for x in b))
    assert region.q == q
    assert region.scaled_b == (*(int(x * q) for x in b), 0, 0, 0)
    assert all(type(n) is int for n in region.scaled_b)
    # Offsets given as ints where they are integral give the same rows.
    mixed = RateRegion(
        LinearInequality(c.a, int(c.b) if c.b.denominator == 1 else c.b,
                         c.tag)
        for c in region.constraints
    )
    assert (mixed.q, mixed.scaled_b) == (region.q, region.scaled_b)


@settings(max_examples=300, deadline=None)
@given(index=st.integers(1, 8), h=profiles(), data=st.data())
def test_constraint_rows_alone_decide_membership(index, h, data):
    # Rows 1.1-1.3 read R_i >= H >= 0, so the axis rows that contains()
    # adds never change its verdict: check --h decides from the rows alone.
    region = build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )
    b = [c.b for c in region.constraints]
    coord = st.one_of(
        st.just(F(0)),
        st.sampled_from(b),
        st.sampled_from(b).map(lambda x: -x),
        st.fractions(min_value=-(2**81), max_value=2**81),
    )
    rates = tuple(data.draw(coord) for _ in range(3))
    assert contains(region, rates) == (
        not classify_slacks(region.constraints, rates)[1]
    )


def _catalog_order(label):
    return int(label[1:])


@settings(max_examples=300, deadline=None)
@given(h=profiles())
@example(h=[F(0)] * 7)
@example(h=[F(1), F(2), F(5, 2), F(1), F(3, 2), F(1), F(1, 3)])  # h3 = h4 + h5
@example(h=[F(1), F(1), F(2), F(2), F(1), F(1), F(1)])  # h3 = h4
@example(h=[F(2**65 + 1, 3), F(7), F(2**70), F(2**66, 5), F(2**64 + 3),
            F(0), F(2**80 - 1, 7)])
def test_l1_corners_are_the_closed_form_catalog(h):
    _vertex_solvers.cache_clear()
    profile = EntropyProfile(h)
    region = build_mld_region(L1, profile)
    got = label_corners(enumerate_corners(region), profile)
    labels_at = {}
    for label, rates in _oracles.expected_corners(h).items():
        labels_at.setdefault(rates, []).append(label)
    table = _oracles.TABLES[1]
    b = _expected_offsets(table, h)

    def tight(rates):
        return tuple(
            tag for tag, (normal, _), bt in zip(table, table.values(), b)
            if sum(F(a) * r for a, r in zip(normal, rates)) == bt
        )

    assert [(c.rates, c.tight, c.label) for c in got] == [
        (rates, tight(rates), "+".join(sorted(labels, key=_catalog_order)))
        for rates, labels in sorted(labels_at.items())
    ]
    expected = sorted(
        _oracles.expected_corners(h).items(),
        key=lambda item: _catalog_order(item[0]),
    )
    # Each label's rates are its RATE_FORMS at L * h, over 2L.
    L = math.lcm(*(x.denominator for x in h))
    Lh = [int(L * x) for x in h]
    catalog = [
        (label, rates, tuple(classify_slacks(region.constraints, rates)[0]))
        for label in CATALOG_LABELS[classify_regime(profile)]
        for rates in [tuple(F(sum(map(mul, form, Lh)), 2 * L)
                            for form in RATE_FORMS[label])]
    ]
    assert catalog == [(label, rates, tight(rates)) for label, rates in expected]


@settings(max_examples=200, deadline=None)
@given(
    index=st.integers(1, 8),
    h=profiles(),
    drop=st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, 10))),
)
def test_enumerate_corners_equals_reference_enumerator(index, h, drop):
    _vertex_solvers.cache_clear()
    full = build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )
    region = RateRegion(
        tuple(c for t, c in enumerate(full.constraints) if t not in drop),
        full.ordering,
        full.profile,
    )
    want = _oracles.reference_corners(
        (c.a, c.b, c.tag) for c in region.constraints
    )
    assert [(c.rates, c.tight) for c in enumerate_corners(region)] == want


# h3 = h4 gives rows Q10 and Q11 of L1 one offset, 20 at the first profile,
# so the two rows are one plane; h1 = 0 puts row Q1 on the R1 axis.
TIE_PROFILES = ((1, 2, 3, 3, 1, 2, 1), (0, 2, 3, 1, 1, 2, 1),
                (0, 2, 3, 3, 1, 2, 1))


@pytest.mark.parametrize("h", TIE_PROFILES)
@pytest.mark.parametrize("index", range(1, 9))
def test_enumerate_corners_on_coinciding_planes(index, h):
    _vertex_solvers.cache_clear()
    region = build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )
    got = [(c.rates, c.tight) for c in enumerate_corners(region)]
    assert got == _oracles.reference_corners(
        (c.a, c.b, c.tag) for c in region.constraints
    )
    if index != 1:
        return
    if h[2] == h[3]:
        b = {c.tag: c.b for c in region.constraints}
        assert b["Q10"] == b["Q11"]
        both = [("Q10" in t, "Q11" in t) for _, t in got]
        assert (True, True) in both
        assert all(q10 == q11 for q10, q11 in both)
    if h[0] == 0:
        on_axis = [t for rates, t in got if rates[0] == 0]
        assert on_axis and all("Q1" in t for t in on_axis)


OFFSETS = st.fractions(min_value=-4, max_value=6, max_denominator=3)
NORMALS = st.one_of(
    st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
                     (1, 1, 1), (2, 1, 1), (0, 0, 0))),
    st.tuples(*[st.integers(-2, 2)] * 3),
)


@st.composite
def integer_rows(draw):
    """Rows (normal, offset) with repeated normals, at equal and at other
    offsets, and with doubled normals beside the originals."""
    rows = draw(st.lists(st.tuples(NORMALS, OFFSETS), min_size=1, max_size=5))
    for a, b in list(rows):
        kind = draw(st.sampled_from(("none", "equal", "other", "double")))
        if kind == "equal":
            rows.append((a, b))
        elif kind == "other":
            rows.append((a, draw(OFFSETS)))
        elif kind == "double":
            rows.append((tuple(2 * x for x in a), draw(OFFSETS)))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rows=integer_rows())
def test_enumerate_corners_of_directly_built_regions(rows):
    _vertex_solvers.cache_clear()
    rows = [(a, b, f"T{t}") for t, (a, b) in enumerate(rows)]
    region = RateRegion(LinearInequality(*row) for row in rows)
    assert [(c.rates, c.tight) for c in enumerate_corners(region)] == (
        _oracles.reference_corners(rows)
    )


def _built_region(index, h):
    return build_mld_region(
        Ordering(_oracles.ORDERING_ROWS[index - 1]), EntropyProfile(h)
    )


def _direct_region(rows):
    return RateRegion(
        LinearInequality(a, b, f"T{t}") for t, (a, b) in enumerate(rows)
    )


@st.composite
def direct_families(draw):
    """Direct regions over one list of normals, the zero normal among them,
    at other offsets: a region whose zero-normal offset is positive is
    empty, and all of them share one solver entry."""
    normals = [*draw(st.lists(NORMALS, min_size=1, max_size=5)), (0, 0, 0)]
    return [
        _direct_region([(a, draw(OFFSETS)) for a in normals])
        for _ in range(draw(st.integers(2, 4)))
    ]


REGIONS = st.one_of(
    st.builds(_built_region, st.integers(1, 8), profiles()).map(lambda r: [r]),
    st.builds(_direct_region, integer_rows()).map(lambda r: [r]),
    direct_families(),
)


@settings(max_examples=150, deadline=None)
@given(groups=st.lists(REGIONS, min_size=2, max_size=6), data=st.data())
def test_vertex_types_never_decide_a_result(groups, data):
    # A type found for one region is tried first on the next region of the
    # same planes.  All built regions share one solver entry, and so do the
    # regions of one direct family, empty ones among them, so in a shuffled
    # run types carry over between orderings, profiles, shapes and empty
    # regions; they may only order the work.  Both passes start from fresh
    # tables, in orders of their own.
    _vertex_solvers.cache_clear()
    regions = [r for group in groups for r in group]
    want = [
        _oracles.reference_corners((c.a, c.b, c.tag) for c in r.constraints)
        for r in regions
    ]
    for _ in range(2):
        for t in data.draw(st.permutations(range(len(regions)))):
            got = [(c.rates, c.tight) for c in enumerate_corners(regions[t])]
            assert got == want[t]
        _vertex_solvers.cache_clear()


@settings(max_examples=100, deadline=None)
@given(h=profiles(), warm=st.lists(st.tuples(st.integers(1, 8), profiles()),
                                   max_size=4))
def test_the_order_of_kept_types_never_changes_the_result(h, warm):
    # Kept types and their entries only order the work: with every kept
    # type's entries and the list of types rotated by each shift in turn,
    # the corners of all eight orderings are the reference's.
    _vertex_solvers.cache_clear()
    regions = [_built_region(index, h) for index in range(1, 9)]
    for index, g in warm:
        enumerate_corners(_built_region(index, g))
    first = [(c.rates, c.tight) for r in regions for c in enumerate_corners(r)]
    types = _vertex_solvers(regions[0].planes)[-1]
    want = [
        _oracles.reference_corners((c.a, c.b, c.tag) for c in r.constraints)
        for r in regions
    ]
    assert first == [corner for w in want for corner in w]
    for shift in range(1, 1 + max(len(types), *map(len, types))):
        for region, expected in zip(regions, want):
            types[:] = [kept[shift % len(kept):] + kept[:shift % len(kept)]
                        for kept in types]
            types[:] = types[shift % len(types):] + types[:shift % len(types)]
            got = [(c.rates, c.tight) for c in enumerate_corners(region)]
            assert got == expected


FORMS = st.sampled_from(("int", "fraction", "float", "string"))


def _written(value, form):
    """``value`` as an int (its floor), a ``Fraction``, the nearest float or
    an ``"a/b"`` string."""
    return {"int": math.floor, "fraction": F, "float": float,
            "string": str}[form](value)


@st.composite
def regions_and_offsets(draw):
    """A region and the offsets its rows were given: built for any of the
    eight orderings, or direct with ints, Fractions, floats and strings."""
    if draw(st.booleans()):
        region = _built_region(draw(st.integers(1, 8)), draw(profiles()))
        return region, [c.b for c in region.constraints]
    rows = [(a, _written(b, draw(FORMS))) for a, b in draw(integer_rows())]
    return _direct_region(rows), [b for _, b in rows]


AXIS_ROWS = tuple(LinearInequality(a, 0, f"R{i}")
                  for i, a in enumerate(AXES, start=1))


def _raised(f, *args):
    """The type of what ``f(*args)`` raises, or None."""
    try:
        f(*args)
    except Exception as e:
        return type(e)
    return None


@settings(max_examples=300, deadline=None)
@given(case=regions_and_offsets(), data=st.data())
def test_one_exactness_rule_for_every_reader_of_the_rows(case, data):
    # A region keeps each offset as a Fraction, so its rows are exact, and
    # every reader takes each rate at its exact value, whatever its type:
    # slacks, tight tags and membership all agree with the oracle's slack.
    region, given = case
    b = [c.b for c in region.constraints]
    value = st.one_of(
        st.sampled_from([F(0), *b, *(-x for x in b)]),
        st.fractions(min_value=-(2**70), max_value=2**70),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    rates = tuple(_written(data.draw(value), data.draw(FORMS))
                  for _ in range(3))
    slacks = [_oracles.row_slack(c.a, g, rates)
              for c, g in zip(region.constraints, given)]
    got = [c.evaluate(rates) for c in region.constraints]
    assert got == slacks
    assert all(type(s) is Fraction for s in got)
    tags = [c.tag for c in region.constraints]
    tight, violated = classify_slacks(region.constraints, rates)
    assert tight == [t for t, s in zip(tags, slacks) if s == 0]
    assert violated == [t for t, s in zip(tags, slacks) if s < 0]
    assert contains(region, rates) == (
        not classify_slacks((*region.constraints, *AXIS_ROWS), rates)[1]
    )
    for bad in (math.nan, math.inf, -math.inf):
        point = list(rates)
        point[data.draw(st.integers(0, 2))] = bad
        raised = {
            _raised(contains, region, point),
            _raised(classify_slacks, region.constraints, point),
            *(_raised(c.evaluate, point) for c in region.constraints),
        }
        assert len(raised) == 1 and None not in raised, raised


# ---------------------------------------------------------------------------
# Plan-based decode against the bit-level oracle.
# ---------------------------------------------------------------------------

@st.composite
def pieces(draw, lengths):
    """A whole stream or a random range of one, often of the first few."""
    k = draw(st.one_of(st.integers(1, 3), st.integers(1, 7)))
    if draw(st.booleans()):
        return Piece(k, 0, lengths[k - 1])
    start = draw(st.integers(0, lengths[k - 1]))
    return Piece(k, start, draw(st.integers(start, lengths[k - 1])))


def _trim(group, excess):
    """Shorten a piece group from its end by ``excess`` bits."""
    out = list(group)
    while excess:
        p = out.pop()
        cut = min(excess, p.size)
        out.append(Piece(p.stream, p.start, p.stop - cut))
        excess -= cut
        if excess:
            out.pop()
    return tuple(out)


@st.composite
def segments(draw, lengths):
    kind = draw(st.sampled_from(("copy", "copy", "xor", "rotated xor")))
    if kind == "copy":
        return draw(pieces(lengths))
    ga, gb = (
        draw(st.lists(pieces(lengths), min_size=1, max_size=3))
        for _ in range(2)
    )
    if kind == "rotated xor":  # the same pieces on both sides
        gb = ga[1:] + ga[:1]
    na, nb = (sum(p.size for p in g) for g in (ga, gb))
    return Xor(_trim(ga, max(0, na - nb)), _trim(gb, max(0, nb - na)))


@st.composite
def hand_built_schemes(draw):
    """Overlapping copies, same-stream and multi-piece XOR groups, and
    zero-length pieces and streams, in random layouts."""
    lengths = tuple(
        draw(st.sampled_from((0, 0, 0, 1, 2, 3, 4, 5, 6))) for _ in range(7)
    )
    segs = tuple(
        tuple(draw(st.lists(segments(lengths), max_size=8))) for _ in range(3)
    )
    return DescriptionScheme("HAND", lengths, segs)


def _decode_or_unresolvable(fn, scheme, subset, given):
    try:
        return [a.tolist() for a in fn(scheme, subset, given)]
    except Unresolvable:
        return "Unresolvable"


def _packed_or_unresolvable(scheme, subset, given):
    packed = {d: pack_bits(bits) for d, bits in given.items()}
    try:
        out = decode_packed(scheme, subset, packed)
    except Unresolvable:
        return "Unresolvable"
    return [unpack_bits(b, n).tolist() for b, n in zip(out, scheme.lengths)]


@settings(max_examples=400, deadline=None)
@given(scheme=hand_built_schemes(), data=st.data())
def test_decode_equals_bit_level_oracle(scheme, data):
    if data.draw(st.booleans(), label="encoder output"):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        enc = encode(scheme, random_bundle(scheme.lengths, rng)).bits
    else:
        enc = []
        for n in scheme.description_lengths:
            word = data.draw(st.integers(0, 2**n - 1))
            enc.append(np.array([(word >> i) & 1 for i in range(n)], np.uint8))
    for subset in SUBSETS:
        given = {d: enc[d - 1] for d in subset_members(subset)}
        want = _decode_or_unresolvable(_oracles.bit_decode, scheme, subset,
                                       given)
        assert _decode_or_unresolvable(decode, scheme, subset, given) == (
            want), subset
        assert _packed_or_unresolvable(scheme, subset, given) == want, subset


@settings(max_examples=300, deadline=None)
@given(scheme=hand_built_schemes(), seed=st.integers(0, 2**32 - 1),
       padding=st.booleans())
def test_encode_packed_equals_packed_encode_on_hand_built_schemes(
        scheme, seed, padding):
    bundle = random_bundle(scheme.lengths, np.random.default_rng(seed))
    blob = bytearray(pack_bits(np.concatenate(bundle.streams)))
    pad = -sum(scheme.lengths) % 8
    if padding and pad:  # set the padding bits, which are to be ignored
        blob[-1] |= (1 << pad) - 1
    assert encode_packed(scheme, bytes(blob)) == tuple(
        map(pack_bits, encode(scheme, bundle).bits))


@settings(max_examples=300, deadline=None)
@given(scheme=hand_built_schemes())
def test_pruned_plan_touches_only_the_reverse_closure(scheme):
    for subset in SUBSETS:
        try:
            plan = decode_plan(scheme, subset)
        except Unresolvable:
            continue
        bounds = plan.bounds
        atom = {x: i for i, x in enumerate(bounds)}
        required = {i for i in range(len(bounds) - 1)
                    if bounds[i] < plan.offsets[plan.level]}
        # Each run writes one whole atom, and reads the output (source 0)
        # only as a whole atom that an earlier run wrote.
        targets, reads = [], []
        for o, first, second, n in plan.runs:
            assert o in atom and bounds[atom[o] + 1] - o == n, subset
            for s, a in filter(None, (first, second)):
                if s == 0:
                    assert a in atom and atom[a] in targets, subset
                    assert bounds[atom[a] + 1] - a == n, subset
                    reads.append((atom[o], atom[a]))
            targets.append(atom[o])
        # Atoms the required ones are computed from, through any fill.
        closure, grew = set(required), True
        while grew:
            sources = {i for t, i in reads if t in closure}
            grew = not sources <= closure
            closure |= sources
        assert {*targets, *(i for _, i in reads)} <= closure, subset
        # Every atom the plan writes is written once, and every required
        # atom is written.
        assert len(set(targets)) == len(targets), subset
        assert required <= set(targets), subset


# ---------------------------------------------------------------------------
# Catalog schemes on random lengths.
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 24), min_size=7, max_size=7),
    seed=st.integers(0, 2**32 - 1),
)
def test_catalog_roundtrips_or_refuses_the_lengths(lengths, seed):
    bundle = random_bundle(lengths, np.random.default_rng(seed))
    for name, template in TEMPLATES.items():
        try:
            scheme = instantiate_scheme(template, lengths)
        except (RegimeMismatch, OddSplit):
            continue
        enc = encode(scheme, bundle)
        for subset in SUBSETS:
            got = decode(scheme, subset, restrict(enc, subset))
            assert len(got) == L1.level_of(subset), (name, subset)
            for want, arr in zip(bundle.streams, got):
                np.testing.assert_array_equal(arr, want, err_msg=name)


@st.composite
def interior_profiles(draw, regime: str):
    """Seven small whole entropies strictly inside an L1 regime: h3 > h4 +
    h5 (I), h4 < h3 < h4 + h5 (II) or h3 < h4 (III)."""
    h = draw(st.lists(st.integers(0, 5), min_size=7, max_size=7))
    if regime == "I":
        h[2] = h[3] + h[4] + draw(st.integers(1, 3))
    elif regime == "II":
        h[4] = max(h[4], 2)
        h[2] = h[3] + draw(st.integers(1, h[4] - 1))
    else:
        h[3] = h[2] + draw(st.integers(1, 3))
    return h


@settings(max_examples=150, deadline=None)
@given(regime=st.sampled_from(sorted(CATALOG_LABELS)), data=st.data())
def test_time_share_rates_are_the_weighted_corner_rates(regime, data):
    # Part p has weight a_p / m and slice a_p * h of lengths m * h; each
    # template is placed at its own slice, so it is that slice's parity,
    # not the full lengths', that decides OddSplit.
    labels = data.draw(st.lists(st.sampled_from(CATALOG_LABELS[regime]),
                                min_size=1, max_size=3))
    counts = data.draw(st.lists(st.integers(1, 4), min_size=len(labels),
                                max_size=len(labels)))
    h = data.draw(interior_profiles(regime))
    m = sum(counts)
    lengths = [m * x for x in h]
    slices = [[a * x for x in h] for a in counts]
    parts = [(TEMPLATES[template_name_for_label(label)], F(a, m))
             for label, a in zip(labels, counts)]
    try:
        for (template, _), sl in zip(parts, slices):
            instantiate_scheme(template, sl)
    except OddSplit:
        with pytest.raises(OddSplit):
            compose_time_share(parts, lengths)
        return
    mix = compose_time_share(parts, lengths)
    assert [2 * n for n in mix.description_lengths] == [
        sum(sum(c * x for c, x in zip(RATE_FORMS[label][d], sl))
            for label, sl in zip(labels, slices))
        for d in range(3)
    ]
    for subset in SUBSETS:
        plan = decode_plan(mix, subset)
        need = sum(lengths[:L1.level_of(subset)])
        written = {o for o, _, _, _ in plan.runs}
        assert written.issuperset(x for x in plan.bounds[:-1] if x < need)


# ---------------------------------------------------------------------------
# Packed replays against the array replays and the bit-level oracle.
# ---------------------------------------------------------------------------

def _bits(word: int, n: int) -> np.ndarray:
    return np.array([(word >> i) & 1 for i in range(n)], np.uint8)


def _blob(bits, pad: int, resize: int) -> bytes:
    """``pack_bits(bits)`` with nonzero padding bits taken from ``pad``,
    then one byte longer (resize > 0) or shorter (resize < 0)."""
    data = bytearray(pack_bits(bits))
    if bits.size % 8:
        data[-1] |= pad & ((1 << (-bits.size % 8)) - 1) or 1
    if resize > 0:
        data.append(pad)
    elif resize < 0:
        data = data[:-1] if data else data + b"\0\0"
    return bytes(data)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RegimeMismatch, OddSplit, LengthMismatch) as e:
        return type(e)


def _array_encode(template, lengths, blob):
    scheme = instantiate_scheme(template, lengths)
    flat = unpack_bits(blob, sum(lengths))
    bundle = SourceBundle(np.split(flat, np.cumsum(lengths)[:-1]))
    return tuple(pack_bits(b) for b in encode(scheme, bundle).bits)


def _packed_encode(template, lengths, blob):
    return encode_packed(instantiate_scheme(template, lengths), blob)


def _oracle_decode(scheme, subset, blobs):
    dlen = scheme.description_lengths
    given = {d: unpack_bits(b, dlen[d - 1]) for d, b in blobs.items()}
    return tuple(pack_bits(s) for s in _oracles.bit_decode(scheme, subset,
                                                           given))


RESIZE = st.sampled_from((0, 0, 0, 0, 1, -1))


@settings(max_examples=300, deadline=None)
@given(
    label=st.sampled_from(ALL_SCHEME_LABELS),
    lengths=st.lists(st.integers(0, 24), min_size=7, max_size=7),
    data=st.data(),
)
def test_packed_replays_equal_array_replays_and_oracle(label, lengths, data):
    template = TEMPLATES[template_name_for_label(label)]
    total = sum(lengths)
    bits = _bits(data.draw(st.integers(0, 2**total - 1)), total)
    blob = _blob(bits, data.draw(st.integers(1, 255)), data.draw(RESIZE))
    got = _outcome(_packed_encode, template, lengths, blob)
    assert got == _outcome(_array_encode, template, lengths, blob)
    if not isinstance(got, tuple):
        return
    scheme = instantiate_scheme(template, lengths)
    dlen = scheme.description_lengths
    if data.draw(st.booleans(), label="random description bits"):
        got = tuple(pack_bits(_bits(data.draw(st.integers(0, 2**n - 1)), n))
                    for n in dlen)
    for subset in SUBSETS:
        blobs = {
            d: _blob(unpack_bits(got[d - 1], dlen[d - 1]),
                     data.draw(st.integers(1, 255)), data.draw(RESIZE))
            for d in subset_members(subset)
        }
        assert _outcome(decode_packed, scheme, subset, blobs) == (
            _outcome(_oracle_decode, scheme, subset, blobs)), subset


# Per-level distortion ratios: ties, criterion 7's range, and down to 1e-12.
RATIOS = st.one_of(
    st.just(1.0),
    st.floats(0.4, 0.95),
    st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
)


@st.composite
def distortion_targets(draw):
    """Targets that follow one of the 8 orderings level by level, starting
    at D = 1 or below, with some pair and triple targets raised so that
    normalization has something to cap."""
    row = draw(st.sampled_from(_oracles.ORDERING_ROWS))
    v = draw(st.one_of(st.just(1.0), st.floats(1e-3, 1.0)))
    vals = {}
    for k, s in enumerate(row):
        if k:
            v *= draw(RATIOS)
        vals[s] = v
    for s in SUBSETS[3:]:
        if draw(st.booleans()):
            vals[s] = draw(st.floats(vals[s], 1.0))
    return [vals[s] for s in SUBSETS]


@settings(max_examples=500, deadline=None)
@given(values=distortion_targets())
def test_normalized_targets_ranking_and_parametric_dominance(values):
    D = DistortionVector(values)
    Dn = normalize_distortions(D)
    assert Dn.values == _oracles.normalize_targets(values)
    o = induced_ordering(Dn)
    assert o.by_level == _oracles.rank_targets(Dn.values)
    # Criterion 7 on the whole domain: at matched noise the parametric
    # converse sits above the fixed-slack outer bound, row by row.
    po = parametric_outer_bound(D, NoiseParams.matched(Dn, o))
    for cp, co in zip(po.constraints, outer_bound(D).constraints):
        assert cp.a == co.a
        assert cp.b >= co.b - 1e-9, (cp.tag, cp.b, co.b)


# Few distinct values, so that most draws tie.
DYADIC_SET = (1.0, 0.5, 0.25, 0.125, 0.0625)


@st.composite
def tie_heavy_targets(draw):
    """Seven values from DYADIC_SET, either placed non-increasing along one
    of the 8 orderings or left as drawn (which may put the singles out of
    order), with some pair and triple targets then raised above the targets
    of their sub-subsets."""
    values = draw(st.lists(st.sampled_from(DYADIC_SET), min_size=7,
                           max_size=7))
    vals = dict(zip(SUBSETS, values))
    if draw(st.booleans()):
        row = draw(st.sampled_from(_oracles.ORDERING_ROWS))
        vals = dict(zip(row, sorted(values, reverse=True)))
    for s in SUBSETS[3:]:
        if draw(st.booleans()):
            vals[s] = draw(st.sampled_from(
                [x for x in DYADIC_SET if x >= vals[s]]))
    return [vals[s] for s in SUBSETS]


def _error_of(call):
    """(class, message) of the ValueError a call raises, or None."""
    try:
        call()
    except ValueError as e:  # every OrderingError is one
        return type(e), str(e)
    return None


@settings(max_examples=500, deadline=None)
@given(values=tie_heavy_targets())
def test_induced_ordering_matches_the_sorting_oracle_on_ties(values):
    D = DistortionVector(values)
    Dn = normalize_distortions(D)
    seq, admissible = _oracles.induced_level_sequence(Dn.values)
    noise = NoiseParams([0.5] * 6)
    calls = (
        lambda: induced_ordering(Dn),
        lambda: inner_bound(D).ordering,
        lambda: outer_bound(D).ordering,
        lambda: parametric_outer_bound(D, noise).ordering,
    )
    if admissible:
        for call in calls:
            assert call().by_level == seq
        return
    want = _error_of(
        lambda: validate_ordering({s: k for k, s in enumerate(seq, 1)}))
    assert want is not None
    for call in calls:
        assert _error_of(call) == want
