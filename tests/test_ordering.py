"""Unit tests for decoder orderings."""

from __future__ import annotations

from itertools import permutations

import pytest

import _oracles
from amld3 import (
    L1,
    MonotonicityViolated,
    NotBijective,
    Ordering,
    SinglesOutOfOrder,
    enumerate_orderings,
    ordering_from_json,
    validate_ordering,
)
from amld3.ordering import SUBSETS, subset_members, union


def test_exactly_eight_orderings_in_documented_order():
    rows = enumerate_orderings()
    assert len(rows) == 8
    assert tuple(o.by_level for o in rows) == _oracles.ORDERING_ROWS


def test_matches_independent_brute_force():
    rows = enumerate_orderings()
    assert tuple(o.by_level for o in rows) == _oracles.brute_force_level_sequences()


def test_first_row_is_fully_alternating():
    assert enumerate_orderings()[0] == L1
    assert L1.by_level == ("G1", "G2", "G3", "G12", "G13", "G23", "G123")


def test_indices_are_stable_one_based():
    for i, o in enumerate(enumerate_orderings(), start=1):
        assert o.index == i


def test_validate_roundtrip_for_every_row():
    for o in enumerate_orderings():
        rebuilt = validate_ordering(o.levels)
        assert rebuilt == o
        assert rebuilt.index == o.index


def test_level_lookup_inverses():
    for o in enumerate_orderings():
        for k in range(1, 8):
            assert o.level_of(o.by_level[k - 1]) == k
        for s in SUBSETS:
            assert o.by_level[o.level_of(s) - 1] == s


def test_level_lookup_errors():
    with pytest.raises(KeyError):
        L1.level_of("G99")


def test_not_bijective_missing_subset():
    levels = L1.levels
    del levels["G23"]
    with pytest.raises(NotBijective):
        validate_ordering(levels)


def test_not_bijective_duplicate_level():
    levels = L1.levels
    levels["G23"] = levels["G13"]
    with pytest.raises(NotBijective):
        validate_ordering(levels)


def test_not_bijective_out_of_range_level():
    levels = L1.levels
    levels["G123"] = 9
    with pytest.raises(NotBijective):
        validate_ordering(levels)
    # A level that cannot be compared with an int is not a level either.
    for bad in (None, "1", [1]):
        with pytest.raises(NotBijective, match="distinct level in 1..7"):
            validate_ordering(dict(L1.levels, G1=bad))


def test_ordering_of_two_subsets_is_not_bijective():
    with pytest.raises(NotBijective, match="expected 7 subsets, got 2"):
        Ordering(("G1", "G2"))


def test_singles_out_of_order():
    levels = {
        "G1": 2, "G2": 1, "G3": 3,
        "G12": 4, "G13": 5, "G23": 6, "G123": 7,
    }
    with pytest.raises(SinglesOutOfOrder):
        validate_ordering(levels)


def test_monotonicity_violated_reports_offending_pair():
    levels = {
        "G1": 1, "G2": 2, "G3": 4,
        "G12": 3, "G13": 5, "G23": 7, "G123": 6,
    }
    with pytest.raises(MonotonicityViolated) as err:
        validate_ordering(levels)
    small, large = err.value.offending
    assert small in ("G13", "G23")
    assert large == "G123"


def test_single_above_its_pair_is_rejected():
    # G3 after G13 violates containment monotonicity.
    levels = {
        "G1": 1, "G2": 2, "G3": 5,
        "G12": 3, "G13": 4, "G23": 6, "G123": 7,
    }
    with pytest.raises(MonotonicityViolated):
        validate_ordering(levels)


def test_every_permutation_is_found_or_names_its_first_failed_axiom():
    rows = enumerate_orderings()
    masks = _oracles.MASKS
    accepted = 0
    for seq in permutations(SUBSETS):
        levels = {s: k for k, s in enumerate(seq, start=1)}
        if _oracles.level_sequence_is_admissible(seq):
            o = validate_ordering(levels)
            assert o.by_level == seq == _oracles.ORDERING_ROWS[o.index - 1]
            assert o is rows[o.index - 1]
            accepted += 1
        elif not levels["G1"] < levels["G2"] < levels["G3"]:
            with pytest.raises(SinglesOutOfOrder):
                validate_ordering(levels)
        else:
            first = next(
                (a, b) for a in SUBSETS for b in SUBSETS
                if a != b and masks[a] | masks[b] == masks[b]
                and levels[a] >= levels[b]
            )
            with pytest.raises(MonotonicityViolated) as err:
                validate_ordering(levels)
            assert err.value.offending == first
    assert accepted == 8


def test_ordering_value_object_semantics():
    a = Ordering(L1.by_level)
    assert a == L1
    assert hash(a) == hash(L1)
    assert len({a, L1}) == 1
    with pytest.raises(Exception):
        a.by_level = ()  # frozen


def test_ordering_prints_its_subsets_by_level():
    assert str(L1) == "<G1, G2, G3, G12, G13, G23, G123>"
    assert [str(o).strip("<>").split(", ") for o in enumerate_orderings()] == [
        list(o.by_level) for o in enumerate_orderings()
    ]


def test_json_levels_form():
    o = ordering_from_json(
        {"levels": {s: i + 1 for i, s in enumerate(L1.by_level)}}
    )
    assert o == L1


def test_json_shorthand_form():
    for i, expected in enumerate(enumerate_orderings(), start=1):
        assert ordering_from_json({"ordering": i}) == expected


def test_json_bad_inputs():
    with pytest.raises(NotBijective):
        ordering_from_json({"ordering": 0})
    with pytest.raises(NotBijective):
        ordering_from_json({"ordering": 9})
    with pytest.raises(NotBijective):
        ordering_from_json({})
    # Only JSON integers (not bools) are indices or levels.
    for bad in (1.5, 1.0, True, "3", None):
        with pytest.raises(NotBijective):
            ordering_from_json({"ordering": bad})
        levels = {s: i + 1 for i, s in enumerate(L1.by_level)}
        levels["G1"] = bad
        with pytest.raises(NotBijective):
            ordering_from_json({"levels": levels})
    for bad in ([1], 1, "levels", None):
        with pytest.raises(NotBijective):
            ordering_from_json(bad)


def test_json_levels_that_are_not_an_object_are_not_bijective():
    for levels in ([1, 2], list(range(1, 8)), "G1", 7):
        with pytest.raises(NotBijective, match="'levels' must be an object"):
            ordering_from_json({"levels": levels})


def test_subset_helpers():
    assert union("G1", "G2") == "G12"
    assert union("G1", "G23") == "G123"
    assert union("G13", "G13") == "G13"
    assert subset_members("G13") == (1, 3)
    assert subset_members("G123") == (1, 2, 3)


def test_every_ordering_keeps_forced_endpoints():
    for o in enumerate_orderings():
        assert o.level_of("G1") == 1
        assert o.level_of("G123") == 7
