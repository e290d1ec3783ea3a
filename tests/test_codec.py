"""Unit tests for the corner-point coding schemes."""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

import _oracles
import amld3
from amld3 import (
    ALL_SCHEME_LABELS,
    DescriptionScheme,
    EncodedDescriptions,
    LengthMismatch,
    NonIntegralSplit,
    OddSplit,
    Piece,
    RegimeMismatch,
    SourceBundle,
    TEMPLATES,
    Unresolvable,
    Xor,
    compose_time_share,
    decode,
    decode_packed,
    encode,
    encode_packed,
    instantiate_scheme,
    pack_bits,
    random_bundle,
    restrict,
    template_name_for_label,
    unpack_bits,
)
from amld3.codec import check_packed, decode_plan, encode_plan
from amld3.ordering import SUBSETS, L1, subset_members

# Stream-length pools, one list per regime; every entry is strictly (or
# boundary-)compatible with all templates of its regime, and the Z pools keep
# l4 - l3 even so the half-splits stay integral.
POOLS = {
    "I": [(1, 1, 3, 1, 1, 1, 1), (0, 2, 2, 1, 1, 0, 1), (1, 1, 2, 1, 1, 1, 1)],
    "II": [
        (1, 1, 3, 2, 2, 1, 1),
        (1, 1, 1, 1, 1, 1, 1),
        (2, 1, 2, 2, 3, 0, 1),
        (0, 0, 2, 1, 2, 1, 0),
    ],
    "III": [(1, 1, 1, 3, 1, 1, 1), (1, 1, 0, 2, 1, 1, 1), (2, 0, 1, 3, 0, 2, 1)],
}

LABELS_BY_REGIME = {
    "I": [f"X{i}" for i in range(1, 11)],
    "II": [f"Y{i}" for i in range(1, 13)],
    "III": [f"Z{i}" for i in range(1, 11)],
}


def _scheme(label: str, lengths) -> DescriptionScheme:
    return instantiate_scheme(
        TEMPLATES[template_name_for_label(label)], lengths
    )


def _roundtrip_all_subsets(scheme, bundle):
    enc = encode(scheme, bundle)
    assert enc.lengths == scheme.description_lengths
    for subset in SUBSETS:
        level = L1.level_of(subset)
        got = decode(scheme, subset, restrict(enc, subset))
        assert len(got) == level
        for k in range(level):
            np.testing.assert_array_equal(got[k], bundle.streams[k])


# ---------------------------------------------------------------------------
# Bit utilities.
# ---------------------------------------------------------------------------

def test_pack_bits_is_msb_first():
    assert pack_bits([1, 0, 1]) == bytes([0b10100000])
    assert pack_bits([1] * 9) == bytes([0xFF, 0x80])
    assert pack_bits([]) == b""


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(7)
    for n in (0, 1, 7, 8, 9, 64, 100):
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        np.testing.assert_array_equal(unpack_bits(pack_bits(bits), n), bits)


def test_unpack_rejects_wrong_byte_count():
    with pytest.raises(LengthMismatch):
        unpack_bits(b"\x00\x00", 3)
    with pytest.raises(LengthMismatch):
        unpack_bits(b"", 1)


def test_unpack_ignores_padding_bits():
    # Only the byte count is checked; bits past the n-th are not read.
    np.testing.assert_array_equal(unpack_bits(b"\xff", 3), [1, 1, 1])
    np.testing.assert_array_equal(
        unpack_bits(b"\xa0\x7f", 9), [1, 0, 1, 0, 0, 0, 0, 0, 0]
    )


def test_bit_arrays_must_be_binary():
    with pytest.raises(ValueError):
        pack_bits([0, 2, 1])


@pytest.mark.parametrize("bits", [
    np.array([257, 0]), [256, 1], [0.5, 1.0], np.array([257] * 8),
    [-1, 0], [math.nan, 0], ["1", "0"],
], ids=["257", "256", "0.5", "257x8", "-1", "nan", "str"])
def test_bit_values_are_read_before_any_cast(bits):
    # Cast to uint8 first, 257 and 256 would wrap to 1 and 0 and 0.5 would
    # truncate to 0; every reader of bit arrays refuses them instead.
    readers = [
        pack_bits,
        lambda b: SourceBundle([b] + [[0]] * 6),
        lambda b: EncodedDescriptions([b, None, None]),
        lambda b: decode(_scheme("X1", (1,) * 7), "G1", {1: b}),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="only 0 and 1"):
            read(bits)


def test_bit_arrays_are_flattened_and_uint8_kept():
    assert pack_bits([[1, 0, 1], [1, 1, 1]]) == bytes([0b10111100])
    assert pack_bits([True, 0.0, 1]) == bytes([0b10100000])
    bits = np.array([1, 0, 1], dtype=np.uint8)
    assert SourceBundle([bits] * 7).streams[0] is bits


def test_bit_counts_must_be_whole_and_non_negative():
    rng = np.random.default_rng(0)
    for bad in (1.5, -1, float("inf"), None):
        lengths = (1, bad, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="whole and non-negative"):
            instantiate_scheme(TEMPLATES["X1"], lengths)
        with pytest.raises(ValueError, match="whole and non-negative"):
            random_bundle(lengths, rng)
        with pytest.raises(ValueError, match="whole and non-negative"):
            _mix([("X1", HALF), ("X2", HALF)], lengths)
    for nbits in (-5, 1.5, float("inf"), None):
        with pytest.raises(ValueError, match="whole and non-negative"):
            check_packed(b"", nbits)
        with pytest.raises(ValueError, match="whole and non-negative"):
            unpack_bits(b"", nbits)
    # Ints, bools, numpy ints and integral floats are still read as ints.
    lengths = (np.int64(1), True, 1.0, 1, 1, 1, 1)
    assert instantiate_scheme(TEMPLATES["X1"], lengths).lengths == (1,) * 7
    assert random_bundle(lengths, rng).lengths == (1,) * 7


def test_bundle_packed_roundtrip():
    rng = np.random.default_rng(21)
    lengths = (3, 0, 5, 2, 7, 1, 4)
    bundle = random_bundle(lengths, rng)
    assert bundle.lengths == lengths
    flat = unpack_bits(pack_bits(np.concatenate(bundle.streams)), sum(lengths))
    again = np.split(flat, np.cumsum(lengths)[:-1])
    for a, b in zip(again, bundle.streams):
        np.testing.assert_array_equal(a, b)


def test_bundle_requires_seven_streams():
    with pytest.raises(ValueError):
        SourceBundle([[1], [0]])


def test_random_bundle_is_seed_deterministic():
    a = random_bundle((4, 4, 4, 4, 4, 4, 4), np.random.default_rng(5))
    b = random_bundle((4, 4, 4, 4, 4, 4, 4), np.random.default_rng(5))
    assert pack_bits(np.concatenate(a.streams)) == pack_bits(
        np.concatenate(b.streams))


# ---------------------------------------------------------------------------
# Template bookkeeping.
# ---------------------------------------------------------------------------

def test_thirty_two_labels_resolve_to_twenty_templates():
    assert ALL_SCHEME_LABELS == tuple(
        f"{regime}{i}" for regime, n in (("X", 10), ("Y", 12), ("Z", 10))
        for i in range(1, n + 1)
    )
    assert len(TEMPLATES) == 20
    for label in ALL_SCHEME_LABELS:
        assert template_name_for_label(label) in TEMPLATES


def test_a_copied_segment_is_its_piece():
    # Layouts name a copied piece by its string and an XOR by a pair of
    # piece-name tuples; instantiated, a copy is the Piece itself.
    template = TEMPLATES["X5"]
    assert template.layout[0] == ("V1", "V4", "V5")
    assert template.layout[1][3] == (("V3.2",), ("V4", "V5"))
    scheme = instantiate_scheme(template, (1, 1, 3, 1, 1, 1, 1))
    assert scheme.segments[0] == (Piece(1, 0, 1), Piece(4, 0, 1),
                                  Piece(5, 0, 1))
    assert scheme.segments[1][3] == Xor(
        (Piece(3, 1, 3),), (Piece(4, 0, 1), Piece(5, 0, 1))
    )
    with pytest.raises(AttributeError):
        amld3.Copy


def test_label_aliases():
    assert template_name_for_label("Y1") == "X1"
    assert template_name_for_label("Y9") == "X9"
    assert template_name_for_label("Z3") == "X3"
    assert template_name_for_label("Y5") == "Y5"
    assert template_name_for_label("Z7") == "Z7"
    for bad in ("W1", "X11", "Y13", "Q1"):
        with pytest.raises(KeyError):
            template_name_for_label(bad)


def test_package_not_codec_serves_the_catalog_names():
    import amld3.catalog

    for name in ("TEMPLATES", "ALL_SCHEME_LABELS", "SchemeTemplate",
                 "template_name_for_label"):
        assert not hasattr(amld3.codec, name), name
        assert getattr(amld3, name) is getattr(amld3.catalog, name), name
    assert tuple(amld3.catalog.RATE_FORMS) == ALL_SCHEME_LABELS
    assert amld3.catalog.RATE_FORMS["Y1"] is amld3.catalog.RATE_FORMS["X1"]


def test_codec_annotations_name_the_catalog_template(monkeypatch):
    # The codec imports the catalog only for type checkers.  Run that
    # import in a second copy of the module, and check that the template
    # annotations resolve to the catalog's class.
    import importlib.util
    import typing

    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec = importlib.util.spec_from_file_location("amld3._typed_codec",
                                                  amld3.codec.__file__)
    typed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(typed)
    template = amld3.catalog.SchemeTemplate
    assert typed.SchemeTemplate is template
    assert typing.get_type_hints(typed.instantiate_scheme)["template"] is (
        template)
    assert typing.get_type_hints(typed.compose_time_share)["parts"] == (
        typing.Sequence[tuple[template, Fraction]])


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_every_template_decodes_at_every_length_vector(name):
    # Read off the template data alone, never a decode plan: every split
    # sums to its stream and every XOR's groups have equal length, as forms
    # over l1..l7, and group-level recovery reaches V1..Vk at each subset.
    template = TEMPLATES[name]
    assert _oracles.splits_sum_to_streams(template)
    assert _oracles.xor_groups_balance(template)
    for subset in SUBSETS:
        assert _oracles.propagation_recovers(template, subset), subset


def test_dropping_any_copied_piece_breaks_the_proof():
    mutants = 0
    for template in TEMPLATES.values():
        for d, desc in enumerate(template.layout):
            for i, item in enumerate(desc):
                if not isinstance(item, str):
                    continue
                layout = list(template.layout)
                layout[d] = desc[:i] + desc[i + 1:]
                mutant = template._replace(layout=tuple(layout))
                assert not all(
                    _oracles.propagation_recovers(mutant, s) for s in SUBSETS
                ), (template.name, d + 1, item)
                mutants += 1
    assert mutants == 244  # every copied piece of the 20 layouts


def test_unbalanced_xor_or_split_fails_the_identities():
    x5 = TEMPLATES["X5"]
    (stream, names, (first, second)), = x5.splits
    second = second[:4] + (0,) * 3  # l4 where the split says l4 + l5
    short = x5._replace(splits=((stream, names, (first, second)),))
    assert not _oracles.splits_sum_to_streams(short)
    assert not _oracles.xor_groups_balance(short)
    layout = list(x5.layout)
    layout[1] = tuple(
        (("V3.2",), ("V4",)) if not isinstance(item, str) else item
        for item in layout[1]
    )
    assert not _oracles.xor_groups_balance(x5._replace(layout=tuple(layout)))


# ---------------------------------------------------------------------------
# A fully hand-computed network-coding example (X5).
# ---------------------------------------------------------------------------

def test_x5_worked_example_bit_exact():
    # lengths (1,1,3,1,1,1,1): V3 splits into V3.1 (1 bit) and V3.2 (2 bits).
    scheme = _scheme("X5", (1, 1, 3, 1, 1, 1, 1))
    assert scheme.description_lengths == (3, 7, 5)
    bundle = SourceBundle([[1], [0], [1, 1, 0], [1], [0], [0], [1]])
    enc = encode(scheme, bundle)
    # description 1 = V1 || V4 || V5
    np.testing.assert_array_equal(enc.bits[0], [1, 1, 0])
    # description 2 = V1 || V2 || V3.1 || (V3.2 xor (V4||V5)) || V6 || V7
    #              = [1, 0, 1, (1^1, 0^0), 0, 1]
    np.testing.assert_array_equal(enc.bits[1], [1, 0, 1, 0, 0, 0, 1])
    # description 3 = V1 || V2 || V3.1 || V3.2
    np.testing.assert_array_equal(enc.bits[2], [1, 0, 1, 1, 0])

    # G12 must cancel the xor using V4, V5 from description 1.
    v = decode(scheme, "G12", restrict(enc, "G12"))
    np.testing.assert_array_equal(v[2], [1, 1, 0])
    np.testing.assert_array_equal(v[3], [1])
    # G23 must cancel it the other way, recovering V4 and V5.
    v = decode(scheme, "G23", restrict(enc, "G23"))
    np.testing.assert_array_equal(v[3], [1])
    np.testing.assert_array_equal(v[4], [0])
    _roundtrip_all_subsets(scheme, bundle)


def test_x1_description_lengths_scale():
    scheme = _scheme("X1", (8,) * 7)
    assert scheme.description_lengths == (8, 32, 56)


# ---------------------------------------------------------------------------
# Every catalog label: rate-exact and decodable at several length profiles.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_catalog_schemes_hit_their_corner_rates(regime):
    for lengths in POOLS[regime]:
        assert _oracles.regime_of(lengths) == regime
        expected = _oracles.expected_corners(lengths)
        for label in LABELS_BY_REGIME[regime]:
            scheme = _scheme(label, lengths)
            rates = expected[label]
            assert all(Fraction(r).denominator == 1 for r in rates)
            assert scheme.description_lengths == tuple(int(r) for r in rates), (
                label,
                lengths,
            )


@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_catalog_schemes_roundtrip_all_decoders(regime):
    rng = np.random.default_rng(2024)
    for lengths in POOLS[regime]:
        for label in LABELS_BY_REGIME[regime]:
            scheme = _scheme(label, lengths)
            for _ in range(3):
                _roundtrip_all_subsets(scheme, random_bundle(lengths, rng))


# Lengths strictly inside each regime, on both regime boundaries
# (l3 = l4 + l5 and l3 = l4), with zero-length streams, and all zero.
BOUNDARY_I_II = [(1, 2, 5, 2, 3, 1, 2), (0, 3, 6, 0, 6, 0, 1)]
BOUNDARY_II_III = [(2, 1, 4, 4, 3, 2, 1), (1, 0, 2, 2, 0, 3, 0)]
PLAN_LENGTHS = {
    "I": [(3, 2, 9, 2, 3, 4, 5), (0, 1, 7, 3, 0, 2, 0), *BOUNDARY_I_II],
    "II": [(2, 1, 5, 3, 4, 1, 2), (1, 0, 3, 1, 5, 0, 2),
           *BOUNDARY_I_II, *BOUNDARY_II_III],
    "III": [(2, 1, 3, 7, 2, 1, 2), (0, 2, 0, 4, 1, 0, 3), *BOUNDARY_II_III],
}


@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_every_catalog_plan_recovers_every_required_atom(regime):
    # A plan never reads description bits, so a complete plan proves that
    # every bundle of these lengths decodes at that subset.
    for lengths in [*PLAN_LENGTHS[regime], (0,) * 7]:
        for label in LABELS_BY_REGIME[regime]:
            scheme = _scheme(label, lengths)
            for subset in SUBSETS:
                plan = decode_plan(scheme, subset)
                written = {o for o, _, _, _ in plan.runs}
                need = sum(lengths[:L1.level_of(subset)])
                required = [x for x in plan.bounds[:-1] if x < need]
                assert written.issuperset(required), (label, lengths, subset)


@pytest.mark.parametrize("label", ALL_SCHEME_LABELS)
def test_decode_neither_writes_nor_aliases_its_inputs(label):
    regime = {"X": "I", "Y": "II", "Z": "III"}[label[0]]
    lengths = PLAN_LENGTHS[regime][0]
    scheme = _scheme(label, lengths)
    enc = encode(scheme, random_bundle(lengths, np.random.default_rng(5)))
    before = [b.copy() for b in enc.bits]
    for subset in SUBSETS:
        for given in (restrict(enc, subset),
                      {d: enc.bits[d - 1] for d in subset_members(subset)}):
            out = decode(scheme, subset, given)
            for arr in out:
                assert not any(np.shares_memory(arr, b) for b in enc.bits)
    for b, b0 in zip(enc.bits, before):
        np.testing.assert_array_equal(b, b0)


@pytest.mark.parametrize("regime", ["I", "II", "III"])
def test_decode_buffer_ends_at_the_last_bit_the_plan_writes(regime):
    # A G1 decode returns V1 alone, so its buffer must not span V1..V7; an
    # XOR fill may write past V1..V_level, and the buffer must hold it.
    rng = np.random.default_rng(9)
    for lengths in PLAN_LENGTHS[regime]:
        for label in LABELS_BY_REGIME[regime]:
            scheme = _scheme(label, lengths)
            enc = encode(scheme, random_bundle(lengths, rng))
            for subset in SUBSETS:
                runs = decode_plan(scheme, subset).runs
                end = max((o + n for o, _, _, n in runs), default=0)
                out = decode(scheme, subset, restrict(enc, subset))
                assert out[0].base.size == end, (label, lengths, subset)


@pytest.mark.parametrize("label,lengths", [
    ("X5", (1, 2, 9, 2, 3, 1, 2)),   # V3.2 ^ (V4 || V5): misaligned groups
    ("X5", (1, 2, 5, 2, 3, 1, 2)),   # ... with V3.1 empty
    ("X5", (1, 2, 4, 0, 3, 1, 2)),   # ... with V4 empty
    ("Y5", (2, 1, 5, 3, 4, 1, 2)),   # two XOR segments
    ("Z7", (2, 1, 3, 7, 2, 1, 2)),   # V4.2 ^ V4.3: same-stream XOR
    ("Z7", (2, 1, 4, 4, 3, 2, 1)),   # ... with both halves empty
])
def test_decode_matches_bit_level_oracle_on_any_bits(label, lengths):
    scheme = _scheme(label, lengths)
    rng = np.random.default_rng(77)
    for _ in range(5):
        bits = [rng.integers(0, 2, n, dtype=np.uint8)
                for n in scheme.description_lengths]
        for subset in SUBSETS:
            given = {d: bits[d - 1] for d in subset_members(subset)}
            got = decode(scheme, subset, given)
            want = _oracles.bit_decode(scheme, subset, given)
            assert [a.tolist() for a in got] == [a.tolist() for a in want]


def _bit(stream):
    return Piece(stream, 0, 1)


# One-bit streams; description bits that disagree with any source, so each
# case pins which write the decoder keeps.  Only V1 is required (G1).
WRITE_ORDER_CASES = {
    # V1 copied twice: the last copy wins.
    "last copy": ((_bit(1), _bit(1)), [0, 1], 1),
    # V1 is filled from b (V1 = V2 ^ 0) and then from a (V1 = V3 ^ 1) by
    # the same XOR segment: the fill from a comes second and wins.
    "b then a": (
        (_bit(2), _bit(3),
         Xor((_bit(1), _bit(2)), (_bit(3), _bit(1)))),
        [0, 0, 1, 0], 1,
    ),
    # The first segment recovers V2 from V3; V1 = V2 ^ 1 only counts from
    # the next pass, so the second segment, V1 = V3 ^ 0, fills V1 first.
    "snapshot per segment": (
        (_bit(3),
         Xor((_bit(3), _bit(1)), (_bit(2), _bit(2))),
         Xor((_bit(1),), (_bit(3),))),
        [0, 0, 1, 0], 0,
    ),
    # V1 needs V2, which a later segment recovers: a second pass.
    "second pass": (
        (_bit(3), Xor((_bit(1),), (_bit(2),)),
         Xor((_bit(2),), (_bit(3),))),
        [1, 1, 1], 1,
    ),
}


@pytest.mark.parametrize("case", WRITE_ORDER_CASES)
def test_decode_keeps_the_bit_level_write_order(case):
    segs, bits, v1 = WRITE_ORDER_CASES[case]
    scheme = DescriptionScheme("HAND", (1, 1, 1, 0, 0, 0, 0), (segs, (), ()))
    given = {1: np.array(bits, np.uint8)}
    assert _oracles.bit_decode(scheme, "G1", given)[0].tolist() == [v1]
    assert decode(scheme, "G1", given)[0].tolist() == [v1]


def test_zero_length_streams_everywhere():
    for label in ALL_SCHEME_LABELS:
        scheme = _scheme(label, (0,) * 7)
        assert scheme.description_lengths == (0, 0, 0)
        bundle = SourceBundle([[]] * 7)
        _roundtrip_all_subsets(scheme, bundle)


# ---------------------------------------------------------------------------
# Applicability errors.
# ---------------------------------------------------------------------------

def test_regime_mismatch_for_wrong_lengths():
    # X5 needs l3 >= l4 + l5.
    with pytest.raises(RegimeMismatch):
        _scheme("X5", (1, 1, 0, 2, 1, 1, 1))
    # X7 needs l3 >= l4.
    with pytest.raises(RegimeMismatch):
        _scheme("X7", (1, 1, 1, 3, 1, 1, 1))
    # Z5 needs l4 >= l3.
    with pytest.raises(RegimeMismatch):
        _scheme("Z5", (1, 1, 3, 1, 1, 1, 1))


def test_odd_split_for_z_half_templates():
    with pytest.raises(OddSplit):
        _scheme("Z7", (1, 1, 1, 2, 1, 1, 1))
    with pytest.raises(OddSplit):
        _scheme("Z10", (1, 1, 0, 3, 1, 1, 1))


def test_regime_mismatch_wins_over_odd_split():
    # l3 = 3 > l4 = 2 makes the half pieces (l4-l3)/2 = -1/2: both negative
    # and non-integral; the sign complaint is the meaningful one.
    with pytest.raises(RegimeMismatch):
        _scheme("Z7", (1, 1, 3, 2, 1, 1, 1))


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_instantiation_boundary_matches_the_piece_forms(name):
    # Over a grid of l3, l4, l5: a negative piece of some split is a regime
    # mismatch, else a fractional one an odd split, else every segment has
    # the length the oracle's forms give it.
    template = TEMPLATES[name]
    forms = _oracles.piece_forms(template)
    split_pieces = [n for _, names, _ in template.splits for n in names]
    for l3, l4, l5 in itertools.product(range(6), repeat=3):
        lengths = (1, 2, l3, l4, l5, 1, 3)
        size = {n: sum(map(Fraction.__mul__, f, lengths))
                for n, f in forms.items()}
        if any(size[n] < 0 for n in split_pieces):
            with pytest.raises(RegimeMismatch):
                instantiate_scheme(template, lengths)
        elif any(size[n].denominator != 1 for n in split_pieces):
            with pytest.raises(OddSplit):
                instantiate_scheme(template, lengths)
        else:
            segments = instantiate_scheme(template, lengths).segments
            for desc, segs in zip(template.layout, segments):
                assert [s.size for s in segs] == [
                    size[item] if isinstance(item, str)
                    else sum(size[n] for n in item[0])
                    for item in desc
                ], lengths


def test_z_boundary_degenerate_is_fine():
    # l3 = l4 leaves the upper half pieces empty but still valid.
    scheme = _scheme("Z7", (1, 1, 2, 2, 1, 1, 1))
    assert scheme.description_lengths == (3, 4, 7)
    rng = np.random.default_rng(3)
    _roundtrip_all_subsets(scheme, random_bundle((1, 1, 2, 2, 1, 1, 1), rng))


def test_instantiate_validates_lengths():
    with pytest.raises(ValueError):
        instantiate_scheme(TEMPLATES["X1"], (1, 2, 3))
    with pytest.raises(ValueError):
        instantiate_scheme(TEMPLATES["X1"], (1, -1, 1, 1, 1, 1, 1))


# ---------------------------------------------------------------------------
# Encoder/decoder error paths.
# ---------------------------------------------------------------------------

def test_encode_rejects_mismatched_bundle():
    scheme = _scheme("X1", (1,) * 7)
    bundle = SourceBundle([[1, 0]] + [[0]] * 6)
    with pytest.raises(LengthMismatch):
        encode(scheme, bundle)


def test_decode_requires_exactly_the_subset():
    scheme = _scheme("X1", (1,) * 7)
    enc = encode(scheme, random_bundle((1,) * 7, np.random.default_rng(4)))
    with pytest.raises(ValueError):
        decode(scheme, "G12", restrict(enc, "G1"))
    with pytest.raises(ValueError):
        decode(scheme, "G1", enc)  # extra descriptions supplied
    with pytest.raises(KeyError):
        decode(scheme, "G9", restrict(enc, "G1"))


def test_decode_rejects_truncated_description():
    scheme = _scheme("X1", (1,) * 7)
    # description 2 carries V1..V4 = 4 bits here; give it 3.
    with pytest.raises(LengthMismatch):
        decode(scheme, "G2", {2: np.zeros(3, np.uint8)})


def test_decode_accepts_plain_mapping():
    lengths = (1, 1, 3, 1, 1, 1, 1)
    scheme = _scheme("X5", lengths)
    bundle = random_bundle(lengths, np.random.default_rng(9))
    enc = encode(scheme, bundle)
    got = decode(scheme, "G13", {1: enc.bits[0], 3: enc.bits[2]})
    for k in range(5):
        np.testing.assert_array_equal(got[k], bundle.streams[k])


class _Pairs(Mapping):
    """A mapping that keeps its (key, value) pairs as given, even two keys
    that compare equal."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(v for k, v in self.pairs if k is key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def _x1_descriptions(packed: bool):
    """X1 at unit lengths, its descriptions, and the decode of that form."""
    scheme = _scheme("X1", (1,) * 7)
    enc = encode(scheme, random_bundle((1,) * 7, np.random.default_rng(6)))
    if packed:
        return scheme, [pack_bits(b) for b in enc.bits], decode_packed
    return scheme, list(enc.bits), decode


@pytest.mark.parametrize("packed", [False, True], ids=["arrays", "packed"])
@pytest.mark.parametrize("keys, error", [
    ((1.5,), "whole"), ((1.9,), "whole"), ((True,), "whole"),
    (("1",), "whole"), ((math.nan,), "whole"), ((math.inf,), "whole"),
    ((None,), "whole"), ((1, 1.5), "whole"),
    ((1, 1.0), "two keys"), ((np.int64(1), Fraction(1)), "two keys"),
], ids=["1.5", "1.9", "True", "str", "nan", "inf", "None", "1-and-1.5",
        "1-and-1.0", "int64-and-Fraction"])
def test_decode_refuses_keys_that_are_not_whole_or_name_one_description(
        packed, keys, error):
    # int() read 1.5, 1.9 and True as description 1, so they decoded, and
    # {1: d1, 1.5: d2} decoded d2 as description 1 and failed with a
    # LengthMismatch about its length.
    scheme, bits, fn = _x1_descriptions(packed)
    given = _Pairs([(key, bits[i]) for i, key in enumerate(keys)])
    with pytest.raises(ValueError, match=error) as info:
        fn(scheme, "G1", given)
    assert not isinstance(info.value, LengthMismatch)


@pytest.mark.parametrize("packed", [False, True], ids=["arrays", "packed"])
@pytest.mark.parametrize("key", [1.0, np.int64(1), Fraction(1)],
                         ids=["1.0", "int64", "Fraction"])
def test_decode_reads_any_whole_description_key(packed, key):
    scheme, bits, fn = _x1_descriptions(packed)
    got, want = (fn(scheme, "G1", {k: bits[0]}) for k in (key, 1))
    assert list(map(bytes, got)) == list(map(bytes, want))


def test_unresolvable_when_a_copy_is_missing():
    # A scheme that simply never transmits V1.
    scheme = DescriptionScheme("BAD", (1, 0, 0, 0, 0, 0, 0), ((), (), ()))
    with pytest.raises(Unresolvable):
        decode(scheme, "G1", {1: np.zeros(0, np.uint8)})


def test_unresolvable_when_xor_cannot_be_cancelled():
    # One description carrying only V1 xor V2: neither operand is pinned.
    seg = Xor((Piece(1, 0, 1),), (Piece(2, 0, 1),))
    scheme = DescriptionScheme("BAD", (1, 1, 0, 0, 0, 0, 0), ((seg,), (), ()))
    with pytest.raises(Unresolvable):
        decode(scheme, "G1", {1: np.ones(1, np.uint8)})


@pytest.mark.parametrize("piece", [
    Piece(1, 1, 3), Piece(2, 2, 1), Piece(8, 0, 1), Piece(0, 0, 1),
], ids=["past-end", "reversed", "stream-8", "stream-0"])
def test_encode_plan_refuses_a_piece_outside_its_stream(piece):
    for seg in (piece, Xor((piece,), (piece,))):
        scheme = DescriptionScheme("BAD", (2, 2, 0, 0, 0, 0, 0),
                                   ((Piece(1, 0, 1), seg), (), ()))
        with pytest.raises(ValueError, match="does not lie within"):
            encode_plan(scheme)


def test_encode_plan_refuses_xor_groups_of_unequal_length():
    seg = Xor((Piece(1, 0, 2),), (Piece(2, 0, 1), Piece(2, 1, 1)))
    scheme = DescriptionScheme("BAD", (2, 2, 0, 0, 0, 0, 0), ((seg,), (), ()))
    with pytest.raises(ValueError, match="different lengths"):
        encode_plan(scheme)


def test_restrict_masks_descriptions():
    enc = EncodedDescriptions([[1, 0], [1], [0, 0, 1]])
    only = restrict(enc, "G13")
    assert only.lengths == (2, None, 3)
    np.testing.assert_array_equal(only.bits[0], [1, 0])
    assert only.bits[1] is None


def test_restrict_keeps_the_input_arrays_without_a_second_scan(
        monkeypatch):
    enc = EncodedDescriptions([[1, 0], [1], [0, 0, 1]])

    def scan(bits):
        raise AssertionError("restrict read its input's bits again")

    monkeypatch.setattr("amld3.codec.as_bit_array", scan)
    for subset in SUBSETS:
        members = subset_members(subset)
        for i, (got, b) in enumerate(zip(restrict(enc, subset).bits,
                                         enc.bits), 1):
            assert got is (b if i in members else None), (subset, i)


def test_encoded_descriptions_validation():
    with pytest.raises(ValueError):
        EncodedDescriptions([[1], [0]])


def test_encode_is_deterministic():
    lengths = (2, 2, 4, 2, 2, 2, 2)
    scheme = _scheme("X8", lengths)
    bundle = random_bundle(lengths, np.random.default_rng(12))
    a = encode(scheme, bundle)
    b = encode(scheme, bundle)
    for x, y in zip(a.bits, b.bits):
        assert pack_bits(x) == pack_bits(y)


# ---------------------------------------------------------------------------
# Time sharing.
# ---------------------------------------------------------------------------

def _mix(parts, lengths) -> DescriptionScheme:
    """``compose_time_share`` of ``(label, weight)`` parts."""
    return compose_time_share(
        [(TEMPLATES[template_name_for_label(label)], w) for label, w in parts],
        lengths,
    )


def test_time_share_single_part_is_identity():
    lengths = (2,) * 7
    assert _mix([("X1", 1)], lengths) == _scheme("X1", lengths)


def test_time_share_midpoint_rates():
    lengths = (2,) * 7
    x1 = _scheme("X1", lengths)
    x2 = _scheme("X2", lengths)
    mix = _mix([("X1", Fraction(1, 2)), ("X2", Fraction(1, 2))], lengths)
    assert x1.description_lengths == (2, 8, 14)
    assert x2.description_lengths == (2, 12, 10)
    assert mix.description_lengths == (2, 10, 12)
    assert mix.label == "1/2*X1 + 1/2*X2"
    rng = np.random.default_rng(31)
    _roundtrip_all_subsets(mix, random_bundle(lengths, rng))


def test_time_share_uneven_weights_with_xor_part():
    lengths = (4, 4, 8, 4, 4, 4, 4)
    mix = _mix([("X1", Fraction(1, 4)), ("X5", Fraction(3, 4))], lengths)
    # quarter of X1 at (1,1,2,1,1,1,1) plus three quarters of X5 at
    # (3,3,6,3,3,3,3): (1,5,8) + (9,18,12).
    assert mix.description_lengths == (10, 23, 20)
    rng = np.random.default_rng(32)
    for _ in range(3):
        _roundtrip_all_subsets(mix, random_bundle(lengths, rng))


def _shifted(seg, offsets):
    """``seg`` with each piece moved ``offsets[stream - 1]`` bits on."""
    def move(p):
        off = offsets[p.stream - 1]
        return Piece(p.stream, p.start + off, p.stop + off)
    if isinstance(seg, Xor):
        return Xor(*(tuple(map(move, g)) for g in (seg.group_a, seg.group_b)))
    return move(seg)


QUARTER, HALF, THIRD = Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize("parts, lengths", [
    pytest.param((("X5", QUARTER), ("X6", QUARTER), ("X9", HALF)),
                 (4, 4, 12, 4, 4, 4, 4), id="X5+X6+X9"),
    pytest.param((("Z7", HALF), ("Z8", HALF)),
                 (4, 4, 4, 12, 4, 4, 4), id="Z7+Z8"),
    # Z7 alone splits V4 - V3 = 3 into halves of 3/2 bits here.
    pytest.param((("Z7", 2 * THIRD), ("Z5", THIRD)),
                 (3, 3, 3, 6, 3, 3, 3), id="Z7+Z5"),
])
def test_time_share_places_split_parts_past_bit_0(parts, lengths):
    # Each part's split pieces (V3.1/V3.2, or Z's half-splits of V4) start
    # where the parts before it end on their stream.
    mix = _mix(parts, lengths)
    want, offsets = [[], [], []], [0] * 7
    for label, w in parts:
        sl = [int(w * n) for n in lengths]
        own = _scheme(label, sl)
        for d in range(3):
            want[d] += [_shifted(seg, offsets) for seg in own.segments[d]]
        offsets = [o + n for o, n in zip(offsets, sl)]
    assert mix.segments == tuple(map(tuple, want))
    for subset in SUBSETS:
        plan = decode_plan(mix, subset)
        written = {o for o, _, _, _ in plan.runs}
        need = sum(lengths[:L1.level_of(subset)])
        assert written.issuperset(
            x for x in plan.bounds[:-1] if x < need
        ), subset
    bundle = random_bundle(lengths, np.random.default_rng(33))
    _roundtrip_all_subsets(mix, bundle)
    packed = encode_packed(mix, pack_bits(np.concatenate(bundle.streams)))
    assert packed == tuple(map(pack_bits, encode(mix, bundle).bits))
    for subset in SUBSETS:
        got = decode_packed(
            mix, subset, {d: packed[d - 1] for d in subset_members(subset)}
        )
        assert got == tuple(map(pack_bits, bundle.streams[:len(got)]))
        assert len(got) == L1.level_of(subset)


def test_z7_alone_splits_oddly_where_it_time_shares():
    with pytest.raises(OddSplit, match="V4.2 length 3/2"):
        _scheme("Z7", (3, 3, 3, 6, 3, 3, 3))


def test_time_share_weight_validation():
    lengths = (2,) * 7
    with pytest.raises(ValueError):
        _mix([], lengths)
    with pytest.raises(ValueError):
        _mix([("X1", Fraction(-1, 2)), ("X1", Fraction(3, 2))], lengths)
    with pytest.raises(ValueError):
        _mix([("X1", Fraction(1, 2)), ("X1", Fraction(1, 3))], lengths)


def test_time_share_reads_seven_whole_lengths():
    parts = [("X1", HALF), ("X2", HALF)]
    with pytest.raises(ValueError, match="need 7 stream lengths"):
        _mix(parts, (2,) * 6)
    with pytest.raises(ValueError, match="whole and non-negative"):
        _mix(parts, (2, 2, 2, 2, 2, 2, 2.5))


def test_time_share_non_integral_slices():
    with pytest.raises(NonIntegralSplit):
        _mix([("X1", Fraction(1, 2)), ("X2", Fraction(1, 2))], (1,) * 7)


def test_time_share_segments_are_disjoint_shifted_copies():
    lengths = (2,) * 7
    mix = _mix([("X1", Fraction(1, 2)), ("X2", Fraction(1, 2))], lengths)
    # Each stream's bits are covered exactly once across the two slices of
    # description 3 (which carries V1..V5/V1..V7 in both templates).
    seen = {}
    for seg in mix.segments[2]:
        assert isinstance(seg, Piece)
        seen.setdefault(seg.stream, []).append((seg.start, seg.stop))
    for stream, spans in sorted(seen.items()):
        spans.sort()
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 <= s1  # no overlap
