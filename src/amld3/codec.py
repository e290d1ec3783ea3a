"""Bit-exact corner-point coding schemes for the L1 ordering.

A scheme template describes how the seven compressed source streams
``V1..V7`` (bit arrays of lengths ``l1..l7``) are carved into *pieces* and
laid out into three descriptions.  A description is a concatenation of
segments, each either a verbatim copy of a piece or the bitwise XOR of two
equal-length operand concatenations — the network-coding segments that let a
corner point beat every concatenation-only layout.

Templates carve streams with *splits*: ``V3 -> V3.1, V3.2`` cuts a stream
into consecutive pieces whose lengths are fixed linear expressions in
``l1..l7``.  A template is applicable only where all its piece lengths are
non-negative integers; :class:`RegimeMismatch` and :class:`OddSplit` report
the two ways that can fail.

Decoding is compiled, then replayed.  :func:`decode_plan` cuts the streams
into *atoms* — at every piece boundary, carried across each XOR segment's
alignment until no new cut appears — so that every bit of an atom is known
or none is.  It marks the atoms the copy segments reveal (the last copy of
an atom wins), then passes over the XOR segments in order, each filling its
second operand from its first and then its first from its second, until a
pass fills nothing.  :func:`decode` replays that plan on the description
bits: one slice copy per copied atom and one XOR per recovered atom, into a
fresh buffer.  The plan reads no description bits, so its result equals a
bit-by-bit fixed point for any scheme and any description content, and a
complete plan proves decodability for every bundle of the scheme's lengths.
For every catalog scheme each of the seven decoder subsets recovers exactly
the streams its level promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Mapping, Sequence, Union

import numpy as np

from .ordering import L1, SUBSET_MASKS, subset_members


class RegimeMismatch(ValueError):
    """The stream lengths violate the template's applicability condition."""


class OddSplit(ValueError):
    """A half-split piece length is not an integer."""


class LengthMismatch(ValueError):
    """Bit lengths do not match what the scheme expects."""


class Unresolvable(ValueError):
    """The available descriptions cannot determine a required stream."""


class NonIntegralSplit(ValueError):
    """Time-share weights split some stream into non-integer bit counts."""


# ---------------------------------------------------------------------------
# Bit utilities.
# ---------------------------------------------------------------------------

def as_bit_array(bits) -> np.ndarray:
    """Validate and convert to a uint8 array of 0/1 values."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size and arr.max() > 1:
        raise ValueError("bit arrays must contain only 0 and 1")
    return arr


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 array into bytes, MSB first (zero-padded at the end)."""
    return np.packbits(as_bit_array(bits)).tobytes()


def unpack_bits(data: bytes, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; data must be exactly ceil(n/8) bytes.

    The padding bits after the n-th are ignored, not checked to be zero.
    """
    expected = (nbits + 7) // 8
    if len(data) != expected:
        raise LengthMismatch(
            f"expected {expected} bytes for {nbits} bits, got {len(data)}"
        )
    if nbits == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)


@dataclass(frozen=True)
class SourceBundle:
    """The seven compressed source streams as 0/1 bit arrays."""

    streams: tuple[np.ndarray, ...]

    def __init__(self, streams: Sequence) -> None:
        arrs = tuple(as_bit_array(s) for s in streams)
        if len(arrs) != 7:
            raise ValueError(f"expected 7 streams, got {len(arrs)}")
        object.__setattr__(self, "streams", arrs)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(int(s.size) for s in self.streams)

    @classmethod
    def from_packed(cls, data: bytes, lengths: Sequence[int]) -> "SourceBundle":
        """Identity ingestion: slice a packed bit blob into the 7 streams."""
        lengths = tuple(int(x) for x in lengths)
        total = sum(lengths)
        flat = unpack_bits(data, total)
        streams, pos = [], 0
        for n in lengths:
            streams.append(flat[pos:pos + n])
            pos += n
        return cls(streams)

    def to_packed(self) -> bytes:
        return pack_bits(
            np.concatenate(self.streams) if any(self.lengths)
            else np.zeros(0, dtype=np.uint8)
        )


def random_bundle(
    lengths: Sequence[int], rng: np.random.Generator
) -> SourceBundle:
    """Uniformly random bundle with the given stream lengths."""
    return SourceBundle(
        [rng.integers(0, 2, size=int(n), dtype=np.uint8) for n in lengths]
    )


# ---------------------------------------------------------------------------
# Templates.
# ---------------------------------------------------------------------------

def _lin(**kw) -> tuple[Fraction, ...]:
    """Linear length expression over l1..l7, e.g. _lin(l3=1, l4=-1)."""
    v = [Fraction(0)] * 7
    for key, coef in kw.items():
        v[int(key[1:]) - 1] = Fraction(coef)
    return tuple(v)


@dataclass(frozen=True)
class SplitRule:
    """Cut one stream into consecutive pieces of prescribed lengths."""

    stream: int
    names: tuple[str, ...]
    lengths: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class SchemeTemplate:
    """Symbolic layout of one corner-point coding scheme."""

    name: str
    splits: tuple[SplitRule, ...]
    layout: tuple[tuple, tuple, tuple]


def _c(piece: str):
    return ("copy", piece)


def _x(group_a, group_b):
    return ("xor", tuple(group_a), tuple(group_b))


def _t(name, splits, g1, g2, g3) -> SchemeTemplate:
    spec = tuple(
        tuple(_c(s) if isinstance(s, str) else s for s in g)
        for g in (g1, g2, g3)
    )
    return SchemeTemplate(name, tuple(splits), spec)


HALF = Fraction(1, 2)

_SPLIT3_45 = SplitRule(
    3, ("V3.1", "V3.2"), (_lin(l3=1, l4=-1, l5=-1), _lin(l4=1, l5=1))
)
_SPLIT3_4 = SplitRule(3, ("V3.1", "V3.2"), (_lin(l3=1, l4=-1), _lin(l4=1)))
_SPLIT5_Y = SplitRule(
    5, ("V5.1", "V5.2"), (_lin(l3=1, l4=-1), _lin(l4=1, l5=1, l3=-1))
)
_SPLIT4_Z = SplitRule(4, ("V4.1", "V4.2"), (_lin(l3=1), _lin(l4=1, l3=-1)))
_SPLIT4_ZH = SplitRule(
    4,
    ("V4.1", "V4.2", "V4.3"),
    (_lin(l3=1), _lin(l4=HALF, l3=-HALF), _lin(l4=HALF, l3=-HALF)),
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

ALL_SCHEME_LABELS: tuple[str, ...] = (
    tuple(f"X{i}" for i in range(1, 11))
    + tuple(f"Y{i}" for i in range(1, 13))
    + tuple(f"Z{i}" for i in range(1, 11))
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


# ---------------------------------------------------------------------------
# Instantiation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """Half-open bit range [start, stop) within one source stream."""

    stream: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class Copy:
    piece: Piece

    @property
    def size(self) -> int:
        return self.piece.size


@dataclass(frozen=True)
class Xor:
    """Bitwise XOR of two equal-length operand concatenations."""

    group_a: tuple[Piece, ...]
    group_b: tuple[Piece, ...]

    @property
    def size(self) -> int:
        return sum(p.size for p in self.group_a)


Segment = Union[Copy, Xor]


@dataclass(frozen=True)
class DescriptionScheme:
    """A template bound to concrete stream lengths."""

    label: str
    lengths: tuple[int, ...]
    segments: tuple[tuple[Segment, ...], ...]
    template: SchemeTemplate | None = None

    @property
    def description_lengths(self) -> tuple[int, int, int]:
        """Bit length of each of the three descriptions."""
        return tuple(
            sum(s.size for s in segs) for segs in self.segments
        )


def instantiate_scheme(
    template: SchemeTemplate, lengths: Sequence[int]
) -> DescriptionScheme:
    """Bind a template to stream lengths, resolving pieces to bit ranges.

    Raises :class:`RegimeMismatch` if any piece length comes out negative
    (the lengths sit in the wrong regime for this template) and
    :class:`OddSplit` if a half-split is not integral.
    """
    lengths = tuple(int(x) for x in lengths)
    if len(lengths) != 7 or any(x < 0 for x in lengths):
        raise ValueError(f"need 7 non-negative stream lengths, got {lengths}")
    pieces: dict[str, Piece] = {
        f"V{k}": Piece(k, 0, lengths[k - 1]) for k in range(1, 8)
    }
    for rule in template.splits:
        sizes = [
            sum(c * l for c, l in zip(expr, lengths))
            for expr in rule.lengths
        ]
        for name, size in zip(rule.names, sizes):
            if size < 0:
                raise RegimeMismatch(
                    f"template {template.name}: piece {name} would have "
                    f"length {size} at stream lengths {lengths}"
                )
        for name, size in zip(rule.names, sizes):
            if Fraction(size).denominator != 1:
                raise OddSplit(
                    f"template {template.name}: piece {name} length {size} "
                    f"is not an integer at stream lengths {lengths}"
                )
        assert sum(sizes) == lengths[rule.stream - 1]
        del pieces[f"V{rule.stream}"]
        pos = 0
        for name, size in zip(rule.names, sizes):
            pieces[name] = Piece(rule.stream, pos, pos + int(size))
            pos += int(size)
    segments = []
    for group in template.layout:
        segs: list[Segment] = []
        for item in group:
            if item[0] == "copy":
                segs.append(Copy(pieces[item[1]]))
            else:
                ga = tuple(pieces[n] for n in item[1])
                gb = tuple(pieces[n] for n in item[2])
                seg = Xor(ga, gb)
                assert seg.size == sum(p.size for p in gb)
                segs.append(seg)
        segments.append(tuple(segs))
    return DescriptionScheme(
        template.name, lengths, tuple(segments), template
    )


# ---------------------------------------------------------------------------
# Encoding and decoding.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedDescriptions:
    """The three description bitstreams (None marks an absent description)."""

    bits: tuple

    def __init__(self, bits: Sequence) -> None:
        vals = tuple(
            None if b is None else as_bit_array(b) for b in bits
        )
        if len(vals) != 3:
            raise ValueError("expected 3 descriptions")
        object.__setattr__(self, "bits", vals)

    @property
    def lengths(self) -> tuple:
        return tuple(
            None if b is None else int(b.size) for b in self.bits
        )


def restrict(enc: EncodedDescriptions, subset: str) -> EncodedDescriptions:
    """Keep only the descriptions a decoder subset receives."""
    members = subset_members(subset)
    return EncodedDescriptions(
        [
            enc.bits[i - 1] if i in members else None
            for i in (1, 2, 3)
        ]
    )


def _gather(streams: Sequence[np.ndarray], group: Sequence[Piece]):
    parts = [streams[p.stream - 1][p.start:p.stop] for p in group]
    if not parts:
        return np.zeros(0, dtype=np.uint8)
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def encode(scheme: DescriptionScheme, bundle: SourceBundle) -> EncodedDescriptions:
    """Produce the three description bitstreams for a source bundle."""
    if bundle.lengths != scheme.lengths:
        raise LengthMismatch(
            f"bundle lengths {bundle.lengths} do not match scheme "
            f"lengths {scheme.lengths}"
        )
    out = []
    for segs in scheme.segments:
        parts = []
        for seg in segs:
            if isinstance(seg, Copy):
                parts.append(_gather(bundle.streams, (seg.piece,)))
            else:
                a = _gather(bundle.streams, seg.group_a)
                b = _gather(bundle.streams, seg.group_b)
                parts.append(np.bitwise_xor(a, b))
        out.append(
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint8)
        )
    return EncodedDescriptions(out)


def _start(offsets: Sequence[int], lengths: Sequence[int], p: Piece) -> int:
    """Position of a piece's first bit in the concatenation V1..V7."""
    if not (1 <= p.stream <= 7
            and 0 <= p.start <= p.stop <= lengths[p.stream - 1]):
        raise ValueError(f"{p} does not lie within stream lengths {lengths}")
    return offsets[p.stream - 1] + p.start


def _runs(offsets: Sequence[int], lengths: Sequence[int], seg: Xor) -> list:
    """Aligned runs ``(a, b, n, o)`` of an XOR segment: bit ``a + i`` of the
    concatenated streams meets bit ``b + i`` at segment offset ``o + i``."""
    a_spans, b_spans = (
        [(_start(offsets, lengths, p), p.size) for p in reversed(group)
         if p.size]
        for group in (seg.group_a, seg.group_b)
    )
    if sum(n for _, n in a_spans) != sum(n for _, n in b_spans):
        raise ValueError(f"XOR operands of different lengths in {seg}")
    runs, o = [], 0
    while a_spans:
        (a, na), (b, nb) = a_spans.pop(), b_spans.pop()
        n = min(na, nb)
        runs.append((a, b, n, o))
        o += n
        if na > n:
            a_spans.append((a + n, na - n))
        if nb > n:
            b_spans.append((b + n, nb - n))
    return runs


@dataclass(frozen=True)
class DecodePlan:
    """What one decoder subset does under one scheme, for any description bits.

    The concatenation V1..V7 is cut into *atoms*, atom ``i`` being the bit
    range ``[bounds[i], bounds[i + 1])``; every bit of an atom is recovered
    or none is.  ``copies`` maps each atom a copy segment carries to the
    ``(description, offset)`` of its last copy.  ``steps`` are the XOR fills
    ``(target atom, source atom, description, offset)`` in the order they
    happen: the target is the source XOR the description bits at the offset.
    """

    level: int
    offsets: tuple[int, ...]
    bounds: tuple[int, ...]
    copies: Mapping[int, tuple[int, int]]
    steps: tuple[tuple[int, int, int, int], ...]


def decode_plan(scheme: DescriptionScheme, subset: str) -> DecodePlan:
    """Compile the decode of ``subset`` under ``scheme`` (L1 levels).

    Raises :class:`Unresolvable` if the subset's descriptions cannot
    determine some stream it must recover.  The plan does not look at
    description bits, so a plan proves decodability for every bundle of
    the scheme's stream lengths.
    """
    level = L1.level_of(subset)
    lengths = scheme.lengths
    offsets = (0, *accumulate(lengths))
    copied, rules = [], []
    for d in subset_members(subset):
        o = 0
        for seg in scheme.segments[d - 1]:
            if isinstance(seg, Copy):
                if seg.size:
                    start = _start(offsets, lengths, seg.piece)
                    copied.append((start, seg.size, d, o))
            else:
                runs = _runs(offsets, lengths, seg)
                rules.append([(a, b, n, d, o + r) for a, b, n, r in runs])
            o += seg.size

    # Cut at every stream and piece boundary, then carry each cut across
    # every XOR alignment until no new cut appears.
    cuts = set(offsets)
    for start, n, _, _ in copied:
        cuts.update((start, start + n))
    links = [(a, b, n) for rule in rules for a, b, n, _, _ in rule]
    for a, b, n in links:
        cuts.update((a, a + n, b, b + n))
    todo = list(cuts)
    while todo:
        c = todo.pop()
        for a, b, n in links:
            for x, y in ((a, b), (b, a)):
                if x < c < x + n and y + c - x not in cuts:
                    cuts.add(y + c - x)
                    todo.append(y + c - x)
    bounds = tuple(sorted(cuts))
    atom = {c: i for i, c in enumerate(bounds)}

    copies = {}
    for start, n, d, o in copied:
        for i in range(atom[start], atom[start + n]):
            copies[i] = (d, o + bounds[i] - start)
    pairs = [
        [
            (i, atom[b + bounds[i] - a], d, o + bounds[i] - a)
            for a, b, n, d, o in rule
            for i in range(atom[a], atom[a + n])
        ]
        for rule in rules
    ]

    # Each pass runs the rules in order; a rule fills b-side atoms from
    # known a-side ones and then a-side from b-side, both judged on what
    # was known before the rule.
    known = set(copies)
    steps = []
    changed = True
    while changed:
        changed = False
        for rule in pairs:
            fills = [(b, a, d, o) for a, b, d, o in rule
                     if a in known and b not in known]
            fills += [(a, b, d, o) for a, b, d, o in rule
                      if b in known and a not in known]
            known.update(t for t, _, _, _ in fills)
            steps += fills
            changed = changed or bool(fills)

    for k in range(level):
        if not known.issuperset(range(atom[offsets[k]], atom[offsets[k + 1]])):
            raise Unresolvable(
                f"decoder {subset} cannot determine stream V{k + 1} "
                f"under scheme {scheme.label}"
            )
    return DecodePlan(level, offsets, bounds, copies, tuple(steps))


def decode(
    scheme: DescriptionScheme,
    subset: str,
    available: EncodedDescriptions | Mapping[int, np.ndarray],
):
    """Recover streams V1..V_k for a decoder subset (k = its L1 level).

    ``available`` must contain exactly the descriptions named by ``subset``
    (an :class:`EncodedDescriptions` with None elsewhere, or a mapping from
    description index to bit array).  Raises :class:`Unresolvable` if some
    required stream cannot be determined — which never happens for catalog
    schemes.  The streams returned are views of one new buffer; the
    descriptions are only read.
    """
    if subset not in SUBSET_MASKS:
        raise KeyError(f"unknown decoder subset {subset!r}")
    members = subset_members(subset)
    if isinstance(available, EncodedDescriptions):
        given = {
            i: available.bits[i - 1]
            for i in (1, 2, 3)
            if available.bits[i - 1] is not None
        }
    else:
        given = {int(i): as_bit_array(b) for i, b in available.items()}
    if set(given) != set(members):
        raise ValueError(
            f"decoder {subset} expects exactly descriptions {set(members)}, "
            f"got {set(given)}"
        )
    dlen = scheme.description_lengths
    for i, arr in given.items():
        if arr.size != dlen[i - 1]:
            raise LengthMismatch(
                f"description {i} has {arr.size} bits, scheme produces "
                f"{dlen[i - 1]}"
            )

    plan = decode_plan(scheme, subset)
    bounds, offsets = plan.bounds, plan.offsets
    buf = np.empty(offsets[-1], dtype=np.uint8)
    for i, (d, o) in plan.copies.items():
        lo, hi = bounds[i], bounds[i + 1]
        buf[lo:hi] = given[d][o:o + hi - lo]
    for t, i, d, o in plan.steps:
        lo, hi, src = bounds[t], bounds[t + 1], bounds[i]
        np.bitwise_xor(
            buf[src:src + hi - lo], given[d][o:o + hi - lo], out=buf[lo:hi]
        )
    return tuple(buf[offsets[k]:offsets[k + 1]] for k in range(plan.level))


# ---------------------------------------------------------------------------
# Time sharing.
# ---------------------------------------------------------------------------

def compose_time_share(parts: Sequence[tuple]) -> DescriptionScheme:
    """Time-share catalog schemes over blocks of the same source.

    Each part is ``(scheme, weight)``; weights are positive rationals that
    sum to 1.  Part p operates on its own slice of every stream, of size
    ``weight * l_k`` — every such product must be an integer, otherwise
    :class:`NonIntegralSplit` is raised.  A single part of weight 1 returns
    the scheme unchanged.
    """
    if not parts:
        raise ValueError("need at least one (scheme, weight) part")
    pairs = [(s, Fraction(w)) for s, w in parts]
    for _, w in pairs:
        if w <= 0:
            raise ValueError(f"weights must be positive, got {w}")
    if sum(w for _, w in pairs) != 1:
        raise ValueError("weights must sum to 1")
    base = pairs[0][0].lengths
    for s, _ in pairs:
        if s.lengths != base:
            raise LengthMismatch(
                "all time-shared schemes must target the same stream lengths"
            )
    if len(pairs) == 1:
        return pairs[0][0]
    for s, _ in pairs:
        if s.template is None:
            raise ValueError(
                "time sharing requires catalog schemes (with a template)"
            )
    slice_lengths = []
    for _, w in pairs:
        sl = [w * l for l in base]
        for k, v in enumerate(sl):
            if v.denominator != 1:
                raise NonIntegralSplit(
                    f"weight {w} splits stream V{k + 1} of length "
                    f"{base[k]} into a non-integer number of bits"
                )
        slice_lengths.append([int(v) for v in sl])

    segments: list[list[Segment]] = [[], [], []]
    offsets = [0] * 7
    for (scheme, w), sl in zip(pairs, slice_lengths):
        inst = instantiate_scheme(scheme.template, sl)

        def shift(p: Piece) -> Piece:
            off = offsets[p.stream - 1]
            return Piece(p.stream, p.start + off, p.stop + off)

        for d in range(3):
            for seg in inst.segments[d]:
                if isinstance(seg, Copy):
                    segments[d].append(Copy(shift(seg.piece)))
                else:
                    segments[d].append(
                        Xor(
                            tuple(shift(p) for p in seg.group_a),
                            tuple(shift(p) for p in seg.group_b),
                        )
                    )
        for k in range(7):
            offsets[k] += sl[k]
    assert tuple(offsets) == base
    label = " + ".join(f"{w}*{s.label}" for s, w in pairs)
    return DescriptionScheme(
        label, base, tuple(tuple(g) for g in segments), None
    )
