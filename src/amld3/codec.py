"""Bit-exact corner-point coding schemes for the L1 ordering.

A scheme template (:mod:`.catalog`, re-exported here) carves the streams
``V1..V7`` into *pieces* laid out into three descriptions, and
:func:`instantiate_scheme` binds one to stream lengths.  A description is a
concatenation of segments, each a verbatim copy of a piece or the bitwise
XOR of two equal-length operand concatenations — the network-coding
segments that let a corner point beat every concatenation-only layout.

Encoding and decoding are each compiled into a plan on each call, and each
plan has two replays, picked by the form of the input.  :func:`encode_plan`
walks the segments: each description is a list of aligned *runs*, a slice of
one stream copied or XORed with a slice of another.  :func:`decode_plan` cuts
the streams into *atoms* — at every piece boundary, carried across each XOR
run's alignment until no new cut appears — so that every bit of an atom is
known or none is.  It marks the atoms the copy runs reveal (the last copy of
an atom wins), then passes over the XOR segments in order, each filling its
second operand from its first and then its first from its second, until a
pass fills nothing.  Last, one reverse pass from the atoms of ``V1..Vk``
drops every copy and step that feeds none of them, so a decoder does only
what its level needs.  The plan reads no description bits, so its result
equals a bit-by-bit fixed point for any description content.

The array replays (:func:`encode`, :func:`decode`, on 0/1 uint8 arrays) are
the only code here that imports numpy.  The packed replays
(:func:`encode_packed`, :func:`decode_packed`) read packed ``.bits`` blobs
into Python ints, replay the same plans with shifts, masks and ``^``, and
return packed bytes.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from typing import Mapping, NamedTuple, Sequence, Union

from .catalog import (ALL_SCHEME_LABELS, TEMPLATES, SchemeTemplate,
                      template_name_for_label)
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
    """``bits`` as a flat uint8 array; ``ValueError`` unless each value, as
    given and before any cast, is exactly 0 or 1 (257, 0.5 and ``"1"`` are
    not).  A uint8 array costs one ``max()`` scan and is not copied."""
    import numpy as np

    arr = np.asarray(bits)
    if (arr.size and arr.max() > 1 if arr.dtype == np.uint8
            else not ((arr == 0) | (arr == 1)).all()):
        raise ValueError("bit arrays must contain only 0 and 1")
    arr = arr.astype(np.uint8, copy=False)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def _bit_count(n) -> int:
    """``n`` as an int; ``ValueError`` unless it is a whole number >= 0."""
    k = int(n)
    if k != n or k < 0:
        raise ValueError(f"bit counts must be whole and non-negative, got {n}")
    return k


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a 0/1 array into bytes, MSB first (zero-padded at the end)."""
    import numpy as np

    return np.packbits(as_bit_array(bits)).tobytes()


def check_packed(data: bytes, nbits: int) -> None:
    """Raise :class:`LengthMismatch` unless ``data`` has ceil(n/8) bytes
    (``ValueError`` unless ``nbits`` is a whole number >= 0)."""
    expected = (_bit_count(nbits) + 7) // 8
    if len(data) != expected:
        raise LengthMismatch(
            f"expected {expected} bytes for {nbits} bits, got {len(data)}"
        )


def _int_to_packed(value: int, nbits: int) -> bytes:
    """The ``nbits``-bit string ``value`` (first bit highest) packed as
    :func:`pack_bits` packs it, with zero padding bits."""
    return (value << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")


def unpack_bits(data: bytes, nbits: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; data must be exactly ceil(n/8) bytes.

    The padding bits after the n-th are ignored, not checked to be zero.
    """
    import numpy as np

    check_packed(data, nbits)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=nbits)


class SourceBundle(namedtuple("SourceBundle", "streams")):
    """The seven compressed source streams as 0/1 bit arrays."""

    __slots__ = ()

    def __new__(cls, streams: Sequence) -> SourceBundle:
        arrs = tuple(as_bit_array(s) for s in streams)
        if len(arrs) != 7:
            raise ValueError(f"expected 7 streams, got {len(arrs)}")
        return super().__new__(cls, arrs)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(int(s.size) for s in self.streams)

    def to_packed(self) -> bytes:
        import numpy as np

        return pack_bits(np.concatenate(self.streams))


def random_bundle(
    lengths: Sequence[int], rng: np.random.Generator
) -> SourceBundle:
    """Uniformly random bundle with the given stream lengths, each a whole
    number >= 0 (``ValueError`` otherwise)."""
    import numpy as np

    return SourceBundle([rng.integers(0, 2, size=_bit_count(n), dtype=np.uint8)
                         for n in lengths])


# ---------------------------------------------------------------------------
# Instantiation.
# ---------------------------------------------------------------------------

class Piece(NamedTuple):
    """Half-open bit range [start, stop) within one source stream."""

    stream: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


class Xor(NamedTuple):
    """Bitwise XOR of two equal-length operand concatenations."""

    group_a: tuple[Piece, ...]
    group_b: tuple[Piece, ...]

    @property
    def size(self) -> int:
        return sum(p.size for p in self.group_a)


Segment = Union[Piece, Xor]
"""A piece, copied verbatim, or an XOR of two piece groups."""


class DescriptionScheme(NamedTuple):
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

    Raises ``ValueError`` unless the seven lengths are whole numbers >= 0,
    :class:`RegimeMismatch` if any piece length comes out negative (the
    lengths sit in the wrong regime for this template) and
    :class:`OddSplit` if a half-split is not integral.
    """
    lengths = tuple(map(_bit_count, lengths))
    if len(lengths) != 7:
        raise ValueError(f"need 7 stream lengths, got {lengths}")
    return DescriptionScheme(
        template.name, lengths, _place(template, lengths, (0,) * 7), template
    )


def _place(template: SchemeTemplate, lengths, starts) -> tuple:
    """The segments of ``template``, stream k's slice from ``starts[k-1]``."""
    pieces: dict[str, Piece] = {
        f"V{k}": Piece(k, a, a + n)
        for k, (a, n) in enumerate(zip(starts, lengths), start=1)
    }
    for stream, names, exprs in template.splits:
        sizes = [sum(c * l for c, l in zip(expr, lengths)) for expr in exprs]
        for name, size in zip(names, sizes):
            if size < 0:
                raise RegimeMismatch(
                    f"template {template.name}: piece {name} would have "
                    f"length {size} at stream lengths {lengths}"
                )
        for name, size in zip(names, sizes):
            if Fraction(size).denominator != 1:
                raise OddSplit(
                    f"template {template.name}: piece {name} length {size} "
                    f"is not an integer at stream lengths {lengths}"
                )
        assert sum(sizes) == lengths[stream - 1]
        del pieces[f"V{stream}"]
        pos = starts[stream - 1]
        for name, size in zip(names, sizes):
            pieces[name] = Piece(stream, pos, pos + int(size))
            pos += int(size)

    def segment(item) -> Segment:
        if isinstance(item, str):
            return pieces[item]
        seg = Xor(*(tuple(pieces[n] for n in g) for g in item))
        assert seg.size == sum(p.size for p in seg.group_b)
        return seg

    return tuple(tuple(map(segment, group)) for group in template.layout)


# ---------------------------------------------------------------------------
# Encoding and decoding.
# ---------------------------------------------------------------------------

class EncodedDescriptions(namedtuple("EncodedDescriptions", "bits")):
    """The three description bitstreams (None marks an absent description)."""

    __slots__ = ()

    def __new__(cls, bits: Sequence) -> EncodedDescriptions:
        vals = tuple(
            None if b is None else as_bit_array(b) for b in bits
        )
        if len(vals) != 3:
            raise ValueError("expected 3 descriptions")
        return super().__new__(cls, vals)

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


# ---------------------------------------------------------------------------
# Plans.
# ---------------------------------------------------------------------------

Run = tuple[int, tuple[int, int], tuple[int, int] | None, int]
"""``(offset, (stream, start), (stream, start) | None, n)``: the ``n``
description bits from ``offset`` on are the ``n`` stream bits from the first
position, XORed with those from the second if there is one."""


def _source(lengths: Sequence[int], p: Piece) -> tuple[int, int]:
    """``(stream, start)`` of a piece, checked to lie within its stream."""
    if not (1 <= p.stream <= 7
            and 0 <= p.start <= p.stop <= lengths[p.stream - 1]):
        raise ValueError(f"{p} does not lie within stream lengths {lengths}")
    return p.stream, p.start


def _runs(lengths: Sequence[int], seg: Segment, o: int) -> tuple[Run, ...]:
    """Aligned runs of a segment that starts at description offset ``o``."""
    if isinstance(seg, Piece):
        if not seg.size:
            return ()
        return ((o, _source(lengths, seg), None, seg.size),)
    a_spans, b_spans = (
        [(_source(lengths, p), p.size) for p in reversed(group) if p.size]
        for group in (seg.group_a, seg.group_b)
    )
    if sum(n for _, n in a_spans) != sum(n for _, n in b_spans):
        raise ValueError(f"XOR operands of different lengths in {seg}")
    runs = []
    while a_spans:
        ((sa, a), na), ((sb, b), nb) = a_spans.pop(), b_spans.pop()
        n = min(na, nb)
        runs.append((o, (sa, a), (sb, b), n))
        o += n
        if na > n:
            a_spans.append(((sa, a + n), na - n))
        if nb > n:
            b_spans.append(((sb, b + n), nb - n))
    return tuple(runs)


def encode_plan(
    scheme: DescriptionScheme,
) -> tuple[tuple[int, tuple[tuple[Run, ...], ...]], ...]:
    """Compile the layout of ``scheme``: for each description, its bit
    length and the runs (see :data:`Run`) of each of its segments, in
    order.  The runs of a description tile it.

    Raises ValueError for a piece outside its stream or an XOR of operands
    of different lengths.
    """
    plan = []
    for segs in scheme.segments:
        o, runs = 0, []
        for seg in segs:
            runs.append(_runs(scheme.lengths, seg, o))
            o += seg.size
        plan.append((o, tuple(runs)))
    return tuple(plan)


class DecodePlan(NamedTuple):
    """What one decoder subset does under one scheme, for any description bits.

    The concatenation V1..V7 is cut into *atoms*, atom ``i`` being the bit
    range ``[bounds[i], bounds[i + 1])``; every bit of an atom is recovered
    or none is.  ``copies`` maps each atom taken from a copy run to the
    ``(description, offset)`` of its last copy.  ``steps`` are the XOR fills
    ``(target atom, source atom, description, offset)`` in the order they
    happen: the target is the source XOR the description bits at the offset.
    Only the copies and steps that feed an atom of V1..V_level are kept.
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
    layout = encode_plan(scheme)
    copied, rules = [], []
    for d in subset_members(subset):
        for runs in layout[d - 1][1]:
            rule = []
            for o, (s, a), partner, n in runs:
                if partner is None:
                    copied.append((offsets[s - 1] + a, n, d, o))
                else:
                    b = offsets[partner[0] - 1] + partner[1]
                    rule.append((offsets[s - 1] + a, b, n, d, o))
            if rule:
                rules.append(rule)

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

    # Keep, from the last step back, each step whose target is still
    # needed: it is the last write of that atom before anything reads it.
    need = set(range(atom[offsets[level]]))
    kept = []
    for t, i, d, o in reversed(steps):
        if t in need:
            need.remove(t)
            need.add(i)
            kept.append((t, i, d, o))
    return DecodePlan(
        level, offsets, bounds,
        {i: c for i, c in copies.items() if i in need}, tuple(kept[::-1]),
    )


# ---------------------------------------------------------------------------
# Array replays.
# ---------------------------------------------------------------------------

def encode(scheme: DescriptionScheme, bundle: SourceBundle) -> EncodedDescriptions:
    """Produce the three description bitstreams for a source bundle."""
    import numpy as np

    if bundle.lengths != scheme.lengths:
        raise LengthMismatch(
            f"bundle lengths {bundle.lengths} do not match scheme "
            f"lengths {scheme.lengths}"
        )
    streams = bundle.streams
    out = []
    for nbits, segments in encode_plan(scheme):
        buf = np.empty(nbits, dtype=np.uint8)
        for o, (s, a), partner, n in chain.from_iterable(segments):
            if partner is None:
                buf[o:o + n] = streams[s - 1][a:a + n]
            else:
                sb, b = partner
                np.bitwise_xor(streams[s - 1][a:a + n],
                               streams[sb - 1][b:b + n], out=buf[o:o + n])
        out.append(buf)
    # Each buffer is a 1-D uint8 array that the runs tile with copies and
    # XORs of 0/1 stream bits, so it needs no second scan for values > 1.
    return EncodedDescriptions._make((tuple(out),))


def _check_members(subset: str, given: Mapping) -> None:
    """Raise unless ``given`` holds exactly the descriptions of ``subset``."""
    if subset not in SUBSET_MASKS:
        raise KeyError(f"unknown decoder subset {subset!r}")
    members = set(subset_members(subset))
    if set(given) != members:
        raise ValueError(
            f"decoder {subset} expects exactly descriptions {members}, "
            f"got {set(given)}"
        )


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
    import numpy as np

    if isinstance(available, EncodedDescriptions):
        given = {
            i: available.bits[i - 1]
            for i in (1, 2, 3)
            if available.bits[i - 1] is not None
        }
    else:
        given = {int(i): as_bit_array(b) for i, b in available.items()}
    _check_members(subset, given)
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
# Packed replays.
# ---------------------------------------------------------------------------

def _slicer(data: bytes, nbits: int):
    """``take(start, n)``: bits ``[start, start + n)`` of the ``nbits``-bit
    packed blob ``data`` as an int, first bit highest.  Raises
    :class:`LengthMismatch` unless ``data`` has ceil(nbits/8) bytes."""
    check_packed(data, nbits)

    def take(start: int, n: int) -> int:
        lo, hi = start >> 3, (start + n + 7) >> 3
        value = int.from_bytes(data[lo:hi], "big")
        return (value >> (8 * hi - start - n)) & ((1 << n) - 1)
    return take


def encode_packed(
    scheme: DescriptionScheme, data: bytes
) -> tuple[bytes, bytes, bytes]:
    """Encode a packed bundle into the three packed descriptions.

    ``data`` holds the streams V1..V7 back to back, as
    :meth:`SourceBundle.to_packed` writes them; it must have ceil(n/8)
    bytes for the n bits of the scheme's streams (:class:`LengthMismatch`
    otherwise), and its padding bits are ignored.  The result equals
    :func:`pack_bits` of each description :func:`encode` produces.
    """
    take = _slicer(data, sum(scheme.lengths))
    offsets = (0, *accumulate(scheme.lengths))
    out = []
    for nbits, segments in encode_plan(scheme):
        value = 0
        for _, (s, a), partner, n in chain.from_iterable(segments):
            x = take(offsets[s - 1] + a, n)
            if partner is not None:
                x ^= take(offsets[partner[0] - 1] + partner[1], n)
            value = (value << n) | x
        out.append(_int_to_packed(value, nbits))
    return tuple(out)


def decode_packed(
    scheme: DescriptionScheme, subset: str, available: Mapping[int, bytes]
) -> tuple[bytes, ...]:
    """Recover packed streams V1..V_k for a decoder subset (k = its level).

    ``available`` maps exactly the descriptions of ``subset`` to their
    packed bits, each of ceil(n/8) bytes for its n bits
    (:class:`LengthMismatch` otherwise); padding bits are ignored.  The
    result equals :func:`pack_bits` of each stream :func:`decode` returns.
    """
    given = {int(i): data for i, data in available.items()}
    _check_members(subset, given)
    dlen = scheme.description_lengths
    take = {i: _slicer(data, dlen[i - 1]) for i, data in given.items()}
    plan = decode_plan(scheme, subset)
    bounds = plan.bounds
    atoms = {
        i: take[d](o, bounds[i + 1] - bounds[i])
        for i, (d, o) in plan.copies.items()
    }
    for t, i, d, o in plan.steps:
        atoms[t] = atoms[i] ^ take[d](o, bounds[t + 1] - bounds[t])
    out, i = [], 0
    for end, n in zip(plan.offsets[1:plan.level + 1], scheme.lengths):
        value = 0
        while bounds[i] < end:
            value = (value << (bounds[i + 1] - bounds[i])) | atoms[i]
            i += 1
        out.append(_int_to_packed(value, n))
    return tuple(out)


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

    segments: list[tuple[Segment, ...]] = [(), (), ()]
    offsets = [0] * 7
    for (scheme, _), sl in zip(pairs, slice_lengths):
        for d, segs in enumerate(_place(scheme.template, sl, offsets)):
            segments[d] += segs
        offsets = [o + n for o, n in zip(offsets, sl)]
    assert tuple(offsets) == base
    label = " + ".join(f"{w}*{s.label}" for s, w in pairs)
    return DescriptionScheme(label, base, tuple(segments), None)
