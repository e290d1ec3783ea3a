"""Bit-exact corner-point coding schemes for the L1 ordering.

A scheme template (``SchemeTemplate``, from :mod:`.catalog`) carves the
streams ``V1..V7`` into *pieces* laid out into three descriptions, and
:func:`instantiate_scheme` binds one to stream lengths.  A description is a
concatenation of segments, each a verbatim copy of a piece or the bitwise
XOR of two equal-length operand concatenations — the network-coding
segments that let a corner point beat every concatenation-only layout.

Each call compiles its scheme into *runs* (:data:`Run`), with
:func:`encode_plan` or :func:`decode_plan`, and replays them: with
:func:`_replay` on 0/1 uint8 arrays, or with :func:`_replay_packed` on
packed bytes, which never loads numpy.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
from operator import mul
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

from .ordering import L1, SUBSET_MASKS, subset_members

if TYPE_CHECKING:
    from .catalog import SchemeTemplate


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
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = -1  # inf, nan, None, a list: refused below
    if k != n or k < 0:
        raise ValueError(f"bit counts must be whole and non-negative, got {n!r}")
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

    @property
    def description_lengths(self) -> tuple[int, int, int]:
        """Bit length of each of the three descriptions."""
        return tuple(sum(s.size for s in segs) for segs in self.segments)


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
        template.name, lengths, _place(template, lengths, (0,) * 7)
    )


def _place(template: SchemeTemplate, lengths, starts) -> tuple:
    """The segments of ``template``, stream k's slice from ``starts[k-1]``:
    each split form, at ``lengths``, is twice its piece's size."""
    pieces: dict[str, Piece] = {
        f"V{k}": Piece(k, a, a + n)
        for k, (a, n) in enumerate(zip(starts, lengths), start=1)
    }
    for stream, names, forms in template.splits:
        twice = [sum(map(mul, form, lengths)) for form in forms]
        for name, t in zip(names, twice):
            if t < 0:
                raise RegimeMismatch(
                    f"template {template.name}: piece {name} would have "
                    f"length {Fraction(t, 2)} at stream lengths {lengths}"
                )
        for name, t in zip(names, twice):
            if t % 2:
                raise OddSplit(
                    f"template {template.name}: piece {name} length "
                    f"{Fraction(t, 2)} is not an integer at stream lengths "
                    f"{lengths}"
                )
        assert sum(twice) == 2 * lengths[stream - 1]
        del pieces[f"V{stream}"]
        pos = starts[stream - 1]
        for name, t in zip(names, twice):
            pieces[name] = Piece(stream, pos, pos + t // 2)
            pos += t // 2

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
        vals = tuple(None if b is None else as_bit_array(b) for b in bits)
        if len(vals) != 3:
            raise ValueError("expected 3 descriptions")
        return super().__new__(cls, vals)

    @property
    def lengths(self) -> tuple:
        return tuple(None if b is None else int(b.size) for b in self.bits)


def restrict(enc: EncodedDescriptions, subset: str) -> EncodedDescriptions:
    """Keep only the descriptions a decoder subset receives: the input's
    own arrays, which were checked when it was built, and None elsewhere."""
    members = subset_members(subset)
    return EncodedDescriptions._make((tuple(
        b if i in members else None for i, b in enumerate(enc.bits, 1)
    ),))


# ---------------------------------------------------------------------------
# Plans.
# ---------------------------------------------------------------------------

Run = tuple[int, tuple[int, int], tuple[int, int] | None, int]
"""``(offset, (source, start), (source, start) | None, n)``: the ``n``
output bits from ``offset`` on are the ``n`` bits of the first source from
its start, XORed with those of the second if there is one.  Source k >= 1
is input k, stream Vk of an encode or description k of a decode; source 0
is the output itself, read only where an earlier run wrote it."""


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

    The output is V1..V7 back to back, stream k from ``offsets[k - 1]``,
    cut into *atoms*, atom ``i`` being the bit range
    ``[bounds[i], bounds[i + 1])``; every bit of an atom is recovered or
    none is.  Each of the ``runs`` (see :data:`Run`) writes one whole atom
    that no other run writes: first the copies, then the XOR fills in the
    order they happen, each an atom already written XORed with description
    bits.  Only the runs that feed an atom of V1..V_level are kept.
    """

    level: int
    offsets: tuple[int, ...]
    bounds: tuple[int, ...]
    runs: tuple[Run, ...]


def decode_plan(scheme: DescriptionScheme, subset: str) -> DecodePlan:
    """Compile the decode of ``subset`` under ``scheme`` (L1 levels).

    Raises :class:`Unresolvable` if the subset's descriptions cannot
    determine some stream it must recover.  The plan does not look at
    description bits, so a plan proves decodability for every bundle of
    the scheme's stream lengths, and its result equals that of the
    bit-by-bit fixed point (copies, then XOR cancellation until nothing
    changes) for any description bits.
    """
    level = L1.level_of(subset)
    offsets = (0, *accumulate(scheme.lengths))
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

    copies = {}  # the last copy of an atom wins
    for start, n, d, o in copied:
        for i in range(atom[start], atom[start + n]):
            copies[i] = (d, o + bounds[i] - start)
    pairs = [[(i, atom[b + bounds[i] - a], d, o + bounds[i] - a)
              for a, b, n, d, o in rule for i in range(atom[a], atom[a + n])]
             for rule in rules]

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
            kept.append((bounds[t], (0, bounds[i]), (d, o),
                         bounds[t + 1] - bounds[t]))
    runs = [(bounds[i], c, None, bounds[i + 1] - bounds[i])
            for i, c in copies.items() if i in need]
    return DecodePlan(level, offsets, bounds, (*runs, *reversed(kept)))


# ---------------------------------------------------------------------------
# Replays.
# ---------------------------------------------------------------------------

def _replay(runs, size: int, inputs: Sequence) -> np.ndarray:
    """The ``size``-bit output of ``runs`` as a new uint8 array, source
    k >= 1 read from the 0/1 uint8 array ``inputs[k - 1]``."""
    import numpy as np

    out = np.empty(size, dtype=np.uint8)
    sources = (out, *inputs)
    for o, (s, a), partner, n in runs:
        if partner is None:
            out[o:o + n] = sources[s][a:a + n]
        else:
            sb, b = partner
            np.bitwise_xor(sources[s][a:a + n], sources[sb][b:b + n],
                           out=out[o:o + n])
    return out


def _replay_packed(runs, ends: Sequence[int], inputs: Sequence) -> tuple:
    """Output bits ``[ends[j], ends[j + 1])`` of ``runs``, packed, for each
    j.  Source k >= 1 is read as an int by ``inputs[k - 1](start, n)``, and
    source 0 from the bits kept for the run that wrote that offset."""
    pieces = {}
    sources = (lambda a, n: pieces[a][1], *inputs)
    for o, (s, a), partner, n in runs:
        x = sources[s](a, n)
        if partner is not None:
            x ^= sources[partner[0]](partner[1], n)
        pieces[o] = n, x
    order, j, out = sorted(pieces), 0, []
    for lo, hi in zip(ends, ends[1:]):
        value = 0
        while j < len(order) and order[j] < hi:
            n, x = pieces[order[j]]
            value = (value << n) | x
            j += 1
        out.append(_int_to_packed(value, hi - lo))
    return tuple(out)


def _slicer(data: bytes, base: int = 0):
    """``take(start, n)``: bits ``[base + start, base + start + n)`` of the
    packed blob ``data`` as an int, first bit highest."""
    def take(start: int, n: int) -> int:
        start += base
        lo, hi = start >> 3, (start + n + 7) >> 3
        value = int.from_bytes(data[lo:hi], "big")
        return (value >> (8 * hi - start - n)) & ((1 << n) - 1)
    return take


def _descriptions(scheme: DescriptionScheme, subset: str, available,
                  read) -> list:
    """Descriptions 1..3 of ``available`` as ``read(i, value, nbits)``
    returns them, None where absent.  Raises KeyError for an unknown subset,
    and ValueError unless the keys are whole numbers, not bools, that name
    the descriptions of ``subset``, each once."""
    if subset not in SUBSET_MASKS:
        raise KeyError(f"unknown decoder subset {subset!r}")
    if isinstance(available, EncodedDescriptions):
        available = {i: b for i, b in enumerate(available.bits, 1)
                     if b is not None}
    given = {}
    for key, value in available.items():
        try:
            i = int(key)
            whole = i == key and not isinstance(key, bool)
        except (TypeError, ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"description keys must be whole numbers, "
                             f"got {key!r}")
        if i in given:
            raise ValueError(f"two keys name description {i}")
        given[i] = value
    members = set(subset_members(subset))
    if set(given) != members:
        raise ValueError(
            f"decoder {subset} expects exactly descriptions {members}, "
            f"got {set(given)}"
        )
    dlen = scheme.description_lengths
    return [read(i, given[i], dlen[i - 1]) if i in given else None
            for i in (1, 2, 3)]


def encode(scheme: DescriptionScheme, bundle: SourceBundle) -> EncodedDescriptions:
    """Produce the three description bitstreams for a source bundle."""
    if bundle.lengths != scheme.lengths:
        raise LengthMismatch(
            f"bundle lengths {bundle.lengths} do not match scheme "
            f"lengths {scheme.lengths}"
        )
    # Each buffer is a 1-D uint8 array that the runs tile with copies and
    # XORs of 0/1 stream bits, so it needs no second scan for values > 1.
    return EncodedDescriptions._make((tuple(
        _replay(chain.from_iterable(runs), nbits, bundle.streams)
        for nbits, runs in encode_plan(scheme)
    ),))


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
    schemes.  The streams returned are views of one new buffer, which ends
    at the last bit the plan writes; the descriptions are only read.
    """
    checked = isinstance(available, EncodedDescriptions)

    def read(i, bits, n):
        bits = bits if checked else as_bit_array(bits)
        if bits.size != n:
            raise LengthMismatch(
                f"description {i} has {bits.size} bits, scheme produces {n}"
            )
        return bits

    given = _descriptions(scheme, subset, available, read)
    plan = decode_plan(scheme, subset)
    size = max((o + n for o, _, _, n in plan.runs), default=0)
    out, offsets = _replay(plan.runs, size, given), plan.offsets
    return tuple(out[offsets[k]:offsets[k + 1]] for k in range(plan.level))


def encode_packed(
    scheme: DescriptionScheme, data: bytes
) -> tuple[bytes, bytes, bytes]:
    """Encode a packed bundle into the three packed descriptions.

    ``data`` holds the streams V1..V7 back to back, packed as
    :func:`pack_bits` packs them; it must have ceil(n/8) bytes for the n
    bits of the scheme's streams (:class:`LengthMismatch` otherwise), and
    its padding bits are ignored.  The result equals :func:`pack_bits` of
    each description :func:`encode` produces.
    """
    check_packed(data, sum(scheme.lengths))
    streams = [_slicer(data, o) for o in accumulate(scheme.lengths[:6],
                                                    initial=0)]
    return tuple(
        _replay_packed(chain.from_iterable(runs), (0, nbits), streams)[0]
        for nbits, runs in encode_plan(scheme)
    )


def decode_packed(
    scheme: DescriptionScheme, subset: str, available: Mapping[int, bytes]
) -> tuple[bytes, ...]:
    """Recover packed streams V1..V_k for a decoder subset (k = its level).

    ``available`` maps exactly the descriptions of ``subset`` to their
    packed bits, each of ceil(n/8) bytes for its n bits
    (:class:`LengthMismatch` otherwise); padding bits are ignored.  The
    result equals :func:`pack_bits` of each stream :func:`decode` returns.
    """
    def read(i, data, n):
        check_packed(data, n)
        return _slicer(data)

    given = _descriptions(scheme, subset, available, read)
    plan = decode_plan(scheme, subset)
    return _replay_packed(plan.runs, plan.offsets[:plan.level + 1], given)


# ---------------------------------------------------------------------------
# Time sharing.
# ---------------------------------------------------------------------------

def compose_time_share(
    parts: Sequence[tuple[SchemeTemplate, Fraction]], lengths: Sequence[int]
) -> DescriptionScheme:
    """Time-share scheme templates over blocks of the same source.

    Each part is ``(template, weight)``; weights are positive rationals that
    sum to 1.  Part p operates on its own slice of every stream, of size
    ``weight * l_k`` — every such product must be an integer, otherwise
    :class:`NonIntegralSplit` is raised — and its template is placed at
    that slice alone, raising as :func:`instantiate_scheme` does there.  A
    single part of weight 1 is :func:`instantiate_scheme` itself.
    """
    if not parts:
        raise ValueError("need at least one (template, weight) part")
    pairs = [(t, Fraction(w)) for t, w in parts]
    for _, w in pairs:
        if w <= 0:
            raise ValueError(f"weights must be positive, got {w}")
    if sum(w for _, w in pairs) != 1:
        raise ValueError("weights must sum to 1")
    if len(pairs) == 1:
        return instantiate_scheme(pairs[0][0], lengths)
    lengths = tuple(map(_bit_count, lengths))
    if len(lengths) != 7:
        raise ValueError(f"need 7 stream lengths, got {lengths}")
    for _, w in pairs:
        for k, n in enumerate(lengths):
            if (w * n).denominator != 1:
                raise NonIntegralSplit(
                    f"weight {w} splits stream V{k + 1} of length "
                    f"{n} into a non-integer number of bits"
                )

    segments: list[tuple[Segment, ...]] = [(), (), ()]
    offsets = (0,) * 7
    for template, w in pairs:
        sl = tuple(int(w * n) for n in lengths)
        for d, segs in enumerate(_place(template, sl, offsets)):
            segments[d] += segs
        offsets = tuple(o + n for o, n in zip(offsets, sl))
    label = " + ".join(f"{w}*{t.name}" for t, w in pairs)
    return DescriptionScheme(label, lengths, tuple(segments))
