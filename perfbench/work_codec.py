"""The `codec-bulk` workload: encode and decode 9 Mbit bundles.

One unit takes one catalog scheme through instantiate, three encodes,
pack/unpack of the three descriptions, and a decode at each of the seven
decoder subsets.  Four consecutive units (X5, Y5, Z7, X1) make a round;
throughput is taken per round and the median over rounds is reported.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from amld3 import (
    TEMPLATES, SourceBundle, Xor, decode, encode, instantiate_scheme,
    pack_bits, restrict, unpack_bits,
)

import checks
import gen
from speed import Speed
from stats import clock

ENCODE_REPS = 3


def xor_bits_frac(scheme) -> float:
    """Share of description bits carried by XOR segments."""
    total = sum(scheme.description_lengths)
    xor = sum(s.size for segs in scheme.segments for s in segs
              if isinstance(s, Xor))
    return xor / total if total else 0.0


class CodecBulk:
    def __init__(self, seed: int, T, rec) -> None:
        self.T = T
        self.rec = rec
        self.cases = [
            (label, lengths, streams, SourceBundle(streams))
            for label, lengths, streams in gen.bulk_bundles(seed)
        ]
        self.next = 0
        # Wall times: one record per measured unit, in order
        # [encode s, encode bits, decode s, decode bits recovered, stamp].
        self.units: list[list[float]] = []
        # Decode follows the numpy loop, calibrated around every unit.
        self.speed = Speed.numpy()
        self.per_call: dict[tuple[str, str], list[float]] = {}
        self.pack: list[tuple[int, float]] = []     # (bits, s)
        self.unpack: list[tuple[int, float]] = []
        self.xor_frac: dict[str, float] = {}

    def _call(self, key, name, fn, *args):
        t0 = clock()
        out = self.T.call(name, fn, *args)
        dt = clock() - t0
        self.per_call.setdefault(key, []).append(dt)
        return out, dt

    def unit(self) -> None:
        case = self.cases[self.next % len(self.cases)]
        self.next += 1
        self.speed.record()
        record = [0.0, 0, 0.0, 0, clock()]
        self.rec.guard("codec", self._unit, record, *case)
        self.speed.record()
        if not self.rec.discard:
            self.units.append(record)

    def _unit(self, record, label, lengths, streams, bundle) -> None:
        T, rec = self.T, self.rec
        T.new_op()
        with T.span("op.codec"):
            scheme, _ = self._call((label, "instantiate"),
                                   "codec.instantiate_scheme",
                                   instantiate_scheme, TEMPLATES[label], lengths)
            want = checks.expected_description_bits(label, lengths)
            rec.check("instantiate", None if scheme.description_lengths == want
                      else f"{label}: description lengths differ from {want}")
            self.xor_frac[label] = xor_bits_frac(scheme)
            for _ in range(ENCODE_REPS):
                enc, dt = self._call((label, "encode"), "codec.encode",
                                     encode, scheme, bundle)
                record[0] += dt
                record[1] += sum(lengths)
                rec.sample("encode", dt, None if enc.lengths == want
                           else f"{label}: encoded lengths {enc.lengths}")
            for bits in enc.bits:
                t0 = clock()
                data = T.call("codec.pack_bits", pack_bits, bits)
                t1 = clock()
                back = T.call("codec.unpack_bits", unpack_bits, data, bits.size)
                t2 = clock()
                self.pack.append((bits.size, t1 - t0))
                self.unpack.append((bits.size, t2 - t1))
                ok = (data == np.packbits(bits).tobytes()
                      and np.array_equal(back, bits))
                rec.check("pack", None if ok else f"{label}: pack roundtrip")
            for subset in gen.SUBSETS:
                avail = restrict(enc, subset)
                out, dt = self._call((label, subset), f"codec.decode.{subset}",
                                     decode, scheme, subset, avail)
                record[2] += dt
                record[3] += sum(int(a.size) for a in out)
                rec.sample("decode", dt,
                           checks.check_streams(streams, out, subset))
                del out

    def rounds(self, wall: bool = False) -> list[tuple[float, float]]:
        """(encode, decode) Mbit/s of each complete round of the 4 schemes.

        Encode is on wall time; decode is at numpy reference speed unless
        `wall` is set.
        """
        n = len(self.cases)
        out = []
        for i in range(0, len(self.units) - n + 1, n):
            rnd = self.units[i:i + n]
            es = sum(u[0] for u in rnd)
            ds = sum(u[2] * (1.0 if wall else self.speed.factor(u[4]))
                     for u in rnd)
            out.append((sum(u[1] for u in rnd) / es * 1e-6,
                        sum(u[3] for u in rnd) / ds * 1e-6))
        return out

    def peaks(self) -> dict:
        """tracemalloc peak bytes per source bit, in one untimed pass."""
        enc_peak: dict[str, float] = {}
        dec_peak: dict[tuple[str, str], float] = {}
        tracemalloc.start()
        try:
            for label, lengths, streams, bundle in self.cases:
                scheme = instantiate_scheme(TEMPLATES[label], lengths)
                nbits = sum(lengths)
                gc.collect()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                enc = encode(scheme, bundle)
                enc_peak[label] = (tracemalloc.get_traced_memory()[1] - base) / nbits
                for subset in gen.SUBSETS:
                    avail = restrict(enc, subset)
                    gc.collect()
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    out = decode(scheme, subset, avail)
                    peak = tracemalloc.get_traced_memory()[1] - base
                    dec_peak[(label, subset)] = peak / nbits
                    self.rec.check("decode-peak",
                                   checks.check_streams(streams, out, subset))
                    del out, avail
                del enc
        finally:
            tracemalloc.stop()
        return {"encode": enc_peak, "decode": dec_peak}
