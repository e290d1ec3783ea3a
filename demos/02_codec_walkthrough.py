"""Bit-level walkthrough of the corner-point codecs, XOR segments included."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from amld3 import (
    SourceBundle,
    TEMPLATES,
    compose_time_share,
    decode,
    encode,
    instantiate_scheme,
    random_bundle,
    restrict,
    template_name_for_label,
)
from amld3.ordering import SUBSETS, L1

SEED = 20240817


def bits(arr) -> str:
    return "".join(str(int(b)) for b in arr) or "(empty)"


def main():
    print("=" * 80)
    print("SCHEME X5 AT STREAM LENGTHS (1,1,3,1,1,1,1)")
    print("=" * 80)
    lengths = (1, 1, 3, 1, 1, 1, 1)
    scheme = instantiate_scheme(TEMPLATES["X5"], lengths)
    print(f"description lengths: {scheme.description_lengths}  (total 15 bits;")
    print("no concatenation-only layout gets below 16 for these lengths)")
    bundle = SourceBundle([[1], [0], [1, 1, 0], [1], [0], [0], [1]])
    for k, s in enumerate(bundle.streams, start=1):
        print(f"  V{k} = {bits(s)}")
    enc = encode(scheme, bundle)
    print("\nencoded descriptions:")
    print(f"  desc 1 = {bits(enc.bits[0])}          (V1 || V4 || V5)")
    print(f"  desc 2 = {bits(enc.bits[1])}      "
          "(V1 || V2 || V3.1 || V3.2^(V4||V5) || V6 || V7)")
    print(f"  desc 3 = {bits(enc.bits[2])}        (V1 || V2 || V3.1 || V3.2)")

    print("\nevery decoder recovers exactly its promised prefix:")
    for subset in SUBSETS:
        out = decode(scheme, subset, restrict(enc, subset))
        shown = " ".join(f"V{k + 1}={bits(s)}" for k, s in enumerate(out))
        print(f"  {subset:<5} (level {L1.level_of(subset)}): {shown}")
    print()
    print("decoder {1,2} reads V4,V5 from desc 1 and cancels them out of the")
    print("XOR segment to get V3.2; decoder {2,3} reads V3.2 from desc 3 and")
    print("cancels the same segment the other way to get V4,V5.")
    print()

    print("=" * 80)
    print("TIME SHARING BETWEEN CORNERS")
    print("=" * 80)
    lengths = (2,) * 7
    x1 = instantiate_scheme(TEMPLATES["X1"], lengths)
    x2 = instantiate_scheme(TEMPLATES["X2"], lengths)
    mix = compose_time_share(
        [(TEMPLATES["X1"], Fraction(1, 2)), (TEMPLATES["X2"], Fraction(1, 2))],
        lengths,
    )
    print(f"X1 rates: {x1.description_lengths}")
    print(f"X2 rates: {x2.description_lengths}")
    print(f"'{mix.label}' rates: {mix.description_lengths}  (the midpoint)")
    rng = np.random.default_rng(SEED)
    bundle = random_bundle(lengths, rng)
    enc = encode(mix, bundle)
    ok = all(
        np.array_equal(s, t)
        for s, t in zip(
            decode(mix, "G123", restrict(enc, "G123")), bundle.streams
        )
    )
    print(f"composed scheme roundtrips: {ok}")
    print()

    print("=" * 80)
    print("STRESS: ALL 32 CATALOG LABELS, RANDOM BUNDLES")
    print("=" * 80)
    pools = {
        "X": (2, 1, 4, 2, 2, 1, 3),
        "Y": (1, 2, 3, 2, 2, 1, 2),
        "Z": (2, 1, 1, 5, 2, 1, 2),
    }
    labels = (
        [f"X{i}" for i in range(1, 11)]
        + [f"Y{i}" for i in range(1, 13)]
        + [f"Z{i}" for i in range(1, 11)]
    )
    total = 0
    for label in labels:
        lengths = pools[label[0]]
        scheme = instantiate_scheme(
            TEMPLATES[template_name_for_label(label)], lengths
        )
        for _ in range(5):
            bundle = random_bundle(lengths, rng)
            enc = encode(scheme, bundle)
            for subset in SUBSETS:
                out = decode(scheme, subset, restrict(enc, subset))
                for k in range(L1.level_of(subset)):
                    assert np.array_equal(out[k], bundle.streams[k]), (
                        label, subset, k,
                    )
                total += 1
    print(f"{total} subset decodes across {len(labels)} labels: all bit-exact")


if __name__ == "__main__":
    main()
