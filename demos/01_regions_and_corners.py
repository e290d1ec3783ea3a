"""Tour of the exact rate regions: orderings, regimes, corners, labels."""

from __future__ import annotations

from fractions import Fraction

from amld3 import (
    EntropyProfile,
    build_mld_region,
    classify_regime,
    contains,
    enumerate_corners,
    enumerate_orderings,
    label_corners,
)
from amld3.ordering import L1


def show_region(h, note):
    profile = EntropyProfile(h)
    region = build_mld_region(L1, profile)
    print("=" * 80)
    print(f"h = {h}   ->  regime {classify_regime(profile)}   ({note})")
    print("=" * 80)
    print("constraints (a1 R1 + a2 R2 + a3 R3 >= b):")
    for c in region.constraints:
        a = ",".join(str(x) for x in c.a)
        print(f"  {c.tag:<4} ({a}) >= {c.b}")
    corners = label_corners(enumerate_corners(region), profile)
    print(f"\n{len(corners)} corner points:")
    for c in corners:
        rates = ", ".join(str(r) for r in c.rates)
        tight = " ".join(c.tight)
        print(f"  {c.label or '-':<7} ({rates})   tight: {tight}")
    print()
    return corners


def main():
    print("=" * 80)
    print("THE EIGHT ADMISSIBLE DECODER ORDERINGS")
    print("=" * 80)
    print("level:        1     2     3     4     5     6     7")
    for o in enumerate_orderings():
        row = "  ".join(f"{s:<4}" for s in o.by_level)
        print(f"  #{o.index}:       {row}")
    print()

    # One profile per regime of the fully alternating ordering.
    show_region((1, 1, 3, 1, 1, 1, 1), "third layer dominates: h3 >= h4 + h5")
    show_region((1, 1, 3, 2, 2, 1, 1), "middle ground: h4 <= h3 < h4 + h5")
    corners = show_region((1, 1, 1, 3, 1, 1, 1), "fourth layer dominates: h3 < h4")

    print("=" * 80)
    print("MEMBERSHIP IS EXACT")
    print("=" * 80)
    region = build_mld_region(L1, EntropyProfile((1, 1, 1, 3, 1, 1, 1)))
    probe = corners[0].rates
    eps = Fraction(1, 10**12)
    shaved = tuple(r - eps for r in probe)
    shown = "(" + ", ".join(str(r) for r in probe) + ")"
    print(f"corner {shown}: contains -> {contains(region, probe)}")
    print(f"corner minus 1e-12 on each axis: contains -> "
          f"{contains(region, shaved)}   (no float tolerance involved)")
    print()

    print("=" * 80)
    print("BOUNDARY PROFILES MERGE CORNERS")
    print("=" * 80)
    profile = EntropyProfile((1,) * 7)
    region = build_mld_region(L1, profile)
    merged = label_corners(enumerate_corners(region), profile)
    print("h = (1,1,1,1,1,1,1) sits on the regime II boundary; the 12 catalog")
    print(f"labels collapse onto {len(merged)} distinct corners:")
    for c in merged:
        rates = ", ".join(str(r) for r in c.rates)
        print(f"  {c.label:<7} ({rates})")


if __name__ == "__main__":
    main()
