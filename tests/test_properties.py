"""Property tests of the exact region against the frozen coefficient tables.

Expected values come from direct ``Fraction`` arithmetic on the tables in
``_oracles``; no library call enters them.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import _oracles
from amld3 import EntropyProfile, Ordering, build_mld_region, classify_slacks

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
        st.sampled_from(pool), st.fractions(min_value=0, max_value=2**81)
    )
    rates = tuple(data.draw(coord) for _ in range(3))
    slacks = [
        sum(F(a) * r for a, r in zip(normal, rates)) - bt
        for (normal, _), bt in zip(table.values(), b)
    ]
    tags = list(table)
    assert classify_slacks(region.constraints, rates) == (
        [t for t, s in zip(tags, slacks) if s == 0],
        [t for t, s in zip(tags, slacks) if s < 0],
    )
