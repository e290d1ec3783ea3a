"""Seeded inputs for the three workloads.

Every generator takes the run's ``--seed`` and derives its own stream from
it, so one seed gives the same input sequence on every run and every
commit.  All inputs are valid by construction: no op is expected to fail.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import _oracles
import amld3
from params import BULK_SCALE, CLI_SCALE, SCHEMES

F = Fraction
SUBSETS = _oracles.SUBSETS
ORDERINGS = amld3.enumerate_orderings()

# The profile families of the analysis inputs, dealt with equal shares
# (nothing records how often users meet each one, so none is favoured).
# First-ordering families: (regime, on the boundary with the next regime).
L1_FAMILIES = {
    "I": ("I", False), "II": ("II", False), "III": ("III", False),
    "I/II": ("I", True), "II/III": ("II", True),
}
FAMILIES = (*L1_FAMILIES,
            "big",      # a first-ordering family, numerators above 2**62
            "sr",       # sr_layer_rates of seeded targets, any ordering
            "other")    # orderings 2..8

# Query kinds and their shares, as in acceptance criterion 4 (400 grid,
# 300 boundary and 300 outside points per profile).
QUERY_MIX = (("grid", 4), ("boundary", 3), ("outside", 3))


def seeded_rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


@dataclass(frozen=True)
class Profile:
    ordering: int               # 1..8
    obj: dict                   # JSON form accepted by ordering_from_json
    h: tuple[Fraction, ...]


def _draw(rng: random.Random, big: bool) -> Fraction:
    if big:
        return F(rng.randrange(2**62, 2**64), rng.choice((1, 2, 4)))
    return F(rng.randrange(0, 25), rng.choice((1, 2, 4)))


def _l1_profile(rng, regime: str, boundary: bool, big: bool) -> list[Fraction]:
    h = [_draw(rng, big) for _ in range(7)]
    if regime == "I":
        h[2] = h[3] + h[4] + (0 if boundary else _draw(rng, big) + F(1, 4))
    elif regime == "II":
        if h[4] == 0:
            h[4] = F(rng.randrange(1, 9), 2)
        h[2] = h[3] if boundary else h[3] + F(rng.randrange(1, 4), 4) * h[4]
    else:
        if h[3] == 0:
            h[3] = F(rng.randrange(1, 9), 2)
        h[2] = F(rng.randrange(0, 4), 4) * h[3]
    if _oracles.regime_of(h) != regime:
        raise AssertionError(f"generated profile {h} is not in regime {regime}")
    return h


def distortions_for(rng: random.Random, index: int) -> tuple[float, ...]:
    """Normalized targets (canonical order) that induce ordering `index`."""
    row = _oracles.ORDERING_ROWS[index - 1]
    vals, v = {}, 1.0
    for s in row:
        v *= rng.uniform(0.4, 0.95)
        vals[s] = v
    return tuple(vals[s] for s in SUBSETS)


def _ordering_obj(rng: random.Random, index: int) -> dict:
    """The index form or the levels form (which runs the validation of the
    axioms), with equal shares."""
    if rng.random() < 0.5:
        return {"ordering": index}
    row = _oracles.ORDERING_ROWS[index - 1]
    return {"levels": {s: row.index(s) + 1 for s in SUBSETS}}


class AnalysisInputs:
    """Profiles, rate triples and distortion targets for the analysis ops.

    Discrete choices (profile family, query kind, bounds ordering) are dealt
    from shuffled decks holding each choice in its share, so every run draws
    the same mix to within one deck and the medians compare across seeds.
    """

    def __init__(self, seed: int, stream: str = "analysis") -> None:
        self.rng = seeded_rng(seed, stream)
        self.decks: dict = {}
        self.by_family: Counter = Counter()
        self.by_ordering: Counter = Counter()

    def _deal(self, key, choices):
        deck = self.decks.setdefault(key, [])
        if not deck:
            deck.extend(choices)
            self.rng.shuffle(deck)
        return deck.pop()

    def profile(self, deck: str = "any", l1_only: bool = False) -> Profile:
        """A fresh profile; each op kind deals from its own deck."""
        rng = self.rng
        fam = self._deal((deck, l1_only),
                         (*L1_FAMILIES, "big") if l1_only else FAMILIES)
        index = 1
        if fam in L1_FAMILIES:
            h = _l1_profile(rng, *L1_FAMILIES[fam], False)
        elif fam == "big":
            h = _l1_profile(rng, *L1_FAMILIES[rng.choice(tuple(L1_FAMILIES))],
                            True)
        elif fam == "sr":
            index = rng.randrange(1, 9)
            D = amld3.DistortionVector(distortions_for(rng, index))
            h = [F(x) for x in amld3.sr_layer_rates(D, ORDERINGS[index - 1])]
        else:
            index = rng.randrange(2, 9)
            h = [_draw(rng, False) for _ in range(7)]
        self.by_family[fam] += 1
        self.by_ordering[index] += 1
        return Profile(index, _ordering_obj(rng, index), tuple(h))

    def query(self, corners, kind: str) -> tuple[Fraction, ...]:
        """One query point of criterion 4's kind `kind` around `corners`."""
        rng = self.rng
        if kind == "grid":
            hi = max((x for c in corners for x in c), default=F(0))
            span = int(hi) + 2
            return tuple(F(rng.randrange(0, 16 * span + 1), 16)
                         for _ in range(3))
        if kind == "boundary":
            k = rng.randrange(1, min(3, len(corners)) + 1)
            picks = [rng.choice(corners) for _ in range(k)]
            w = [rng.randrange(0, 9) for _ in range(k)]
            if sum(w) == 0:
                w[0] = 8
            off = F(rng.randrange(0, 8), 16)
            return tuple(
                sum(F(wi, sum(w)) * p[c] for wi, p in zip(w, picks)) + off
                for c in range(3))
        base = rng.choice(corners)
        delta = F(rng.randrange(1, 17), 16)
        return tuple(max(F(0), x - delta) for x in base)

    def queries(self, corner_rates, blocks: int) -> list[tuple]:
        """`blocks` times criterion 4's mix of grid, boundary and outside
        points (ten points per block), shuffled."""
        corners = [tuple(F(x) for x in c) for c in corner_rates]
        kinds = [k for k, n in QUERY_MIX for _ in range(n * blocks)]
        self.rng.shuffle(kinds)
        return [self.query(corners, k) for k in kinds]

    def check_rates(self, p: Profile) -> tuple[Fraction, ...]:
        """One query of criterion 4's mix around the profile's catalog
        corners of the first ordering (closed form, for any ordering)."""
        kind = self._deal("check-query",
                          [k for k, n in QUERY_MIX for _ in range(n)])
        corners = [tuple(F(x) for x in c)
                   for c in _oracles.expected_corners(p.h).values()]
        return self.query(corners, kind)

    def bounds_case(self) -> tuple[int, tuple[float, ...], tuple[float, ...]]:
        """(ordering index, targets, rate triple) for a bounds op."""
        index = self._deal("bounds", range(1, 9))
        D = distortions_for(self.rng, index)
        rates = tuple(self.rng.uniform(0.0, 8.0) for _ in range(3))
        return index, D, rates


def random_streams(rng: np.random.Generator, lengths) -> list[np.ndarray]:
    return [rng.integers(0, 2, size=int(n), dtype=np.uint8) for n in lengths]


def bulk_bundles(seed: int):
    """[(label, lengths, streams)] for the codec-bulk workload."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for label, base in SCHEMES:
        lengths = tuple(b * BULK_SCALE for b in base)
        out.append((label, lengths, random_streams(rng, lengths)))
    return out
