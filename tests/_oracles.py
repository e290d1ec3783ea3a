"""Frozen expected values and independent oracles used by the test suite.

Everything in this file is derived by hand or by brute force, independently of
the library implementation, so that tests compare two routes to the same
answer:

* a frozen table of the eight admissible level orderings;
* a normalizer of Gaussian distortion targets over subset bitmasks, a
  ranker that counts, for each decoder, the decoders ranked ahead of it, and
  a second ranker that sorts the targets and checks the axioms itself;
* the coefficient tables of the eleven region inequalities for each of the
  eight orderings, expressed over the layer entropies (h_1, ..., h_7), and
  a row's slack at exact rates, summed term by term in ``Fraction``s;
* closed-form corner coordinates for the three regimes of the first ordering;
* an exact convex-hull membership oracle (V-representation to
  H-representation over integers) for rate-region containment checks;
* an exhaustive feasibility search over concatenation-only (source
  separation) coding schemes, used as the counterpart of the XOR witness;
* the per-row-scaled Cramer vertex enumerator the library used before its
  adjugate table, the reference for ``amld3.enumerate_corners``;
* a bit-level decoder that tracks every source bit and cancels XOR segments
  bit by bit until nothing changes, the reference for the plan-based
  ``amld3.decode``.  It takes only the scheme's data classes and error types
  from the library, imported inside it: this module itself imports nothing
  of ``amld3``, so the benchmark's output checks can use it;
* a decodability proof for a scheme template at every length vector, read
  off its splits and layout alone: piece lengths as linear forms, and
  group-level recovery through the XOR segments.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import gcd

import numpy as np

SUBSETS = ("G1", "G2", "G3", "G12", "G13", "G23", "G123")
MASKS = {"G1": 1, "G2": 2, "G3": 4, "G12": 3, "G13": 5, "G23": 6, "G123": 7}

# The eight valid orderings, written as the subset at level 1, 2, ..., 7.
# Frozen by the brute-force filter below (and pinned here so a regression in
# the filter itself would also be caught).
ORDERING_ROWS = (
    ("G1", "G2", "G3", "G12", "G13", "G23", "G123"),
    ("G1", "G2", "G3", "G12", "G23", "G13", "G123"),
    ("G1", "G2", "G3", "G13", "G12", "G23", "G123"),
    ("G1", "G2", "G3", "G13", "G23", "G12", "G123"),
    ("G1", "G2", "G3", "G23", "G12", "G13", "G123"),
    ("G1", "G2", "G3", "G23", "G13", "G12", "G123"),
    ("G1", "G2", "G12", "G3", "G13", "G23", "G123"),
    ("G1", "G2", "G12", "G3", "G23", "G13", "G123"),
)


def level_sequence_is_admissible(seq) -> bool:
    """Independent check of the two ordering axioms on a level sequence."""
    level = {s: i + 1 for i, s in enumerate(seq)}
    if not (level["G1"] < level["G2"] < level["G3"]):
        return False
    for a in SUBSETS:
        for b in SUBSETS:
            if a != b and MASKS[a] & MASKS[b] == MASKS[a]:  # a is subset of b
                if level[a] >= level[b]:
                    return False
    return True


def brute_force_level_sequences():
    """All admissible orderings found by filtering the 5040 permutations,
    sorted lexicographically by canonical subset index."""
    idx = {s: i for i, s in enumerate(SUBSETS)}
    found = [
        seq
        for seq in permutations(SUBSETS)
        if level_sequence_is_admissible(seq)
    ]
    found.sort(key=lambda seq: tuple(idx[s] for s in seq))
    return tuple(found)


def normalize_targets(values):
    """D~_S = min of D_T over the nonempty masks T with no bit outside S,
    for seven targets in canonical subset order."""
    by_mask = {MASKS[s]: v for s, v in zip(SUBSETS, values)}
    return tuple(
        min(by_mask[m] for m in range(1, 8) if m & ~MASKS[s] == 0)
        for s in SUBSETS
    )


def rank_targets(normalized):
    """Level sequence of normalized targets, by counting: the level of S is
    one plus the number of subsets whose target is larger, or equal and
    earlier in canonical order."""
    seq = [None] * 7
    for i, (s, v) in enumerate(zip(SUBSETS, normalized)):
        ahead = sum(
            1 for j, w in enumerate(normalized) if w > v or (w == v and j < i)
        )
        seq[ahead] = s
    return tuple(seq)


def induced_level_sequence(normalized):
    """(level sequence, admissible) of normalized targets, by a stable sort:
    decreasing target, ties in canonical order; the sequence is checked
    with :func:`level_sequence_is_admissible`."""
    seq = tuple(
        s for _, _, s in sorted(
            (-v, i, s) for i, (s, v) in enumerate(zip(SUBSETS, normalized))
        )
    )
    return seq, level_sequence_is_admissible(seq)


# Coefficients of the eleven inequalities of the first ordering, written as
#   a . (R1,R2,R3)  >=  c . (h1,...,h7)
# Checked by hand against the closed forms (the right-hand sides are
# H_1, H_1+H_4, ..., H_1 + H_2/2 + H_4/2 + H_7 expanded over the h's).
F = Fraction
Q_TABLE = {
    "Q1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
    "Q2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
    "Q3": ((0, 0, 1), (1, 1, 1, 0, 0, 0, 0)),
    "Q4": ((1, 1, 0), (2, 1, 1, 1, 0, 0, 0)),
    "Q5": ((1, 0, 1), (2, 1, 1, 1, 1, 0, 0)),
    "Q6": ((0, 1, 1), (2, 2, 1, 1, 1, 1, 0)),
    "Q7": ((2, 1, 1), (4, 2, 2, 2, 1, 1, 1)),
    "Q8": ((1, 2, 1), (4, 3, 2, 2, 1, 1, 1)),
    "Q9": ((1, 1, 2), (4, 3, 2, 2, 2, 1, 1)),
    "Q10": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
    "Q11": ((1, 1, 1), (3, 2, F(3, 2), F(3, 2), 1, 1, 1)),
}
Q_ORDER = tuple(f"Q{i}" for i in range(1, 12))

# The same eleven inequalities for orderings 2-8 (keyed by ordering index),
# tags P1.1..P5 in emission order.  Each row expands, by hand, the paper's
# level form of the offsets, writing L(S) for the level of decoder S and
# H_k = h_1 + ... + h_k:
#   P1.i  = H_L(Gi)
#   P2.ij = H_min(L(Gi),L(Gj)) + H_L(Gij)
#   P3.i  = H_min(L(Gi),L(Gj)) + H_min(L(Gi),L(Gk)) + H_min(L(Gij),L(Gik)) + H_7
#   P4    = H_L(G1) + H_min(L(G12),L(G3)) + H_7
#   P5    = H_L(G1) + H_L(G2)/2 + H_min(L(G12),L(G13),L(G23))/2 + H_7
# With the first ordering's levels these give Q_TABLE above.
P_TABLE = {
    2: {  # G1, G2, G3, G12, G23, G13, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 0, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 1, 0, 0, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 1, 1, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 1, 0, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 2, 1, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 2, 1, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 2, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), F(3, 2), 1, 1, 1)),
    },
    3: {  # G1, G2, G3, G13, G12, G23, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 0, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 1, 1, 0, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 0, 0, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 1, 1, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 2, 1, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 2, 2, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 1, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), F(3, 2), 1, 1, 1)),
    },
    4: {  # G1, G2, G3, G13, G23, G12, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 0, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 1, 1, 1, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 0, 0, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 1, 0, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 2, 1, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 2, 2, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 1, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), F(3, 2), 1, 1, 1)),
    },
    5: {  # G1, G2, G3, G23, G12, G13, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 0, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 1, 1, 0, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 1, 1, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 0, 0, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 2, 2, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 2, 1, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 1, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), F(3, 2), 1, 1, 1)),
    },
    6: {  # G1, G2, G3, G23, G13, G12, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 0, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 1, 1, 1, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 1, 0, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 0, 0, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 2, 2, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 2, 1, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 1, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), F(3, 2), 1, 1, 1)),
    },
    7: {  # G1, G2, G12, G3, G13, G23, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 1, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 0, 0, 0, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 1, 0, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 1, 1, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 1, 1, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 1, 1, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 2, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), 1, 1, 1, 1)),
    },
    8: {  # G1, G2, G12, G3, G23, G13, G123
        "P1.1": ((1, 0, 0), (1, 0, 0, 0, 0, 0, 0)),
        "P1.2": ((0, 1, 0), (1, 1, 0, 0, 0, 0, 0)),
        "P1.3": ((0, 0, 1), (1, 1, 1, 1, 0, 0, 0)),
        "P2.12": ((1, 1, 0), (2, 1, 1, 0, 0, 0, 0)),
        "P2.13": ((1, 0, 1), (2, 1, 1, 1, 1, 1, 0)),
        "P2.23": ((0, 1, 1), (2, 2, 1, 1, 1, 0, 0)),
        "P3.1": ((2, 1, 1), (4, 2, 2, 1, 1, 1, 1)),
        "P3.2": ((1, 2, 1), (4, 3, 2, 1, 1, 1, 1)),
        "P3.3": ((1, 1, 2), (4, 3, 2, 2, 2, 1, 1)),
        "P4": ((1, 1, 1), (3, 2, 2, 1, 1, 1, 1)),
        "P5": ((1, 1, 1), (3, 2, F(3, 2), 1, 1, 1, 1)),
    },
}
# Coefficient table of every ordering, keyed by index 1..8 (ORDERING_ROWS).
TABLES = {1: Q_TABLE, **P_TABLE}


def row_slack(a, b, rates) -> Fraction:
    """a . rates - b, each entry made a ``Fraction`` and summed in turn."""
    terms = (Fraction(x) * Fraction(r) for x, r in zip(a, rates))
    return sum(terms, Fraction(0)) - Fraction(b)


def _cum(h):
    out, acc = [], Fraction(0)
    for x in h:
        acc += x
        out.append(acc)
    return out


def regime_of(h) -> str:
    h = [Fraction(x) for x in h]
    if h[2] >= h[3] + h[4]:
        return "I"
    if h[2] >= h[3]:
        return "II"
    return "III"


def expected_corners(h):
    """Closed-form corner coordinates for the active regime of the first
    ordering, as a dict label -> (R1, R2, R3) of exact rationals."""
    h = [Fraction(x) for x in h]
    h1, h2, h3, h4, h5, h6, h7 = h
    H1, H2, H3, H4, H5, H6, H7 = _cum(h)
    shared = {
        "1": (H1, H4, H7),
        "2": (H1, H7 - h5, H5),
        "3": (H1 + h3 + h4, H2, H7),
        "4": (H1 + h3 + h4 + h7, H2, H6),
    }
    upper = {
        "7": (H1 + h4, H3, H3 + h5 + h6 + h7),
        "8": (H1 + h3, H2 + h4, H3 + h5 + h6 + h7),
        "9": (H1 + h4, H3 + h6 + h7, H3 + h5),
        "10": (H1 + h3 + h7, H2 + h4, H3 + h5 + h6),
    }
    reg = regime_of(h)
    if reg == "I":
        out = {f"X{k}": v for k, v in {**shared, **upper}.items()}
        out["X5"] = (H1 + h4 + h5, H3 + h6 + h7, H3)
        out["X6"] = (H1 + h3 + h7, H2 + h4 + h5 + h6, H3)
        return out
    if reg == "II":
        out = {f"Y{k}": v for k, v in {**shared, **upper}.items()}
        out["Y5"] = (H1 + h4 + h5, H2 + h4 + h5 + h6 + h7, H3)
        out["Y6"] = (H1 + h4 + h5 + h7, H2 + h4 + h5 + h6, H3)
        out["Y11"] = (H1 + h3, H3 + h6 + h7, H2 + h4 + h5)
        out["Y12"] = (H1 + h3 + h7, H3 + h6, H2 + h4 + h5)
        return out
    half = (h3 + h4) / 2
    out = {f"Z{k}": v for k, v in shared.items()}
    out["Z5"] = (H1 + h4 + h5, H2 + h4 + h5 + h6 + h7, H3)
    out["Z6"] = (H1 + h4 + h5 + h7, H2 + h4 + h5 + h6, H3)
    out["Z7"] = (H1 + half, H2 + half, H2 + half + h5 + h6 + h7)
    out["Z8"] = (H1 + half, H2 + half + h6 + h7, H2 + half + h5)
    out["Z9"] = (H1 + half + h7, H2 + half, H2 + half + h5 + h6)
    out["Z10"] = (H1 + half + h7, H2 + half + h6, H2 + half + h5)
    return out


# Representative profiles (one strictly inside each regime) and their corner
# coordinates, evaluated by hand from the formulas above.
REP_PROFILES = {
    "I": (1, 1, 3, 1, 1, 1, 1),
    "II": (1, 1, 3, 2, 2, 1, 1),
    "III": (1, 1, 1, 3, 1, 1, 1),
}
REP_CORNERS = {
    "I": {
        "X1": (1, 6, 9), "X2": (1, 8, 7), "X3": (5, 2, 9), "X4": (6, 2, 8),
        "X5": (3, 7, 5), "X6": (5, 5, 5), "X7": (2, 5, 8), "X8": (4, 3, 8),
        "X9": (2, 7, 6), "X10": (5, 3, 7),
    },
    "II": {
        "Y1": (1, 7, 11), "Y2": (1, 9, 9), "Y3": (6, 2, 11), "Y4": (7, 2, 10),
        "Y5": (5, 8, 5), "Y6": (6, 7, 5), "Y7": (3, 5, 9), "Y8": (4, 4, 9),
        "Y9": (3, 7, 7), "Y10": (5, 4, 8), "Y11": (4, 7, 6), "Y12": (5, 6, 6),
    },
    "III": {
        "Z1": (1, 6, 9), "Z2": (1, 8, 7), "Z3": (5, 2, 9), "Z4": (6, 2, 8),
        "Z5": (5, 8, 3), "Z6": (6, 7, 3), "Z7": (3, 4, 7), "Z8": (3, 6, 5),
        "Z9": (4, 4, 6), "Z10": (4, 5, 5),
    },
}


# ---------------------------------------------------------------------------
# Exact membership oracle: convex hull of the corner points plus the
# non-negative orthant, converted to half-space form over integers.
# ---------------------------------------------------------------------------

def _lcm(a, b):
    return a * b // gcd(a, b)


def _reduce_vec(v):
    g = reduce(gcd, (abs(x) for x in v))
    return tuple(x // g for x in v) if g else tuple(v)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def hull_facets(corners):
    """Half-space representation of conv(corners) + R^3_{>=0}.

    Returns (A, b, scale): integer normal rows A, offsets b, and the integer
    scale by which corner coordinates were multiplied.  A point x (rational)
    lies in the region iff A . (x * scale) >= b componentwise.

    Method: every facet of the polyhedron has a componentwise non-negative
    normal (the recession cone is the orthant) and its plane contains two
    independent directions drawn from corner differences and coordinate axes.
    Taking cross products of all such pairs therefore produces every facet
    normal; filtering to normals whose tight set has at least three
    generators (tight corners plus axis rays lying in the face) discards the
    spurious candidates, and offsets are minima over the corners.
    """
    scale = reduce(_lcm, (f.denominator for c in corners for f in c), 1)
    pts = [tuple(int(f * scale) for f in c) for c in corners]
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    dirs = set()
    for p, q in combinations(pts, 2):
        d = tuple(a - b for a, b in zip(p, q))
        if any(d):
            dirs.add(_reduce_vec(d))
    vecs = list(dirs) + axes
    cands = set(map(tuple, axes))
    for u, v in combinations(vecs, 2):
        n = _cross(u, v)
        if not any(n):
            continue
        if all(x >= 0 for x in n):
            cands.add(_reduce_vec(n))
        elif all(x <= 0 for x in n):
            cands.add(_reduce_vec(tuple(-x for x in n)))
    A, b = [], []
    for a in cands:
        vals = [a[0] * p[0] + a[1] * p[1] + a[2] * p[2] for p in pts]
        lo = min(vals)
        tight = sum(1 for v in vals if v == lo)
        rays = sum(1 for x in a if x == 0)
        if tight + rays >= 3:
            A.append(a)
            b.append(lo)
    return A, b, scale


def hull_contains_batch(facets, queries):
    """Evaluate the oracle on a batch of rational points.

    ``facets`` is the (A, b, scale) triple from hull_facets; ``queries`` is a
    list of (num1, num2, num3, den) integer tuples representing the rational
    point (num1/den, num2/den, num3/den).  Returns a boolean list.
    """
    A, b, scale = facets
    if not queries:
        return []
    nums = np.array([q[:3] for q in queries], dtype=np.int64)
    dens = np.array([q[3] for q in queries], dtype=np.int64)
    Am = np.array(A, dtype=np.int64)
    bm = np.array(b, dtype=np.int64)
    # Guard against int64 overflow; fall back to exact Python ints if the
    # magnitudes are too large (rare with the small test profiles).
    bound = (
        3 * int(np.abs(Am).max(initial=1)) * int(np.abs(nums).max(initial=1))
        * int(scale)
    )
    bound = max(bound, int(np.abs(bm).max(initial=1)) * int(dens.max(initial=1)))
    if bound < 2**62:
        lhs = (nums @ Am.T) * scale
        rhs = bm[None, :] * dens[:, None]
        return list((lhs >= rhs).all(axis=1))
    out = []
    for n1, n2, n3, den in queries:
        ok = all(
            (a[0] * n1 + a[1] * n2 + a[2] * n3) * scale >= bb * den
            for a, bb in zip(A, b)
        )
        out.append(ok)
    return out


# ---------------------------------------------------------------------------
# Reference vertex enumerator.
# ---------------------------------------------------------------------------

def _det3(r1, r2, r3):
    return (
        r1[0] * (r2[1] * r3[2] - r2[2] * r3[1])
        - r1[1] * (r2[0] * r3[2] - r2[2] * r3[0])
        + r1[2] * (r2[0] * r3[1] - r2[1] * r3[0])
    )


def reference_corners(rows):
    """Every vertex of {R >= 0 : a . R >= b for each (a, b, tag) in rows}.

    Each row is scaled to integers by the lcm of its own denominators; every
    3-subset of the rows and the three coordinate planes is solved by
    Cramer's rule, and the points that satisfy all planes are kept,
    deduplicated and sorted.  Returns a list of (rates, tight) pairs, where
    ``tight`` holds, in row order, the tags of the rows whose slack
    a . rates - b is zero in direct ``Fraction`` arithmetic.
    """
    rows = [(tuple(Fraction(x) for x in a), Fraction(b), tag)
            for a, b, tag in rows]
    planes = []
    for a, b, _ in rows:
        k = reduce(_lcm, (x.denominator for x in a), b.denominator)
        planes.append((*(int(x * k) for x in a), int(b * k)))
    planes += [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    seen = set()
    for p1, p2, p3 in combinations(planes, 3):
        det = _det3(p1, p2, p3)
        if det == 0:
            continue
        cols = (p1, p2, p3)
        n = [
            _det3(*(p[:c] + (p[3],) + p[c + 1:3] for p in cols))
            for c in range(3)
        ]
        if all(
            (a1 * n[0] + a2 * n[1] + a3 * n[2] - b * det) * det >= 0
            for a1, a2, a3, b in planes
        ):
            seen.add(tuple(Fraction(x, det) for x in n))
    return [
        (rates, tuple(
            tag for a, b, tag in rows
            if sum(x * r for x, r in zip(a, rates)) == b
        ))
        for rates in sorted(seen)
    ]


# ---------------------------------------------------------------------------
# Exhaustive search over concatenation-only (source separation) schemes.
# ---------------------------------------------------------------------------

def minimal_hitting_patterns(level_seq):
    """For each stream level k, the minimal description subsets (as masks)
    that intersect every decoder required to recover stream k.

    A concatenation-only scheme places each bit of stream k into some set of
    descriptions; a decoder recovers the bit iff its subset intersects that
    set.  Only inclusion-minimal placements matter for feasibility, because a
    superset placement costs at least as much on every description.
    """
    decoders = [MASKS[s] for s in level_seq]
    out = []
    for k in range(7):
        need = decoders[k:]
        pats = [p for p in range(1, 8) if all(p & s for s in need)]
        minimal = [
            p for p in pats
            if not any(q != p and q & p == q for q in pats)
        ]
        out.append(tuple(minimal))
    return out


def concat_feasible(level_seq, lengths, budgets):
    """True iff some concatenation-only scheme meets all 7 decoders with the
    given per-description bit budgets.  Exhaustive over distributions of each
    stream's bits among its minimal placements (bits are interchangeable)."""
    pats = minimal_hitting_patterns(level_seq)

    def distributions(total, k):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in distributions(total - first, k - 1):
                yield (first,) + rest

    acc = {(0, 0, 0)}
    for k in range(7):
        options = set()
        for dist in distributions(lengths[k], len(pats[k])):
            cost = [0, 0, 0]
            for cnt, p in zip(dist, pats[k]):
                for d in range(3):
                    if p & (1 << d):
                        cost[d] += cnt
            options.add(tuple(cost))
        nxt = set()
        for a in acc:
            for o in options:
                c = (a[0] + o[0], a[1] + o[1], a[2] + o[2])
                if all(c[d] <= budgets[d] for d in range(3)):
                    nxt.add(c)
        if not nxt:
            return False
        acc = nxt
    return True


def concat_min_total(level_seq, lengths):
    """Minimum total description length of any concatenation-only scheme.

    The total cost separates per bit: each bit of stream k pays the size of
    its placement, so the optimum picks a smallest minimal placement."""
    pats = minimal_hitting_patterns(level_seq)
    total = 0
    for k in range(7):
        total += lengths[k] * min(bin(p).count("1") for p in pats[k])
    return total


# ---------------------------------------------------------------------------
# Bit-level decoder.
# ---------------------------------------------------------------------------

def _positions(offsets, group) -> np.ndarray:
    idx = [
        np.arange(
            offsets[p.stream - 1] + p.start,
            offsets[p.stream - 1] + p.stop,
            dtype=np.int64,
        )
        for p in group
    ]
    if not idx:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(idx) if len(idx) > 1 else idx[0]


def bit_decode(scheme, subset: str, available):
    """Recover streams V1..V_k for a decoder subset (k = its L1 level).

    ``available`` must contain exactly the descriptions named by ``subset``
    (an :class:`EncodedDescriptions` with None elsewhere, or a mapping from
    description index to bit array).  Raises :class:`Unresolvable` if some
    required stream cannot be determined — which never happens for catalog
    schemes fed their own encoder output.
    """
    from amld3.codec import (
        EncodedDescriptions, LengthMismatch, Piece, Unresolvable, as_bit_array,
    )

    if subset not in MASKS:
        raise KeyError(f"unknown decoder subset {subset!r}")
    members = [d for d in (1, 2, 3) if MASKS[subset] >> (d - 1) & 1]
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
    level = ORDERING_ROWS[0].index(subset) + 1

    offsets = [0] * 7
    pos = 0
    for k in range(7):
        offsets[k] = pos
        pos += scheme.lengths[k]
    state = np.full(pos, -1, dtype=np.int8)

    xor_rules = []
    for d in members:
        cursor = 0
        arr = given[d]
        for seg in scheme.segments[d - 1]:
            chunk = arr[cursor:cursor + seg.size]
            cursor += seg.size
            if isinstance(seg, Piece):
                state[_positions(offsets, (seg,))] = chunk
            else:
                xor_rules.append(
                    (
                        _positions(offsets, seg.group_a),
                        _positions(offsets, seg.group_b),
                        chunk.astype(np.int8),
                    )
                )

    changed = True
    while changed:
        changed = False
        for pa, pb, val in xor_rules:
            sa, sb = state[pa], state[pb]
            fill_b = (sa >= 0) & (sb < 0)
            if fill_b.any():
                state[pb[fill_b]] = sa[fill_b] ^ val[fill_b]
                changed = True
            fill_a = (sb >= 0) & (sa < 0)
            if fill_a.any():
                state[pa[fill_a]] = state[pb[fill_a]] ^ val[fill_a]
                changed = True

    out = []
    for k in range(1, level + 1):
        lo = offsets[k - 1]
        chunk = state[lo:lo + scheme.lengths[k - 1]]
        if (chunk < 0).any():
            raise Unresolvable(
                f"decoder {subset} cannot determine stream V{k} "
                f"under scheme {scheme.label}"
            )
        out.append(chunk.astype(np.uint8))
    return tuple(out)


# ---------------------------------------------------------------------------
# Decodability of a template at every length vector.
# ---------------------------------------------------------------------------

def _unit(k):
    return tuple(F(int(i == k)) for i in range(1, 8))


def _total(forms):
    return tuple(sum(col, F(0)) for col in zip(*forms))


def _halved(form):
    return tuple(F(c, 2) for c in form)


def piece_forms(template) -> dict:
    """Piece name -> its length as a linear form over l1..l7 (seven
    Fractions): ``Vk`` for a stream left whole, half the split's form (the
    template stores twice each piece length) for a piece cut from one."""
    forms = {f"V{k}": _unit(k) for k in range(1, 8)}
    for stream, names, doubled in template.splits:
        del forms[f"V{stream}"]
        forms.update(zip(names, map(_halved, doubled)))
    return forms


def splits_sum_to_streams(template) -> bool:
    """Each split's piece lengths add up to its stream's, as forms."""
    return all(
        _total(map(_halved, doubled)) == _unit(stream)
        for stream, _, doubled in template.splits
    )


def xor_groups_balance(template) -> bool:
    """The two groups of each XOR have equal lengths, as forms."""
    forms = piece_forms(template)
    return all(
        _total(forms[n] for n in item[0]) == _total(forms[n] for n in item[1])
        for desc in template.layout for item in desc
        if not isinstance(item, str)
    )


def propagation_recovers(template, subset: str) -> bool:
    """Whether the descriptions of ``subset`` reveal every piece of
    V1..V_k, k the subset's L1 level: the copied pieces are known, and an
    XOR whose one group is wholly known reveals the other, repeated until
    nothing changes.  With balanced XORs and exact splits this holds for
    every length vector the template instantiates at, bit by bit."""
    level = ORDERING_ROWS[0].index(subset) + 1
    items = [
        item for d in (1, 2, 3) if MASKS[subset] >> (d - 1) & 1
        for item in template.layout[d - 1]
    ]
    known = {item for item in items if isinstance(item, str)}
    xors = [item for item in items if not isinstance(item, str)]
    grew = True
    while grew:
        grew = False
        for a, b in xors:
            for src, dst in ((a, b), (b, a)):
                if known.issuperset(src) and not known.issuperset(dst):
                    known.update(dst)
                    grew = True
    return all(
        name in known for name in piece_forms(template)
        if int(name[1:].split(".")[0]) <= level
    )
