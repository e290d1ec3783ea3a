"""Output checks that do not call the library under test.

Every check returns ``None`` when the output is right and a short reason
string when it is wrong.  The expected values come from the test suite's
frozen oracles (``tests/_oracles.py``, imported read-only) or from
arithmetic written out here; nothing in this module imports ``amld3``.
The checks run outside the timers.

Orderings other than the first have no independent coefficient table yet,
so their regions are checked for internal consistency only: every reported
corner is a feasible vertex of the reported constraints, and verdicts agree
with the reported slacks or with the hull of the reported corners.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import combinations

import numpy as np

import _oracles

F = Fraction
SUBSETS = _oracles.SUBSETS
ORDERING_ROWS = _oracles.ORDERING_ROWS
L1_ROW = ORDERING_ROWS[0]
L1_LEVEL = {s: i + 1 for i, s in enumerate(L1_ROW)}
Q_ORDER = _oracles.Q_ORDER
Q_NORMALS = tuple(_oracles.Q_TABLE[t][0] for t in Q_ORDER)
BOUND_SUFFIXES = ("1.1", "1.2", "1.3", "2.12", "2.13", "2.23",
                  "3.1", "3.2", "3.3", "4", "5")
P_ORDER = ("P1.1", "P1.2", "P1.3", "P2.12", "P2.13", "P2.23",
           "P3.1", "P3.2", "P3.3", "P4", "P5")

# Inner-minus-outer offset of each bound row, and the facet distances the
# offsets imply (offset / norm of the row's normal).
OUTER_SLACK = (0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0, 2.0, 4.5)
GAP_CONSTANTS = {
    "(1,0,0)": 0.0,
    "(1,1,0)": 1 / math.sqrt(2),
    "(2,1,1)": 3 / math.sqrt(6),
    "(1,1,1)": (2 / math.sqrt(3), 4.5 / math.sqrt(3)),
}
FLOAT_TOL = 1e-9
QUANTIZED_TOL = 1e-8  # CLI floats carry 12 significant digits


# ---------------------------------------------------------------------------
# Exact regions of the first ordering.
# ---------------------------------------------------------------------------

def l1_offsets(h) -> list[tuple[tuple[int, int, int], Fraction]]:
    """The eleven (normal, offset) rows of the first ordering, from Q_TABLE."""
    h = [F(x) for x in h]
    return [
        (a, sum(F(c) * x for c, x in zip(coeffs, h)))
        for a, coeffs in (_oracles.Q_TABLE[t] for t in Q_ORDER)
    ]


def l1_corners(h) -> dict[tuple, str]:
    """Expected corner rates -> merged catalog label (boundary merges)."""
    by_rates: dict[tuple, list[str]] = {}
    for label, rates in _oracles.expected_corners(h).items():
        by_rates.setdefault(tuple(F(x) for x in rates), []).append(label)
    return {
        r: "+".join(sorted(lbls, key=lambda s: int(s[1:])))
        for r, lbls in by_rates.items()
    }


def l1_slacks(h, rates) -> list[Fraction]:
    r = [F(x) for x in rates]
    return [sum(F(c) * x for c, x in zip(a, r)) - b for a, b in l1_offsets(h)]


def check_l1_region_doc(doc: dict, h) -> str | None:
    """A region/corners JSON document of the first ordering."""
    if "constraints" in doc:
        cons = doc["constraints"]
        if [c["tag"] for c in cons] != list(Q_ORDER):
            return "constraint tags differ from Q1..Q11"
        for c, (a, b) in zip(cons, l1_offsets(h)):
            if tuple(F(x) for x in c["a"]) != a or F(c["b"]) != b:
                return f"constraint {c['tag']} differs from Q_TABLE"
    expected = l1_corners(h)
    got = {}
    for c in doc["corners"]:
        got[tuple(F(x) for x in c["rates"])] = c["label"]
    if set(got) != set(expected):
        return f"corner set differs: {len(got)} reported, {len(expected)} expected"
    for r, label in expected.items():
        if got[r] != label:
            return f"corner {r} labelled {got[r]!r}, expected {label!r}"
    rows = l1_offsets(h)
    for c in doc["corners"]:
        r = [F(x) for x in c["rates"]]
        tight = [t for t, (a, b) in zip(Q_ORDER, rows)
                 if sum(F(x) * y for x, y in zip(a, r)) == b]
        if list(c["tight"]) != tight:
            return f"tight set of corner {c['rates']} differs"
    return None


def _rank3(normals) -> bool:
    for u, v, w in combinations(normals, 3):
        det = (u[0] * (v[1] * w[2] - v[2] * w[1])
               - u[1] * (v[0] * w[2] - v[2] * w[0])
               + u[2] * (v[0] * w[1] - v[1] * w[0]))
        if det != 0:
            return True
    return False


def check_vertex_doc(doc: dict) -> str | None:
    """Corners of a region of orderings 2..8 are distinct feasible vertices
    of its rows."""
    cons = doc["constraints"]
    if [c["tag"] for c in cons] != list(P_ORDER):
        return "constraint tags differ from the expected emission order"
    rows = [(tuple(F(x) for x in c["a"]), F(c["b"]), c["tag"]) for c in cons]
    rows += [((F(1), F(0), F(0)), F(0), None), ((F(0), F(1), F(0)), F(0), None),
             ((F(0), F(0), F(1)), F(0), None)]
    seen = set()
    for c in doc["corners"]:
        r = tuple(F(x) for x in c["rates"])
        if r in seen:
            return f"corner {c['rates']} reported twice"
        seen.add(r)
        slack = [sum(x * y for x, y in zip(a, r)) - b for a, b, _ in rows]
        if min(slack) < 0:
            return f"corner {c['rates']} is infeasible"
        if not _rank3([a for (a, _, _), s in zip(rows, slack) if s == 0]):
            return f"corner {c['rates']} is not a vertex"
        tight = [t for (_, _, t), s in zip(rows, slack) if s == 0 and t]
        if list(c["tight"]) != tight:
            return f"tight set of corner {c['rates']} differs"
        if c["label"] is not None:
            return f"corner {c['rates']} of a non-first ordering is labelled"
    if len(seen) < 3:
        return "fewer than 3 corners"
    return None


def check_slacks(expected: list, got: list, inside: bool) -> str | None:
    """Slack list of a `check --h` op and its verdict."""
    if list(got) != list(expected):
        return "slacks differ from the expected rows"
    if inside != all(s >= 0 for s in expected):
        return f"contains verdict {inside} disagrees with the slacks"
    return None


def contains_expected(corner_rates, queries) -> list[bool]:
    """Hull-oracle verdicts for rational query points.

    The hull is conv(corners) + the non-negative orthant, from
    ``_oracles.hull_facets``.

    The oracle's batch routine packs queries into int64 arrays, so queries
    beyond that range are evaluated here with the same facet inequality
    over Python integers.
    """
    facets = _oracles.hull_facets(list(corner_rates))
    batch = []
    for q in queries:
        d = reduce(math.lcm, (x.denominator for x in q), 1)
        batch.append((int(q[0] * d), int(q[1] * d), int(q[2] * d), d))
    if all(abs(x) < 2**62 for row in batch for x in row):
        return [bool(v) for v in _oracles.hull_contains_batch(facets, batch)]
    A, b, scale = facets
    return [
        all((a[0] * n1 + a[1] * n2 + a[2] * n3) * scale >= bb * den
            for a, bb in zip(A, b))
        for n1, n2, n3, den in batch
    ]


def check_verdict(expected: bool, got) -> str | None:
    if bool(got) != expected or not isinstance(got, bool):
        return f"contains gave {got!r}, the hull oracle {expected}"
    return None


def int_rows_exceed_int64(cons) -> bool:
    """Whether any constraint, scaled to integers, leaves the int64 range."""
    for a, b in cons:
        vals = [F(x) for x in a] + [F(b)]
        k = reduce(math.lcm, (v.denominator for v in vals), 1)
        if any(abs(v * k) >= 2**63 for v in vals):
            return True
    return False


# ---------------------------------------------------------------------------
# Codec.
# ---------------------------------------------------------------------------

def check_streams(source, decoded, subset: str) -> str | None:
    """Decoded streams are the first `level` source streams, bit for bit."""
    level = L1_LEVEL[subset]
    if len(decoded) != level:
        return f"{subset}: {len(decoded)} streams, expected {level}"
    for k in range(level):
        if not np.array_equal(np.asarray(decoded[k]), source[k]):
            return f"{subset}: stream V{k + 1} differs from the source"
    return None


def expected_description_bits(label: str, lengths) -> tuple[int, int, int]:
    """Description lengths of a catalog scheme: its corner's rates."""
    rates = _oracles.expected_corners(lengths)[label]
    return tuple(int(r) for r in rates)


# ---------------------------------------------------------------------------
# Gaussian bounds.
# ---------------------------------------------------------------------------

def sr_rates_l1(D) -> list[float]:
    """Layer rates along the first ordering for targets that induce it."""
    out, prev = [], 1.0
    for s in L1_ROW:
        cur = D[SUBSETS.index(s)]
        out.append(0.5 * math.log2(prev / cur))
        prev = cur
    return out


def l1_bound_offsets(D) -> tuple[list[float], list[float]]:
    """(inner, outer) offsets for targets that induce the first ordering."""
    r = sr_rates_l1(D)
    inner = [sum(float(c) * x for c, x in zip(coeffs, r))
             for _, coeffs in (_oracles.Q_TABLE[t] for t in Q_ORDER)]
    return inner, [b - s for b, s in zip(inner, OUTER_SLACK)]


def check_gap(gap: dict, tol: float = FLOAT_TOL) -> str | None:
    """A facet-gap dict as produced by GapReport.as_dict()."""
    for key in ("(1,0,0)", "(1,1,0)", "(2,1,1)"):
        if abs(gap[key] - GAP_CONSTANTS[key]) > tol:
            return f"gap {key} = {gap[key]}, expected {GAP_CONSTANTS[key]}"
    for got, want in zip(gap["(1,1,1)"], GAP_CONSTANTS["(1,1,1)"]):
        if abs(got - want) > tol:
            return f"sum-rate gap {got}, expected {want}"
    return None


def check_dominance(parametric_b, outer_b, tol: float = FLOAT_TOL) -> str | None:
    for i, (p, o) in enumerate(zip(parametric_b, outer_b)):
        if p < o - tol:
            return f"parametric row {i + 1} ({p}) below outer ({o})"
    if len(parametric_b) != 11 or len(outer_b) != 11:
        return "bound row count is not 11"
    return None


def float_verdict(rows, rates, tol: float = FLOAT_TOL):
    """(inside, tight, violated) of a rate triple against (a, b, tag) rows."""
    tight, violated = [], []
    for a, b, tag in rows:
        s = sum(x * y for x, y in zip(a, rates)) - b
        if abs(s) <= tol:
            tight.append(tag)
        elif s < 0:
            violated.append(tag)
    return not violated, tight, violated


def check_offsets(got, want, tol: float) -> str | None:
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > tol * max(1.0, abs(w)):
            return f"offset {i + 1} is {g}, expected {w}"
    if len(got) != len(want):
        return "offset count differs"
    return None
