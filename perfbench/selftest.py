"""Shows that the output checks catch wrong answers.

Each case takes a right output, confirms the check accepts it, then
corrupts it the way a defect would and confirms the check rejects it:
a flipped output bit, a shifted corner, and a wrong `contains` verdict.
Every run calls :func:`run` before measuring and is marked incorrect if any
case fails.
"""

from __future__ import annotations

import copy
from fractions import Fraction

import numpy as np

import amld3

import checks
import gen
from params import REP


def _flipped_bit() -> list[str]:
    label, base = gen.SCHEMES[0]
    lengths = tuple(b * 8 for b in base)
    streams = gen.random_streams(np.random.default_rng(7), lengths)
    scheme = amld3.instantiate_scheme(amld3.TEMPLATES[label], lengths)
    enc = amld3.encode(scheme, amld3.SourceBundle(streams))
    out = list(amld3.decode(scheme, "G23", amld3.restrict(enc, "G23")))
    problems = []
    if checks.check_streams(streams, out, "G23") is not None:
        problems.append("a correct decode was rejected")
    out[3] = out[3].copy()
    out[3][2] ^= 1
    if checks.check_streams(streams, out, "G23") is None:
        problems.append("a flipped output bit was not caught")
    return problems


def _shifted_corner() -> list[str]:
    problems = []
    docs = [
        (amld3.L1, REP, checks.check_l1_region_doc),
        (gen.ORDERINGS[4], REP, lambda doc, h: checks.check_vertex_doc(doc)),
    ]
    for ordering, h, check in docs:
        prof = amld3.EntropyProfile(h)
        region = amld3.build_mld_region(ordering, prof)
        corners = amld3.enumerate_corners(region)
        if ordering == amld3.L1:
            corners = amld3.label_corners(corners, prof)
        doc = amld3.region_json_dict(region, corners)
        if check(doc, h) is not None:
            problems.append(f"correct corners of ordering {ordering.index} "
                            "were rejected")
        bad = copy.deepcopy(doc)
        r = bad["corners"][1]["rates"]
        r[0] = str(Fraction(r[0]) + Fraction(1, 2))
        if check(bad, h) is None:
            problems.append(f"a shifted corner of ordering {ordering.index} "
                            "was not caught")
    return problems


def _wrong_verdict() -> list[str]:
    corner_rates = list(checks.l1_corners(REP))
    queries = [(Fraction(3), Fraction(7), Fraction(5)),   # corner X5
               (Fraction(2), Fraction(6), Fraction(4))]   # below it
    expected = checks.contains_expected(corner_rates, queries)
    region = amld3.build_mld_region(amld3.L1, amld3.EntropyProfile(REP))
    problems = []
    for q, want in zip(queries, expected):
        got = amld3.contains(region, q)
        if checks.check_verdict(want, got) is not None:
            problems.append(f"a correct verdict at {q} was rejected")
        if checks.check_verdict(want, not got) is None:
            problems.append(f"a wrong verdict at {q} was not caught")
    if expected != [True, False]:
        problems.append(f"hull oracle gave {expected} for the fixed queries")
    return problems


def run() -> list[str]:
    """Problems found; an empty list means every corruption was caught."""
    return _flipped_bit() + _shifted_corner() + _wrong_verdict()
