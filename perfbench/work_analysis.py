"""The `analysis` workload: exact regions and float bounds, no codec.

One cycle is a seeded shuffle of one `corners`, one `check` and one
`bounds` op, each on a fresh input.  Right after the `corners` op, one
block of criterion 4's query mix (ten `contains` queries) runs on the
region it built and whose corners it found, as criterion 4 queries regions
of known corners.  The kinds sample the same stretch of machine time, so
drift moves them together.
"""

from __future__ import annotations

import amld3
from amld3 import (
    DistortionVector, EntropyProfile, NoiseParams, build_mld_region, contains,
    enumerate_corners, facet_gap, induced_ordering, inner_bound, label_corners,
    md_contains, normalize_distortions, ordering_from_json, outer_bound,
    parametric_outer_bound, region_json_dict, validate_ordering,
)

import checks
import gen
from stats import clock

CYCLE = ("corners", "check", "bounds")


def op_corners(T, ordering, h):
    prof = T.call("rate_region.EntropyProfile", EntropyProfile, h)
    region = T.call("rate_region.build_mld_region", build_mld_region,
                    ordering, prof)
    corners = T.call("rate_region.enumerate_corners", enumerate_corners, region)
    if ordering == amld3.L1:
        corners = T.call("rate_region.label_corners", label_corners,
                         corners, prof)
    doc = T.call("rate_region.region_json_dict", region_json_dict,
                 region, corners)
    return region, corners, doc


def _slacks(region, rates):
    return [c.evaluate(rates) for c in region.constraints]


def op_check(T, obj, h, rates):
    """The library work of `amld3 check --h`."""
    o = T.call("ordering.ordering_from_json", ordering_from_json, obj)
    prof = T.call("rate_region.EntropyProfile", EntropyProfile, h)
    region = T.call("rate_region.build_mld_region", build_mld_region, o, prof)
    slacks = T.call("rate_region.slack", _slacks, region, rates)
    inside = T.call("rate_region.contains", contains, region, rates)
    return region, slacks, inside


def op_bounds(T, values, rates):
    D = T.call("gaussian_md.DistortionVector", DistortionVector, values)
    Dn = T.call("gaussian_md.normalize_distortions", normalize_distortions, D)
    o = T.call("gaussian_md.induced_ordering", induced_ordering, Dn)
    inner = T.call("gaussian_md.inner_bound", inner_bound, D)
    outer = T.call("gaussian_md.outer_bound", outer_bound, D)
    po = T.call("gaussian_md.parametric_outer_bound", parametric_outer_bound,
                D, NoiseParams.matched(Dn, o))
    gap = T.call("gaussian_md.facet_gap", facet_gap, D)
    inside = T.call("gaussian_md.md_contains", md_contains, outer, rates)
    return o, inner, outer, po, gap, inside


class Analysis:
    def __init__(self, seed: int, T, rec) -> None:
        self.inp = gen.AnalysisInputs(seed)
        self.T = T
        self.rec = rec
        self.cycle_rng = gen.seeded_rng(seed, "analysis-cycle")
        self.corner_counts: list[int] = []
        self.inside: list[bool] = []
        self.bigint: list[bool] = []
        self.built = None           # (profile, region, corners) of a corners op

    # -- one op of each kind: generate (untimed), run (timed), check --------

    def _note_profile(self, region) -> None:
        self.bigint.append(checks.int_rows_exceed_int64(
            [(c.a, c.b) for c in region.constraints]))

    def corners(self) -> None:
        self.built = None
        p = self.inp.profile("corners")
        ordering = gen.ORDERINGS[p.ordering - 1]
        T = self.T
        T.new_op()
        with T.span("op.corners"):
            t0 = clock()
            region, corners, doc = op_corners(T, ordering, p.h)
            dt = clock() - t0
        if p.ordering == 1:
            err = checks.check_l1_region_doc(doc, p.h)
        else:
            err = checks.check_vertex_doc(doc)
        self.corner_counts.append(len(doc["corners"]))
        self.rec.sample("corners", dt, err)
        if err is None:
            self.built = (p, region, corners)

    def check(self) -> None:
        p = self.inp.profile("check")
        rates = self.inp.check_rates(p)
        T = self.T
        T.new_op()
        with T.span("op.check"):
            t0 = clock()
            region, slacks, inside = op_check(T, p.obj, p.h, rates)
            dt = clock() - t0
        if p.ordering == 1:
            expected = checks.l1_slacks(p.h, rates)
        else:
            expected = [sum(a * r for a, r in zip(c.a, rates)) - c.b
                        for c in region.constraints]
        err = checks.check_slacks(expected, slacks, inside)
        if err is None and (region.ordering is None
                            or region.ordering.index != p.ordering):
            err = "parsed ordering differs from the input"
        self._note_profile(region)
        self.rec.sample("check", dt, err)

    def contains_block(self) -> None:
        """Criterion 4's query mix on the last corners op's region.

        The hull oracle takes the closed-form corners for the first
        ordering, and otherwise the enumerated corners, which the corners
        op's check has just confirmed to be vertices of the region.
        """
        if self.built is None:      # that corners op failed and was counted
            return
        p, region, corners = self.built
        if p.ordering == 1:
            corner_rates = list(checks.l1_corners(p.h))
        else:
            corner_rates = [c.rates for c in corners]
        queries = self.inp.queries(corner_rates, 1)
        expected = checks.contains_expected(corner_rates, queries)
        contains(region, queries[0])  # the integer rows are cached per region
        T = self.T
        times, got = [], []
        for q in queries:
            T.new_op()
            with T.span("op.contains"):
                t0 = clock()
                v = T.call("rate_region.contains", contains, region, q)
                times.append(clock() - t0)
            got.append(v)
        self._note_profile(region)
        self.inside.extend(expected)
        for dt, want, v in zip(times, expected, got):
            self.rec.sample("contains", dt, checks.check_verdict(want, v))

    def bounds(self) -> None:
        index, values, rates = self.inp.bounds_case()
        T = self.T
        T.new_op()
        with T.span("op.bounds"):
            t0 = clock()
            o, inner, outer, po, gap, inside = op_bounds(T, values, rates)
            dt = clock() - t0
        err = checks.check_gap(gap.as_dict())
        if err is None:
            err = checks.check_dominance([c.b for c in po.constraints],
                                         [c.b for c in outer.constraints])
        if err is None and inside != checks.float_verdict(
                [(c.a, c.b, c.tag) for c in outer.constraints], rates)[0]:
            err = "md_contains verdict disagrees with the outer rows"
        if err is None and o.index != index:
            err = f"induced ordering {o.index}, expected {index}"
        if err is None and index == 1:
            want_inner, _ = checks.l1_bound_offsets(values)
            err = checks.check_offsets([c.b for c in inner.constraints],
                                       want_inner, checks.FLOAT_TOL)
        self.rec.sample("bounds", dt, err)

    def validate(self) -> None:
        """Traced runs only: the ordering axioms on a level mapping."""
        row = checks.ORDERING_ROWS[self.cycle_rng.randrange(8)]
        levels = {s: row.index(s) + 1 for s in gen.SUBSETS}
        self.T.new_op()
        with self.T.span("op.validate"):
            o = self.T.call("ordering.validate_ordering", validate_ordering,
                            levels)
        self.rec.check("validate", None if o.by_level == row
                       else "validate_ordering changed the level order")

    def unit(self) -> None:
        """One cycle of the interleaved mix."""
        kinds = list(CYCLE)
        self.cycle_rng.shuffle(kinds)
        run = {"corners": self.corners, "check": self.check,
               "bounds": self.bounds}
        for kind in kinds:
            self.rec.guard(kind, run[kind])
            if kind == "corners":
                self.rec.guard("contains", self.contains_block)
        if self.T.recording:
            self.rec.guard("validate", self.validate)
