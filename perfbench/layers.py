"""Metric assembly: end-to-end metrics, per-layer metrics, table probes.

End-to-end metrics come from untraced runs.  Per-layer metrics come from
the spans of a traced run, plus fixed-input probes that reproduce the rows
of the ROADMAP baseline table (``table.*``).  Times are reported at
reference speed (see speed.py) unless a ``Speed`` of None is passed, which
gives plain wall times: interpreter work against the Fraction loop and
decode against the numpy loop.  Encode, pack and unpack stream whole
arrays through memory, which neither loop tracks, so they, and the
``table.*`` codec rows, are always reported as wall times.
"""

from __future__ import annotations

import re
from fractions import Fraction

import gen
from params import REP
from stats import clock, mean, median, quantile, tail
from work_cli import run_process

SUBSETS = gen.SUBSETS
ANALYSIS_KINDS = (("corners", "ms", 1e3), ("check", "us", 1e6),
                  ("contains", "us", 1e6), ("bounds", "us", 1e6))
CLI_CMDS = ("region", "corners", "check-h", "check-D", "md-bounds", "gap",
            "encode", "decode")
GAUSSIAN = ("DistortionVector", "normalize_distortions", "induced_ordering",
            "inner_bound", "outer_bound", "parametric_outer_bound",
            "facet_gap", "md_contains")
DYADIC = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125)
FLOOR_PROBES = 5
INPROC_ROUNDS = 5
REPEATS = 300
# Spans of codec calls that are reported as wall times.
WALL_SPANS = ("codec.encode", "codec.pack_bits", "codec.unpack_bits")


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _scaled(samples, speed) -> list[float]:
    return speed.scale(samples) if speed else [dt for _, dt in samples]


def tail_report(rec, q: float) -> dict:
    out = {}
    for kind, _, _ in ANALYSIS_KINDS:
        xs = [dt for _, dt in rec.samples(kind) or rec.samples(kind, "traced")]
        if xs:
            t = tail(xs, q)
            out[kind] = {"q": q, "n": t["n"], "beyond": t["beyond"]}
    return out


def end_to_end(works, rec, speed, peaks, setup, tail_q) -> dict:
    """The end-to-end metrics, at reference speed (or wall time if None)."""
    rounds = works["codec-bulk"].rounds(wall=speed is None)
    if not rounds:
        rec.check("codec-bulk", "no complete codec round in this run")
        rounds = [(0.0, 0.0)]
    out = {
        "setup_s": _m(median(_scaled(setup, speed)), "s"),
        "encode_mbit_s": _m(median([r[0] for r in rounds]), "Mbit/s"),
        "decode_mbit_s": _m(median([r[1] for r in rounds]), "Mbit/s"),
        "encode_peak_b_per_bit": _m(max(peaks["encode"].values()), "B/bit"),
        "decode_peak_b_per_bit": _m(max(peaks["decode"].values()), "B/bit"),
    }
    for kind, unit, scale in ANALYSIS_KINDS:
        xs = _scaled(rec.samples(kind), speed)
        out[f"{kind}_{unit}_p50"] = _m(median(xs) * scale, unit)
        out[f"{kind}_{unit}_tail"] = _m(quantile(xs, tail_q) * scale, unit)
    for kind in ("analysis", "codec"):
        xs = _scaled(rec.samples(f"cli_{kind}"), speed)
        out[f"cli_{kind}_ms_p50"] = _m(median(xs) * 1e3, "ms")
    return out


# ---------------------------------------------------------------------------
# Traced runs.
# ---------------------------------------------------------------------------

def _h_share(amld3, n: int) -> float:
    """Share of build_mld_region time spent in EntropyProfile.H."""
    spent = [0.0]
    base_h = amld3.EntropyProfile.H.fget

    class TimedProfile(amld3.EntropyProfile):
        @property
        def H(self):
            t0 = clock()
            v = base_h(self)
            spent[0] += clock() - t0
            return v

    prof = TimedProfile(REP)
    t0 = clock()
    for _ in range(n):
        amld3.build_mld_region(amld3.L1, prof)
    return spent[0] / (clock() - t0)


def probes(amld3, works, rec, T, speed, env, work) -> dict:
    """Fixed-input probes of the ROADMAP table rows and the CLI floors."""
    T.recording = True
    speed.record()
    works["cli-calls"].inproc_probe(INPROC_ROUNDS)
    speed.record()
    T.recording = False

    out: dict = {}
    L1, prof = amld3.L1, amld3.EntropyProfile(REP)
    out["build"] = speed.timed(amld3.build_mld_region, REPEATS, L1, prof)
    out["H_frac"] = _h_share(amld3, REPEATS)
    out["enumerate"] = speed.timed(
        lambda: amld3.enumerate_corners(amld3.build_mld_region(L1, prof)), 40)
    region = amld3.build_mld_region(L1, prof)
    amld3.contains(region, (0, 0, 0))
    points = iter([(Fraction(i % 7, 2), Fraction(i % 11, 2),
                    Fraction(i % 13, 2)) for i in range(2 * REPEATS)])
    out["contains"] = speed.timed(lambda: amld3.contains(region, next(points)),
                                  2 * REPEATS)
    D = amld3.DistortionVector(DYADIC)
    noise = amld3.NoiseParams(DYADIC[:6])
    out["inner_bound"] = speed.timed(amld3.inner_bound, REPEATS, D)
    out["facet_gap"] = speed.timed(amld3.facet_gap, REPEATS, D)
    out["parametric_outer_bound"] = speed.timed(amld3.parametric_outer_bound,
                                                REPEATS, D, noise)

    def process(argv):
        _, p = run_process(argv, env, work)
        rec.check("probe", None if p.returncode == 0
                  else f"{argv[:3]} exit {p.returncode}: {p.stderr[-200:]}")
        return p

    gap = ["-m", "amld3", "gap", "--D", ",".join(map(repr, DYADIC))]
    out["interp"] = speed.timed(process, FLOOR_PROBES, ["-c", "pass"])
    out["import_cli"] = speed.timed(process, FLOOR_PROBES,
                                    ["-c", "import amld3.cli"])
    out["import_numpy"] = speed.timed(process, FLOOR_PROBES,
                                      ["-c", "import numpy"])
    out["gap_process"] = speed.timed(process, FLOOR_PROBES, gap)
    stderr = process(["-X", "importtime", *gap]).stderr
    out["loads_numpy"] = float(bool(re.search(r"\|\s+numpy\s*$", stderr,
                                              re.MULTILINE)))
    return out


def per_layer(works, rec, T, speed, peaks, extra) -> dict:
    spans = T.durations(speed.factor)
    codec, an = works["codec-bulk"], works["analysis"]
    spans.update((k, v) for k, v in T.durations().items()
                 if k.startswith(WALL_SPANS))
    spans.update((k, v) for k, v in T.durations(codec.speed.factor).items()
                 if k.startswith("codec.decode"))
    us, ms = 1e6, 1e3
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = _m(value, unit)

    def p50(name, scale):
        if not spans.get(name):
            rec.check("per-layer", f"no {name} span in this run")
            return 0.0
        return median(spans[name]) * scale

    put("ordering.ordering_from_json.us_p50",
        p50("ordering.ordering_from_json", us), "us")
    put("ordering.validate_ordering.us_p50",
        p50("ordering.validate_ordering", us), "us")
    for name in ("EntropyProfile", "build_mld_region", "slack",
                 "label_corners", "region_json_dict", "contains"):
        put(f"rate_region.{name}.us_p50", p50(f"rate_region.{name}", us), "us")
    put("rate_region.enumerate_corners.ms_p50",
        p50("rate_region.enumerate_corners", ms), "ms")
    put("rate_region.corners_per_region", mean(an.corner_counts), "count")
    put("rate_region.contains.inside_frac", mean(an.inside), "frac")
    put("rate_region.bigint_frac", mean(an.bigint), "frac")

    put("codec.encode.ms_p50", p50("codec.encode", ms), "ms")
    for s in SUBSETS:
        put(f"codec.decode.{s}.ms_p50", p50(f"codec.decode.{s}", ms), "ms")
    for s in SUBSETS:
        put(f"codec.decode.{s}.peak_b_per_bit",
            max(v for (_, sub), v in peaks["decode"].items() if sub == s),
            "B/bit")
    for label in ("X5", "Y5", "Z7"):
        put(f"codec.xor_bits_frac.{label}", codec.xor_frac[label], "frac")
    put("codec.instantiate_scheme.us_p50",
        p50("codec.instantiate_scheme", us), "us")
    for name, calls in (("pack_bits", codec.pack), ("unpack_bits", codec.unpack)):
        put(f"codec.{name}.mbit_s",
            median([bits / dt * 1e-6 for bits, dt in calls]), "Mbit/s")

    for name in GAUSSIAN:
        put(f"gaussian_md.{name}.us_p50", p50(f"gaussian_md.{name}", us), "us")

    interp = median(extra["interp"]) * ms
    put("cli.interp_ms_p50", interp, "ms")
    put("cli.import_ms_p50", median(extra["import_cli"]) * ms - interp, "ms")
    put("cli.analysis_loads_numpy", extra["loads_numpy"], "count")
    for cmd in CLI_CMDS:
        put(f"cli.{cmd}.inproc_ms_p50", p50(f"cli.{cmd}.inproc", ms), "ms")
    for kind in ("analysis", "codec"):
        xs = speed.scale(rec.samples(f"cli_{kind}")
                         + rec.samples(f"cli_{kind}", "traced"))
        put(f"cli.{kind}.process_ms_p90", quantile(xs, 0.9) * ms, "ms")

    # Self time per layer, over the in-process spans (process spans are
    # whole `python -m amld3` calls and would swamp the rest).
    own = T.self_time_by_layer()
    own.pop("process", None)
    total = sum(own.values())
    for layer in ("ordering", "rate_region", "codec", "gaussian_md", "cli",
                  "op"):
        put(f"layer.{'bench' if layer == 'op' else layer}.self_frac",
            own.get(layer, 0.0) / total, "frac")

    for kind, unit, scale in ANALYSIS_KINDS + (("encode", "ms", ms),
                                               ("decode", "ms", ms)):
        ref = {"encode": None, "decode": codec.speed}.get(kind, speed)
        traced = _scaled(rec.samples(kind, "traced"), ref)
        plain = _scaled(rec.samples(kind), ref)
        put(f"trace.overhead.{kind}_{unit}",
            (median(traced) - median(plain)) * scale, unit)

    put("table.build_l1_rep.us_p50", median(extra["build"]) * us, "us")
    put("table.build_l1_rep.H_frac", extra["H_frac"], "frac")
    put("table.enumerate_l1_rep.ms_p50", median(extra["enumerate"]) * ms, "ms")
    put("table.contains_cached.us_p50", median(extra["contains"]) * us, "us")
    for name in ("inner_bound", "facet_gap", "parametric_outer_bound"):
        put(f"table.{name}.us_p50", median(extra[name]) * us, "us")
    x5_bits = sum(codec.cases[0][1])     # SCHEMES[0] is X5 at 9 Mbit

    def x5_rate(key):                    # bundle bits per second, as the table
        return x5_bits / median(codec.per_call[key]) * 1e-6

    put("table.x5_9mbit.encode.mbit_s", x5_rate(("X5", "encode")), "Mbit/s")
    put("table.x5_9mbit.encode.peak_mb", peaks["encode"]["X5"] * x5_bits / 1e6,
        "MB")
    for s in ("G1", "G13", "G23"):
        put(f"table.x5_9mbit.decode.{s}.mbit_s", x5_rate(("X5", s)), "Mbit/s")
    put("table.x5_9mbit.decode.G23.peak_mb",
        peaks["decode"][("X5", "G23")] * x5_bits / 1e6, "MB")
    put("table.cli_gap.process_ms_p50", median(extra["gap_process"]) * ms, "ms")
    put("table.import_numpy.process_ms_p50",
        median(extra["import_numpy"]) * ms, "ms")
    return out
