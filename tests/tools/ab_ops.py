"""Time two checkouts' analysis and codec ops against each other in one process.

Usage, from anywhere::

    python tests/tools/ab_ops.py BASE [CHANGE] [--seed N] [--ops N] [--rounds N]

``BASE`` and ``CHANGE`` are source checkouts (``CHANGE`` defaults to the one
holding this file).  Each one's ``src/amld3`` is loaded in this process
under its own package name, ``amld3_base`` and ``amld3_change``, the base
first on an even ``--seed`` and the change first on an odd one.  The ops
and inputs come from the ``perfbench/`` of the checkout holding this file,
imported read-only.  ``check``, ``corners`` and ``bounds`` run perfbench's
own ``work_analysis.op_check``, ``op_corners`` and ``op_bounds``, rebuilt for
each side with every name they read from ``amld3`` (``amld3`` itself too)
bound to that side's package, and called with a ``spans.Tracer`` that does
not record, as untraced perfbench runs do; ``contains`` is the direct
``contains(region, q)`` call that perfbench times.  ``label`` times
``label_corners`` alone, the one stage of ``op_corners`` that runs only on
L1: it labels the corners of those ``corners`` inputs whose ordering is L1,
each side its own corners, found untimed.  ``--ops`` fresh inputs per op
kind come from ``gen.AnalysisInputs(seed)``, drawn as the ``analysis``
workload draws them.  The codec kinds are ``instantiate``
(``instantiate_scheme`` of the bundle's template at its lengths),
``encode`` and one ``decode.<subset>`` per decoder subset, each called once
per bundle of ``gen.bulk_bundles(seed)``, the four 9 Mbit bundles of the
``codec-bulk`` workload; each side decodes the same descriptions, encoded
once.  Both sides must return equal outputs on every input (regions,
corners, labelled corners, region documents, bound sets, gap reports,
verdicts and schemes, compared with ``==``, a scheme of either package as a
tuple; descriptions and streams with ``numpy.array_equal``); any difference
is printed and the exit code is 1.  Then each op kind is timed for
``--rounds`` rounds (at least 2).  Inside a round the two sides run each input back to back, call
by call, the side that goes first alternating from one input to the next
and from one round to the next; the round gives each side its median call
time, and the change/base ratio of the two.  A codec kind runs its
bundles twice in a round, each side going first on each bundle once, and
takes each side's total time: the first call on a 9 Mbit bundle reads it
from memory and the second from cache, so a side that went first on more
bundles would read ~15% slower.  Reported per op kind: the median of each
side's per-round medians (or totals), and the median and interquartile
range of the per-round ratios, as a change in percent.

Separate processes of one checkout can differ on the same op by more than
a change does, and other load on the machine drifts over seconds; pairing
the two sides call by call in one process leaves both drifts in the ratio
of each round alike, and the IQR of the ratios shows what remains.  Only
the standard library and numpy are used, and pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
import types
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]
KINDS = ("check", "corners", "contains", "bounds")  # drawn by make_inputs
ANALYSIS_KINDS = (*KINDS, "label")
EQUAL_KINDS = (*ANALYSIS_KINDS, "instantiate")  # outputs compared with ==


def load(checkout: Path, name: str):
    """The checkout's ``src/amld3``, imported as the package ``name``."""
    pkg = checkout / "src" / "amld3"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None or not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no amld3 package under {checkout / 'src'}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_inputs(seed: int, n: int, m) -> dict:
    """``n`` inputs per op kind, as perfbench's analysis workload draws
    them.  ``m`` finds the corners that the contains queries surround."""
    import gen

    inp = gen.AnalysisInputs(seed)
    orderings = m.enumerate_orderings()
    out = {kind: [] for kind in KINDS}
    for _ in range(n):
        p = inp.profile("check")
        out["check"].append((p.obj, p.h, inp.check_rates(p)))
        p = inp.profile("corners")
        out["corners"].append((p.ordering, p.h))
        region = m.build_mld_region(orderings[p.ordering - 1],
                                    m.EntropyProfile(p.h))
        rates = [c.rates for c in m.enumerate_corners(region)]
        out["contains"].append((p.ordering, p.h, inp.queries(rates, 1)[0]))
        out["bounds"].append(inp.bounds_case())
    return out


def rebound(module, m) -> dict:
    """``module``'s globals, with ``amld3`` and every name taken from it
    bound to package ``m``, and ``module``'s own functions rebuilt to read
    these globals."""
    scope = dict(vars(module), amld3=m)
    for name, value in vars(module).items():
        if getattr(value, "__module__", "").split(".")[0] == "amld3":
            scope[name] = getattr(m, name)
        elif getattr(value, "__globals__", None) is vars(module):
            scope[name] = types.FunctionType(value.__code__, scope, name)
    return scope


def op_calls(m, inputs: dict) -> dict:
    """``(function, args)`` per input of each op kind, over package ``m``."""
    import spans
    import work_analysis

    ops, T = rebound(work_analysis, m), spans.Tracer()
    orderings = m.enumerate_orderings()

    def region(index, h):
        return m.build_mld_region(orderings[index - 1], m.EntropyProfile(h))

    def l1_corners(h):
        profile = m.EntropyProfile(h)
        return m.enumerate_corners(m.build_mld_region(m.L1, profile)), profile

    return {
        "check": [(ops["op_check"], (T, *x)) for x in inputs["check"]],
        "corners": [(ops["op_corners"], (T, orderings[i - 1], h))
                    for i, h in inputs["corners"]],
        "contains": [(m.contains, (region(i, h), q))
                     for i, h, q in inputs["contains"]],
        "bounds": [(ops["op_bounds"], (T, v, r))
                   for _, v, r in inputs["bounds"]],
        "label": [(m.label_corners, l1_corners(h))
                  for i, h in inputs["corners"] if i == 1],
    }


def codec_inputs(seed: int, m) -> list:
    """``(label, lengths, streams, descriptions)`` per bundle of the
    codec-bulk workload, the descriptions encoded by package ``m``."""
    import gen

    return [(label, lengths, streams,
             m.encode(m.instantiate_scheme(m.TEMPLATES[label], lengths),
                      m.SourceBundle(streams)).bits)
            for label, lengths, streams in gen.bulk_bundles(seed)]


def codec_calls(m, bundles: list) -> dict:
    """``(function, args)`` per bundle of each codec kind, over package
    ``m``: ``instantiate``, ``encode``, and ``decode.<subset>`` of the
    bundle's descriptions at each decoder subset."""
    from gen import SUBSETS

    calls = {"instantiate": [], "encode": [],
             **{f"decode.{s}": [] for s in SUBSETS}}
    for label, lengths, streams, bits in bundles:
        template = m.TEMPLATES[label]
        calls["instantiate"].append((m.instantiate_scheme,
                                     (template, lengths)))
        scheme = m.instantiate_scheme(template, lengths)
        calls["encode"].append((m.encode, (scheme, m.SourceBundle(streams))))
        enc = m.EncodedDescriptions(bits)
        for s in SUBSETS:
            calls[f"decode.{s}"].append(
                (m.decode, (scheme, s, m.restrict(enc, s))))
    return calls


def same_arrays(want, got) -> bool:
    """Two codec outputs, description triples or stream tuples, compared
    array by array."""
    import numpy as np

    want, got = (getattr(x, "bits", x) for x in (want, got))
    return len(want) == len(got) and all(map(np.array_equal, want, got))


def timed_pairs(base, change, first: int) -> tuple[list, list]:
    """Wall time of each call on each side, in microseconds.  Each input
    runs on both sides back to back; the base goes first on the inputs
    whose index has the parity of ``first``."""
    clock, times = time.perf_counter_ns, ([], [])
    for i, pair in enumerate(zip(base, change)):
        for side in ((0, 1) if (i + first) % 2 == 0 else (1, 0)):
            f, args = pair[side]
            t0 = clock()
            f(*args)
            times[side].append(clock() - t0)
    return tuple([t / 1e3 for t in side] for side in times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--seed", type=int, default=1501)
    parser.add_argument("--ops", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"),
                    str(ROOT / "src")]
    order = ("base", "change") if args.seed % 2 == 0 else ("change", "base")
    sides = {side: load(getattr(args, side).resolve(), f"amld3_{side}")
             for side in order}
    inputs = make_inputs(args.seed, args.ops, sides["change"])
    bundles = codec_inputs(args.seed, sides["change"])
    calls = {side: {**op_calls(m, inputs), **codec_calls(m, bundles)}
             for side, m in sides.items()}
    kinds = list(calls["change"])

    bad = total = 0
    for kind in kinds:
        for i, ((f, x), (g, y)) in enumerate(zip(calls["base"][kind],
                                                 calls["change"][kind])):
            want, got = f(*x), g(*y)
            total += 1
            if not (want == got if kind in EQUAL_KINDS
                    else same_arrays(want, got)):
                bad += 1
                print(f"{kind} input {i}: base {want!r} != change {got!r}")
    print(f"outputs: {bad} of {total} differ")

    rounds = {kind: [] for kind in kinds}
    for r in range(args.rounds):
        for kind in kinds:
            pairs = calls["base"][kind], calls["change"][kind]
            if kind in ANALYSIS_KINDS:
                rounds[kind].append(tuple(map(median, timed_pairs(*pairs, r))))
            else:
                (a, b), (c, d) = (timed_pairs(*pairs, r + k) for k in (0, 1))
                rounds[kind].append((sum(a + c), sum(b + d)))
    print(f"{args.rounds} rounds of {args.ops} paired ops per analysis kind "
          f"({len(calls['change']['label'])} L1 ones for label) and "
          f"2 x {len(bundles)} per codec kind, seed {args.seed}: median "
          "per-round medians (analysis) or totals (codec) in us, and the "
          "median [IQR] of the per-round change/base ratios")
    for kind in kinds:
        a, b = (median(side) for side in zip(*rounds[kind]))
        ratios = [100 * (y / x - 1) for x, y in rounds[kind]]
        q1, mid, q3 = quantiles(ratios, n=4, method="inclusive")
        print(f"{kind:11s} base {a:9.2f}  change {b:9.2f}  "
              f"{mid:+6.1f}% [{q1:+.1f}%, {q3:+.1f}%]")
    return int(bad > 0)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
