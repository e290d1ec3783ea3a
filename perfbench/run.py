"""The amld3 benchmark: one closed-loop run of one workload.

Usage:
    python3 perfbench/run.py --workload {codec-bulk,analysis,cli-calls}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/`` and the oracles from ``tests/_oracles.py``.  The last line of
stdout is the JSON result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from stats import clock, mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("codec-bulk", "analysis", "cli-calls")
SLICES = 16
SETUP_PROBES = 11
# The tail percentile of the analysis op kinds.  It leaves at least ten
# `corners` samples (the rarest kind) beyond it down to 200 corners ops;
# analysis has a quarter of a 34 s run at least, which gave 376-441 of them
# on a 2-vCPU machine, where the 97th would fail on a machine 20% slower.
TAIL_Q = 0.95
MAX_LOGGED_FAILURES = 5
# glibc's mallopt parameters, and the fixed mmap threshold (see pin_malloc).
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 64 << 20


def _die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "amld3" / "__init__.py").is_file():
        _die(f"no amld3 package under {src}; run from a source checkout")
    if not (tests / "_oracles.py").is_file():
        _die(f"no tests/_oracles.py under {ROOT}; the checks need it")
    sys.path[:0] = [str(src), str(tests)]
    import amld3
    if Path(amld3.__file__).resolve().parent != (src / "amld3").resolve():
        _die(f"imported amld3 from {amld3.__file__}, not from {src}")
    return amld3


def pin_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc raises its mmap threshold as large blocks are freed,
    so whether a codec buffer comes from reused heap pages or from fresh,
    faulted-in pages depends on the process's history, and encode time is
    bimodal between processes.  Fixed thresholds above the largest buffer
    keep every large buffer on the heap in every run.  Child processes keep
    the default.  Returns False where mallopt is not available.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
                and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))


class Recorder:
    """Op timings by kind (traced and untraced apart) and failure counts."""

    def __init__(self, tracer) -> None:
        self.T = tracer
        self.times: dict[str, dict[str, list[tuple[float, float]]]] = {}
        self.attempted = 0
        self.failed = 0
        self.discard = False

    def _fail(self, kind: str, why: str) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED_FAILURES:
            print(f"perfbench: {kind} failed: {why}", file=sys.stderr)

    def sample(self, kind: str, dt: float, err: str | None) -> None:
        self.attempted += 1
        if err:
            self._fail(kind, err)
        if not self.discard:
            mode = "traced" if self.T.recording else "plain"
            by_mode = self.times.setdefault(kind, {"plain": [], "traced": []})
            by_mode[mode].append((clock(), dt))

    def check(self, kind: str, err: str | None) -> None:
        """An output checked outside any timer."""
        self.attempted += 1
        if err:
            self._fail(kind, err)

    def guard(self, kind: str, fn, *args) -> None:
        try:
            fn(*args)
        except Exception as e:  # an op that raises counts as failed
            self.attempted += 1
            self._fail(kind, f"{type(e).__name__}: {e}")
            if self.failed <= MAX_LOGGED_FAILURES:
                traceback.print_exc(file=sys.stderr)

    def samples(self, kind: str, mode: str = "plain") -> list[tuple[float, float]]:
        """[(stamp, wall seconds)] of one op kind."""
        return self.times.get(kind, {}).get(mode, [])


def schedule(primary: str) -> list[str]:
    """Slice owners: the primary workload in every other slice."""
    others = [w for w in WORKLOADS if w != primary]
    return [primary, others[0], primary, others[1]] * (SLICES // 4)


def measure(works: dict, seconds: float, T, trace: bool, primary: str,
            speed) -> None:
    """Run units slice by slice, calibrating before each unit.

    A unit starts only if the last one of its kind would still end before
    the slice's deadline, so the run ends close to `seconds`.  Traced runs
    trace every other slice of each workload, so the untraced slices give
    the baseline for the tracing overhead.
    """
    start = clock()
    seen = dict.fromkeys(works, 0)
    for i, name in enumerate(schedule(primary)):
        deadline = start + seconds * (i + 1) / SLICES
        T.recording = trace and seen[name] % 2 == 0
        seen[name] += 1
        while True:
            speed.record()
            t0 = clock()
            works[name].unit()
            if 2 * clock() - t0 > deadline:
                break
    T.recording = False
    speed.record()


def setup_seconds(workload: str, env: dict, speed) -> list[tuple]:
    """[(stamp, seconds)] from a fresh interpreter to the end of the
    workload's set-up, several times."""
    out = []
    for _ in range(SETUP_PROBES):
        speed.record()
        t0 = clock()
        p = subprocess.run([sys.executable, str(HERE / "probe_setup.py"),
                            workload], env=env, capture_output=True, text=True,
                           timeout=120)
        out.append((t0, clock() - t0))
        if p.returncode:
            _die(f"set-up probe failed: {p.stderr.strip()[-300:]}")
    speed.record()
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "amld3").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # One CPU for this process and its children, so that the calibration
    # loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    malloc_pinned = pin_malloc()
    amld3 = _import_library()
    import numpy as np

    import selftest
    problems = selftest.run()
    for p in problems:
        print(f"perfbench: self-test: {p}", file=sys.stderr)

    import gen
    import layers
    from spans import Tracer
    from speed import NUMPY_REFERENCE_S, REFERENCE_S, Speed
    from work_analysis import Analysis
    from work_cli import CliCalls, child_env
    from work_codec import CodecBulk

    trace = bool(args.trace)
    T = Tracer()
    rec = Recorder(T)
    speed = Speed()
    env = child_env(ROOT / "src")
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        # Input generation happens in the constructors and is not timed.
        works = {
            "codec-bulk": CodecBulk(args.seed, T, rec),
            "analysis": Analysis(args.seed, T, rec),
            "cli-calls": CliCalls(args.seed, T, rec, ROOT, work),
        }
        setup = setup_seconds(args.workload, env, speed)
        rec.discard = True          # warm caches and lazy set-up, untimed
        for w in works.values():
            w.unit()
        rec.discard = False
        measure(works, args.seconds, T, trace, args.workload, speed)
        peaks = works["codec-bulk"].peaks()
        extra = (layers.probes(amld3, works, rec, T, speed, env, work)
                 if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = layers.per_layer(works, rec, T, speed, peaks, extra)
    else:
        metrics = layers.end_to_end(works, rec, speed, peaks, setup, TAIL_Q)
    wall = layers.end_to_end(works, rec, None, peaks, setup, TAIL_Q)
    timer = time.get_clock_info("perf_counter")
    an, cl = works["analysis"], works["cli-calls"]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "timer": f"time.perf_counter ({timer.implementation})",
        "timer_resolution_s": timer.resolution,
        "git_commit": git_commit(), "src_sha256": src_digest(),
        "self_test": "fail" if problems else "ok",
        "malloc_pinned": malloc_pinned,
        "setup_s_samples": [dt for _, dt in setup],
        "reference": {"loop_s": REFERENCE_S,
                      "loop_s_median": median(speed.dt),
                      "numpy_loop_s": NUMPY_REFERENCE_S,
                      "numpy_loop_s_median": median(
                          works["codec-bulk"].speed.dt),
                      "wall_time_metrics": {k: m["value"]
                                            for k, m in wall.items()}},
        "tails": layers.tail_report(rec, TAIL_Q),
        "inputs": {
            "codec_bulk_lengths": {l: list(n) for l, n, _, _ in
                                   works["codec-bulk"].cases},
            "codec_units": len(works["codec-bulk"].units),
            "analysis_profiles_by_family": dict(an.inp.by_family),
            "analysis_profiles_by_ordering": dict(sorted(
                an.inp.by_ordering.items())),
            "bigint_frac": mean(an.bigint),
            "cli_call_mix": cl.mix,
            "cli_codec_lengths": {l: [b * gen.CLI_SCALE for b in base]
                                  for l, base in gen.SCHEMES},
        },
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        T.dump(results / f"{stem}.spans.jsonl")
    result = {
        "correct": rec.failed == 0 and not problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {rec.failed / max(rec.attempted, 1):.6g} "
          f"({rec.failed}/{rec.attempted})")
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
