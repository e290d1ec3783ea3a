"""Time cold ``python -m amld3`` processes of two checkouts against each other.

Usage, from anywhere::

    python tests/tools/cold_cli.py BASE [CHANGE] [-n N] [--commands C ...]

``BASE`` and ``CHANGE`` are source checkouts (``CHANGE`` defaults to the one
holding this file).  For each side, the checkout's ``src/`` is copied twice
into a temporary directory: ``source`` as it is, with every ``__pycache__``
left out, and ``pyc`` after ``python -m compileall -q``.  Each child runs
with ``PYTHONPATH`` set to one copy and ``PYTHONDONTWRITEBYTECODE=1``, so
the ``source`` copy compiles every module it imports on every call, as a
fresh checkout does, and the ``pyc`` copy reads what ``compileall`` wrote.

The commands (default: all of them) are ``region``, ``corners`` (CSV),
``check-h``, ``check-D``, ``md-bounds`` (with ``--d``), ``gap``, ``encode``
and ``decode``; the codec pair runs on one X5 bundle of 9000 bits written
into the temporary directory, decode reading the descriptions that one
untimed encode of the change side wrote.  For each command and copy the
two sides run ``N`` times each (default 20), strictly one child process
at a time, the side that goes first alternating from one pair to the
next.  Each call is timed with ``time.perf_counter`` from spawn to exit.
Every call must exit 0 and each side must print the same stdout on every
call; any difference between the sides is printed and the exit code is 1.

Reported per command and copy: each side's median and interquartile range
of its call times, and the median of the paired differences, change minus
base, in ms and as a percent of the base median.  Only the standard
library is used, and pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]
DYADIC = "0.5,0.25,0.125,0.0625,0.03125,0.015625,0.0078125"
LENGTHS = [1000, 1000, 3000, 1000, 1000, 1000, 1000]  # X5 fits: h3 >= h4 + h5
COMMANDS = {
    "region": ["region", "--h", "1,1,3,2,2,1,1"],
    "corners": ["corners", "--h", "1,1,3,2,2,1,1", "--emit", "csv"],
    "check-h": ["check", "--h", "1,1,3,2,2,1,1", "--rates", "4,5,9"],
    "check-D": ["check", "--D", DYADIC, "--rates", "3,3,5"],
    "md-bounds": ["md-bounds", "--D", DYADIC, "--d", DYADIC.rsplit(",", 1)[0]],
    "gap": ["gap", "--D", DYADIC],
    "encode": ["encode", "--scheme", "X5", "--manifest", "{work}/manifest.json",
               "--out", "{work}/enc-{side}"],
    "decode": ["decode", "--sidecar", "{work}/enc/sidecar.json",
               "--subset", "G123", "--out", "{work}/dec-{side}"],
}
COPIES = ("source", "pyc")


def copy_src(checkout: Path, dest: Path, compiled: bool) -> Path:
    """A fresh copy of the checkout's ``src/``, compiled if asked."""
    if not (checkout / "src" / "amld3" / "__init__.py").is_file():
        raise SystemExit(f"no amld3 package under {checkout / 'src'}")
    shutil.copytree(checkout / "src", dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    if compiled:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest)],
                       check=True)
    return dest


def call(path: Path, argv: list[str]) -> tuple[float, str]:
    """One ``python -m amld3`` child on ``path``: (ms, stdout)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "amld3", *argv],
                          capture_output=True, text=True, env=env)
    ms = (time.perf_counter() - t0) * 1e3
    if proc.returncode:
        raise SystemExit(f"{path}: {' '.join(argv)} exited "
                         f"{proc.returncode}: {proc.stderr.strip()}")
    return ms, proc.stdout


def spread(xs: list[float]) -> str:
    q1, _, q3 = quantiles(xs, n=4)
    return f"{median(xs):7.1f} [{q1:.1f}, {q3:.1f}]"


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path, nargs="?", default=ROOT)
    ap.add_argument("-n", type=int, default=20, help="calls per side")
    ap.add_argument("--commands", nargs="+", choices=COMMANDS,
                    default=list(COMMANDS))
    args = ap.parse_args(argv)
    if args.n < 2:
        ap.error("-n must be at least 2")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    status = 0
    with tempfile.TemporaryDirectory(prefix="cold_cli-") as tmp:
        work = Path(tmp)
        paths = {(side, kind): copy_src(checkout, work / side / kind,
                                        kind == "pyc")
                 for side, checkout in sides.items() for kind in COPIES}
        (work / "streams.bin").write_bytes(
            random.Random(0).randbytes(sum(LENGTHS) // 8))
        (work / "manifest.json").write_text(
            json.dumps({"lengths": LENGTHS, "streams": "streams.bin"}))
        call(paths["change", "source"],
             ["encode", "--scheme", "X5", "--manifest",
              str(work / "manifest.json"), "--out", str(work / "enc")])
        print(f"{'command':10} {'copy':7} {'base ms [IQR]':>22} "
              f"{'change ms [IQR]':>22} {'paired change-base':>22}")
        for name in args.commands:
            for kind in COPIES:
                times = {side: [] for side in sides}
                outs = {side: set() for side in sides}
                for i in range(args.n):
                    order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                    for side in order:
                        cmd = [a.format(work=work, side=side)
                               for a in COMMANDS[name]]
                        ms, out = call(paths[side, kind], cmd)
                        times[side].append(ms)
                        outs[side].add(out)
                if outs["base"] != outs["change"] or len(outs["base"]) != 1:
                    print(f"{name} ({kind}): stdout differs", file=sys.stderr)
                    status = 1
                base, change = times["base"], times["change"]
                diff = median(c - b for b, c in zip(base, change))
                print(f"{name:10} {kind:7} {spread(base):>22} "
                      f"{spread(change):>22} "
                      f"{diff:+9.2f} ({diff / median(base):+.1%})")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
