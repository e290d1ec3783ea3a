"""The `cli-calls` workload: one `python -m amld3` process at a time.

A seeded coin picks each call: an analysis call (region/corners as JSON
and CSV, check --h, check --D, md-bounds --d, gap) or the next step of a
codec group (encode a ~13 kbit-per-stream bundle, then decode it at each
of the seven subsets).  Process wall time runs from spawn to exit.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from amld3 import cli

import checks
import gen
from stats import clock

ANALYSIS_KINDS = ("region-json", "region-csv", "corners-json", "corners-csv",
                  "check-h", "check-D", "md-bounds", "gap")
PROC_TIMEOUT = 60


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    return env


def run_process(argv, env, cwd) -> tuple[float, subprocess.CompletedProcess]:
    t0 = clock()
    p = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                       env=env, cwd=cwd, timeout=PROC_TIMEOUT)
    return clock() - t0, p


def _fmt(xs) -> str:
    return ",".join(repr(x) if isinstance(x, float) else str(x) for x in xs)


def _csv_corners(text: str) -> dict:
    lines = text.strip().splitlines()
    if lines[0] != "label,r1,r2,r3,tight":
        raise ValueError("unexpected corners CSV header")
    out = []
    for line in lines[1:]:
        label, r1, r2, r3, tight = line.split(",")
        out.append({"rates": [r1, r2, r3], "label": label or None,
                    "tight": tight.split("|") if tight else []})
    return {"corners": out}


def _check_region_csv(text: str, p) -> str | None:
    lines = text.strip().splitlines()
    if lines[0] != "tag,a1,a2,a3,b" or len(lines) != 12:
        return "unexpected region CSV shape"
    rows = [line.split(",") for line in lines[1:]]
    if p.ordering != 1:
        return (None if [r[0] for r in rows] == list(checks.P_ORDER)
                else "region CSV tags differ")
    for r, tag, (a, b) in zip(rows, checks.Q_ORDER, checks.l1_offsets(p.h)):
        if (r[0] != tag or tuple(int(x) for x in r[1:4]) != a
                or Fraction(r[4]) != b):
            return f"region CSV row {tag} differs from Q_TABLE"
    return None


class CliCalls:
    def __init__(self, seed: int, T, rec, root: Path, work: Path) -> None:
        self.T = T
        self.rec = rec
        self.work = work
        self.env = child_env(root / "src")
        self.inp = gen.AnalysisInputs(seed, "cli")
        self.rng = gen.seeded_rng(seed, "cli-mix")
        self.bits_rng = np.random.default_rng([seed, 2])
        self.deck: list[str] = []
        self.group = None
        self.groups = 0
        self.mix = {k: 0 for k in ANALYSIS_KINDS + ("encode", "decode")}

    # -- analysis calls ------------------------------------------------------

    def _analysis_call(self, kind=None):
        """(kind, argv, checker) for one seeded analysis call.

        Kinds come from a shuffled deck of all eight, so every run draws
        nearly the same mix and the median compares across seeds.
        """
        if kind is None:
            if not self.deck:
                self.deck = list(ANALYSIS_KINDS)
                self.rng.shuffle(self.deck)
            kind = self.deck.pop()
        inp = self.inp
        if kind.startswith("region"):
            p = inp.profile()
        elif kind.startswith("corners") or kind == "check-h":
            p = inp.profile(l1_only=True)
        if kind.startswith(("region", "corners")):
            cmd, emit = kind.split("-")
            argv = [cmd, "--ordering", str(p.ordering), "--h", _fmt(p.h),
                    "--emit", emit]
            if kind == "region-csv":
                return kind, argv, lambda out: _check_region_csv(out, p)
            if kind == "corners-csv":
                return kind, argv, lambda out: checks.check_l1_region_doc(
                    _csv_corners(out), p.h)
            if p.ordering == 1:
                return kind, argv, lambda out: checks.check_l1_region_doc(
                    json.loads(out), p.h)
            return kind, argv, lambda out: checks.check_vertex_doc(
                json.loads(out))
        if kind == "check-h":
            rates = inp.check_rates(p)
            argv = ["check", "--h", _fmt(p.h), "--rates", _fmt(rates)]
            return kind, argv, lambda out: self._check_exact(out, p.h, rates)
        D = gen.distortions_for(inp.rng, 1)
        if kind == "gap":
            return kind, ["gap", "--D", _fmt(D)], lambda out: checks.check_gap(
                json.loads(out))
        if kind == "md-bounds":
            argv = ["md-bounds", "--D", _fmt(D), "--d", _fmt(D[:6])]
            return kind, argv, lambda out: self._check_md_bounds(out, D)
        rates = tuple(inp.rng.uniform(0.0, 8.0) for _ in range(3))
        argv = ["check", "--D", _fmt(D), "--rates", _fmt(rates)]
        return kind, argv, lambda out: self._check_float(out, D, rates)

    @staticmethod
    def _check_exact(out, h, rates) -> str | None:
        doc = json.loads(out)
        slacks = checks.l1_slacks(h, rates)
        want = {
            "inside": all(s >= 0 for s in slacks),
            "tight": [t for t, s in zip(checks.Q_ORDER, slacks) if s == 0],
            "violated": [t for t, s in zip(checks.Q_ORDER, slacks) if s < 0],
        }
        return None if doc == want else f"check --h gave {doc}, expected {want}"

    @staticmethod
    def _check_float(out, D, rates) -> str | None:
        doc = json.loads(out)
        _, outer = checks.l1_bound_offsets(D)
        rows = [(a, b, "O-" + t) for a, b, t in
                zip(checks.Q_NORMALS, outer, checks.BOUND_SUFFIXES)]
        inside, tight, violated = checks.float_verdict(rows, rates)
        want = {"inside": inside, "tight": tight, "violated": violated}
        return None if doc == want else f"check --D gave {doc}, expected {want}"

    @staticmethod
    def _check_md_bounds(out, D) -> str | None:
        doc = json.loads(out)
        inner, outer = checks.l1_bound_offsets(D)
        if doc["ordering"] != 1:
            return f"md-bounds ordering {doc['ordering']}, expected 1"
        for key, want in (("inner", inner), ("outer", outer)):
            err = checks.check_offsets(
                [c["b"] for c in doc[key]["constraints"]], want,
                checks.QUANTIZED_TOL)
            if err:
                return f"md-bounds {key}: {err}"
        return checks.check_dominance(
            [c["b"] for c in doc["parametric"]["constraints"]], outer,
            checks.QUANTIZED_TOL)

    # -- codec calls ---------------------------------------------------------

    def _new_group(self) -> dict:
        label, base = gen.SCHEMES[self.groups % len(gen.SCHEMES)]
        lengths = tuple(b * gen.CLI_SCALE for b in base)
        streams = gen.random_streams(self.bits_rng, lengths)
        d = self.work / f"g{self.groups}"
        self.groups += 1
        d.mkdir()
        (d / "streams.bin").write_bytes(np.packbits(np.concatenate(streams)).tobytes())
        (d / "manifest.json").write_text(json.dumps(
            {"lengths": list(lengths), "streams": "streams.bin"}))
        return {"dir": d, "label": label, "lengths": lengths,
                "streams": streams, "todo": list(gen.SUBSETS)}

    def _codec_call(self):
        """(kind, argv, checker, group dir) for the next codec group step."""
        g = self.group
        if g is None:
            g = self.group = self._new_group()
            want = {"scheme": g["label"], "lengths": list(g["lengths"]),
                    "bits": list(checks.expected_description_bits(
                        g["label"], g["lengths"])),
                    "files": ["G1.bits", "G2.bits", "G3.bits"]}
            argv = ["encode", "--scheme", g["label"],
                    "--manifest", str(g["dir"] / "manifest.json"),
                    "--out", str(g["dir"] / "enc")]
            return "encode", argv, lambda out: (
                None if json.loads(out) == want else f"encode sidecar {out}"
            ), g["dir"]
        subset = g["todo"].pop(0)
        if not g["todo"]:
            self.group = None
        level = checks.L1_LEVEL[subset]
        outdir = g["dir"] / f"dec-{subset}"

        def check(out):
            want = {"subset": subset, "level": level,
                    "lengths": list(g["lengths"][:level]),
                    "files": [f"V{k}.bits" for k in range(1, level + 1)]}
            if json.loads(out) != want:
                return f"decode output {out}"
            for k in range(level):
                data = (outdir / f"V{k + 1}.bits").read_bytes()
                if data != np.packbits(g["streams"][k]).tobytes():
                    return f"{subset}: V{k + 1}.bits differs from the source"
            return None
        argv = ["decode", "--sidecar", str(g["dir"] / "enc" / "sidecar.json"),
                "--subset", subset, "--out", str(outdir)]
        return "decode", argv, check, g["dir"]

    # -- one call ------------------------------------------------------------

    def unit(self) -> None:
        if self.rng.random() < 0.5:
            self.rec.guard("cli_analysis", self._run_analysis)
        else:
            self.rec.guard("cli_codec", self._run_codec)

    def _run_analysis(self) -> None:
        kind, argv, check = self._analysis_call()
        self.mix[kind] += 1
        dt, p = self._process("cli_analysis", argv)
        err = (f"exit {p.returncode}: {p.stderr.strip()[-200:]}"
               if p.returncode else check(p.stdout))
        self.rec.sample("cli_analysis", dt, err)

    def _run_codec(self) -> None:
        kind, argv, check, g_dir = self._codec_call()
        self.mix[kind] += 1
        dt, p = self._process("cli_codec", argv)
        err = (f"exit {p.returncode}: {p.stderr.strip()[-200:]}"
               if p.returncode else check(p.stdout))
        self.rec.sample("cli_codec", dt, err)
        if self.group is None:
            shutil.rmtree(g_dir, ignore_errors=True)

    def _process(self, name, argv):
        self.T.new_op()
        with self.T.span(f"process.{name}"):
            return run_process(["-m", "amld3", *argv], self.env, self.work)

    # -- traced runs: every subcommand through cli.main, in this process ---

    def inproc_probe(self, rounds: int) -> None:
        saved, self.group = self.group, None
        for _ in range(rounds):
            for kind in ANALYSIS_KINDS:
                kind, argv, check = self._analysis_call(kind)
                self._inproc(kind.replace("-json", "").replace("-csv", ""),
                             argv, check)
            for _ in range(1 + len(gen.SUBSETS)):
                kind, argv, check, g_dir = self._codec_call()
                self._inproc(kind, argv, check)
            shutil.rmtree(g_dir, ignore_errors=True)
        self.group = saved

    def _inproc(self, cmd, argv, check) -> None:
        out, err = io.StringIO(), io.StringIO()
        self.T.new_op()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.T.call(f"cli.{cmd}.inproc", cli.main, argv)
        self.rec.check("cli_inproc", check(out.getvalue()) if rc == 0 else
                       f"in-process {cmd} exit {rc}: {err.getvalue()[-200:]}")
