"""End-to-end tests of the command-line interface (subprocess level)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from amld3 import (
    ALL_SCHEME_LABELS, SUBSETS, OrderingError, pack_bits, unpack_bits,
)

DYADIC = "0.5,0.25,0.125,0.0625,0.03125,0.015625,0.0078125"
MATCHED = "0.5,0.25,0.125,0.0625,0.03125,0.015625"

ROOT = Path(__file__).resolve().parents[1]
# Child interpreters import the package from this checkout's src/.
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ),
}


def run_cli(*args, stdin: str | None = None):
    proc = subprocess.run(
        [sys.executable, "-m", "amld3", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args, stdin: str | None = None):
    code, out, err = run_cli(*args, stdin=stdin)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# region / corners
# ---------------------------------------------------------------------------

def test_region_json_all_ones():
    doc = run_json("region", "--h", "1,1,1,1,1,1,1")
    assert doc["ordering"] == 1
    assert doc["regime"] == "II"
    assert len(doc["constraints"]) == 11
    by_tag = {c["tag"]: c for c in doc["constraints"]}
    assert by_tag["Q7"]["a"] == [2, 1, 1]
    assert by_tag["Q7"]["b"] == "13"
    assert by_tag["Q11"]["b"] == "11"
    assert len(doc["corners"]) == 10
    labels = {c["label"] for c in doc["corners"]}
    assert "Y7+Y8" in labels and "Y9+Y11" in labels


def test_region_csv():
    code, out, err = run_cli("region", "--h", "1,1,1,1,1,1,1", "--emit", "csv")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "tag,a1,a2,a3,b"
    assert len(lines) == 12
    assert "Q7,2,1,1,13" in lines


def test_corners_csv_first_row_is_lex_least():
    code, out, err = run_cli("corners", "--h", "1,1,1,1,1,1,1", "--emit", "csv")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "label,r1,r2,r3,tight"
    assert lines[1] == "Y1,1,4,7,Q1|Q4|Q7"
    assert len(lines) == 11


def test_corners_json_fractional_rates():
    doc = run_json("corners", "--h", "1,1,1,2,1,1,1")
    by_label = {c["label"]: c for c in doc["corners"]}
    assert by_label["Z7"]["rates"] == ["5/2", "7/2", "13/2"]


def test_region_other_ordering_uses_p_tags_and_no_labels():
    doc = run_json("corners", "--ordering", "7", "--h", "1,1,1,1,1,1,1")
    assert all(c["label"] is None for c in doc["corners"])
    doc = run_json("region", "--ordering", "7", "--h", "1,1,1,1,1,1,1")
    assert doc["regime"] is None
    assert {c["tag"] for c in doc["constraints"]} == {
        "P1.1", "P1.2", "P1.3", "P2.12", "P2.13", "P2.23",
        "P3.1", "P3.2", "P3.3", "P4", "P5",
    }
    by_tag = {c["tag"]: c for c in doc["constraints"]}
    assert by_tag["P4"]["b"] == "11"
    assert by_tag["P2.12"]["b"] == "4"


def test_ordering_from_stdin():
    levels = {s: i + 1 for i, s in enumerate(
        ("G1", "G2", "G12", "G3", "G13", "G23", "G123")
    )}
    doc = run_json(
        "region", "--ordering", "-", "--h", "1,1,1,1,1,1,1",
        stdin=json.dumps({"levels": levels}),
    )
    assert doc["ordering"] == 7


def test_inline_json_ordering():
    levels = {s: i + 1 for i, s in enumerate(
        ("G1", "G2", "G3", "G12", "G13", "G23", "G123")
    )}
    doc = run_json(
        "region",
        "--ordering", json.dumps({"levels": levels}),
        "--h", "1,1,1,1,1,1,1",
    )
    assert doc["ordering"] == 1


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------

@pytest.fixture
def bundle_dir(tmp_path):
    # Worked X5 example: V1=1, V2=0, V3=110, V4=1, V5=0, V6=0, V7=1.
    bits = [1, 0, 1, 1, 0, 1, 0, 0, 1]
    (tmp_path / "streams.bin").write_bytes(pack_bits(bits))
    manifest = {"lengths": [1, 1, 3, 1, 1, 1, 1], "streams": "streams.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return tmp_path


def test_encode_decode_roundtrip(bundle_dir):
    encdir = bundle_dir / "enc"
    sidecar = run_json(
        "encode",
        "--scheme", "X5",
        "--manifest", str(bundle_dir / "manifest.json"),
        "--out", str(encdir),
    )
    assert sidecar == {
        "scheme": "X5",
        "lengths": [1, 1, 3, 1, 1, 1, 1],
        "bits": [3, 7, 5],
        "files": ["G1.bits", "G2.bits", "G3.bits"],
    }
    assert json.loads((encdir / "sidecar.json").read_text()) == sidecar
    # Hand-checked description bitstreams.
    assert (encdir / "G1.bits").read_bytes() == pack_bits([1, 1, 0])
    assert (encdir / "G2.bits").read_bytes() == pack_bits([1, 0, 1, 0, 0, 0, 1])
    assert (encdir / "G3.bits").read_bytes() == pack_bits([1, 0, 1, 1, 0])

    # G23 exercises the xor-cancellation path (recovers V4, V5).
    decdir = bundle_dir / "dec23"
    doc = run_json(
        "decode",
        "--sidecar", str(encdir / "sidecar.json"),
        "--subset", "G23",
        "--out", str(decdir),
    )
    assert doc == {
        "subset": "G23",
        "level": 6,
        "lengths": [1, 1, 3, 1, 1, 1],
        "files": [f"V{k}.bits" for k in range(1, 7)],
    }
    assert (decdir / "V4.bits").read_bytes() == pack_bits([1])
    assert (decdir / "V5.bits").read_bytes() == pack_bits([0])

    # Full decode reproduces the original streams bit-for-bit.
    decall = bundle_dir / "decall"
    doc = run_json(
        "decode",
        "--sidecar", str(encdir / "sidecar.json"),
        "--subset", "G123",
        "--out", str(decall),
    )
    assert doc["lengths"] == [1, 1, 3, 1, 1, 1, 1]
    recovered = []
    for k, n in enumerate([1, 1, 3, 1, 1, 1, 1], start=1):
        data = (decall / f"V{k}.bits").read_bytes()
        recovered.extend(unpack_bits(data, n).tolist())
    assert recovered == [1, 0, 1, 1, 0, 1, 0, 0, 1]


def test_decode_reads_only_subset_files(bundle_dir):
    encdir = bundle_dir / "enc"
    run_json(
        "encode",
        "--scheme", "X5",
        "--manifest", str(bundle_dir / "manifest.json"),
        "--out", str(encdir),
    )
    (encdir / "G2.bits").unlink()  # G13 never touches description 2
    doc = run_json(
        "decode",
        "--sidecar", str(encdir / "sidecar.json"),
        "--subset", "G13",
        "--out", str(bundle_dir / "dec13"),
    )
    assert doc["level"] == 5


# ---------------------------------------------------------------------------
# md-bounds / gap / check
# ---------------------------------------------------------------------------

def test_md_bounds_json_with_parametric():
    doc = run_json("md-bounds", "--D", DYADIC, "--d", MATCHED)
    assert doc["ordering"] == 1
    assert doc["normalized"]["D"]["G1"] == 0.5
    inner = {c["tag"]: c["b"] for c in doc["inner"]["constraints"]}
    outer = {c["tag"]: c["b"] for c in doc["outer"]["constraints"]}
    assert inner["I-4"] == 5.5
    assert outer["O-2.12"] == 1.5
    po = doc["parametric"]
    assert po is not None
    assert [c["tag"] for c in po["constraints"]] == [
        "PO-1.1", "PO-1.2", "PO-1.3",
        "PO-2.12", "PO-2.13", "PO-2.23",
        "PO-3.1", "PO-3.2", "PO-3.3",
        "PO-4", "PO-5",
    ]
    for tag, b in outer.items():
        suffix = tag.split("-", 1)[1]
        assert po["constraints"][
            [c["tag"] for c in po["constraints"]].index(f"PO-{suffix}")
        ]["b"] >= b - 1e-9


def test_md_bounds_omits_parametric_without_noise():
    doc = run_json("md-bounds", "--D", DYADIC)
    assert doc["parametric"] is None


def test_md_bounds_csv_row_count():
    code, out, err = run_cli("md-bounds", "--D", DYADIC, "--emit", "csv")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "set,tag,a1,a2,a3,b"
    assert len(lines) == 1 + 22
    code, out, _ = run_cli(
        "md-bounds", "--D", DYADIC, "--d", MATCHED, "--emit", "csv"
    )
    assert len(out.strip().splitlines()) == 1 + 33


def test_distortions_from_stdin():
    targets = {s: 0.5 for s in
               ("G1", "G2", "G3", "G12", "G13", "G23", "G123")}
    doc = run_json("gap", "--D", "-", stdin=json.dumps({"D": targets}))
    assert doc["(1,0,0)"] == 0.0


@pytest.mark.parametrize("command", [
    ("md-bounds",), ("gap",), ("check", "--rates", "1,1,1"),
], ids=["md-bounds", "gap", "check"])
def test_distortion_file_path_may_contain_a_comma(tmp_path, command):
    # A --D with a comma was always read as a list of floats.
    D = dict(zip(SUBSETS, map(float, DYADIC.split(","))))
    path = tmp_path / "wn" / "a,b" / "t.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"D": D}))
    assert run_cli(*command, "--D", str(path)) == run_cli(
        *command, "--D", DYADIC
    )
    code, out, err = run_cli(*command, "--D", "0.5,0.4,x")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_gap_values():
    doc = run_json("gap", "--D", DYADIC)
    assert doc["(1,0,0)"] == 0.0
    assert abs(doc["(1,1,0)"] - 1 / np.sqrt(2)) < 1e-9
    assert abs(doc["(2,1,1)"] - 3 / np.sqrt(6)) < 1e-9
    assert abs(doc["(1,1,1)"][0] - 2 / np.sqrt(3)) < 1e-9
    assert abs(doc["(1,1,1)"][1] - 4.5 / np.sqrt(3)) < 1e-9
    assert abs(doc["(1,1,1)_reference"] - 9 / (4 * np.sqrt(3))) < 1e-9


def test_check_exact_region():
    doc = run_json("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1")
    assert doc == {"inside": True, "tight": ["Q1", "Q4", "Q7"], "violated": []}
    doc = run_json("check", "--rates", "0,0,0", "--h", "1,1,1,1,1,1,1")
    assert doc["inside"] is False
    assert "Q1" in doc["violated"]


def test_check_accepts_fractional_rates():
    doc = run_json(
        "check", "--rates", "5/2,7/2,13/2", "--h", "1,1,1,2,1,1,1"
    )
    assert doc["inside"] is True
    assert len(doc["tight"]) >= 3


def test_check_against_bounds():
    doc = run_json("check", "--rates", "10,10,10", "--D", DYADIC)
    assert doc["inside"] is True
    doc = run_json(
        "check", "--rates", "0.5,0.9,0.9", "--D", DYADIC, "--which", "inner"
    )
    assert doc["inside"] is False
    assert "I-1.1" in doc["tight"]
    doc = run_json(
        "check", "--rates", "10,10,10",
        "--D", DYADIC, "--which", "parametric", "--d", MATCHED,
    )
    assert doc["inside"] is True


# ---------------------------------------------------------------------------
# Exit codes and determinism.
# ---------------------------------------------------------------------------

def test_exit_code_2_invalid_ordering():
    levels = {s: i + 1 for i, s in enumerate(
        ("G1", "G2", "G3", "G12", "G13", "G123", "G23")
    )}
    code, _, err = run_cli(
        "region",
        "--ordering", json.dumps({"levels": levels}),
        "--h", "1,1,1,1,1,1,1",
    )
    assert code == 2
    assert "error:" in err
    # Non-integer indices and levels were truncated or crashed.
    good = {s: i + 1 for i, s in enumerate(
        ("G1", "G2", "G3", "G12", "G13", "G23", "G123")
    )}
    for bad in ({"ordering": 1.5}, {"ordering": True}, {"ordering": "3"},
                {"ordering": None}, {"levels": {**good, "G1": None}},
                {"levels": {**good, "G1": 1.7}}):
        code, out, err = run_cli(
            "region", "--ordering", json.dumps(bad), "--h", "1,1,1,1,1,1,1"
        )
        assert (code, out) == (2, ""), bad
        assert err.startswith("error:"), bad


def test_exit_code_3_negative_entropy():
    code, _, err = run_cli("region", "--h", "1,1,-1,1,1,1,1")
    assert code == 3
    assert "error:" in err


def test_exit_code_4_scheme_mismatch(tmp_path):
    (tmp_path / "streams.bin").write_bytes(b"\x00")
    manifest = {"lengths": [1, 1, 1, 2, 1, 1, 1], "streams": "streams.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run_cli(
        "encode",
        "--scheme", "Z7",
        "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "enc"),
    )
    assert code == 4  # odd half-split
    manifest = {"lengths": [1, 1, 0, 2, 1, 1, 1], "streams": "streams.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run_cli(
        "encode",
        "--scheme", "X5",
        "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "enc"),
    )
    assert code == 4  # wrong regime for X5


def test_exit_code_5_truncated_streams(tmp_path):
    (tmp_path / "streams.bin").write_bytes(b"\x00")  # 9 bits need 2 bytes
    manifest = {"lengths": [1, 1, 3, 1, 1, 1, 1], "streams": "streams.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = run_cli(
        "encode",
        "--scheme", "X5",
        "--manifest", str(tmp_path / "manifest.json"),
        "--out", str(tmp_path / "enc"),
    )
    assert code == 5
    assert "error:" in err


def test_exit_code_6_bad_distortions_and_noise():
    bad = DYADIC.replace("0.5", "1.5", 1)
    code, _, _ = run_cli("md-bounds", "--D", bad)
    assert code == 6
    code, _, _ = run_cli("md-bounds", "--D", DYADIC, "--d", "0.1,0.5,0.4,0.3,0.2,0.1")
    assert code == 6
    # Non-finite floats and a negative tolerance.
    for args in (
        ("md-bounds", "--D", DYADIC, "--d", "nan,0,0,0,0,0"),
        ("check", "--rates", "nan,nan,nan", "--D", DYADIC),
        ("check", "--rates", "inf,inf,inf", "--D", DYADIC),
        ("check", "--rates", "1,2,3", "--D", DYADIC, "--tol", "nan"),
        ("check", "--rates", "0.8,100,100", "--D", DYADIC, "--tol", "-1"),
    ):
        code, out, _ = run_cli(*args)
        assert (code, out) == (6, ""), args


def test_exit_code_6_bound_offsets_that_overflow():
    tiny = DYADIC.rsplit(",", 1)[0] + ",4e-324"
    for args in (
        ("md-bounds", "--D", tiny),
        ("gap", "--D", tiny),
        ("check", "--rates", "1e300,1e300,1e300", "--D", tiny),
        ("md-bounds", "--D", DYADIC, "--d", ",".join(["1e155"] * 6)),
        ("check", "--rates", "100,100,100", "--D", DYADIC,
         "--which", "parametric", "--d", ",".join(["1e155"] * 6)),
    ):
        code, out, err = run_cli(*args)
        assert (code, out) == (6, ""), args
        assert "not finite" in err, args


def test_exit_code_1_other_errors(tmp_path):
    code, _, _ = run_cli("check", "--rates", "1,2,3")
    assert code == 1
    # Zero denominators raised ZeroDivisionError past the exit-code mapping;
    # huge exponents took seconds or minutes before failing at output.
    for args in (
        ("region", "--h", "1/0,1,1,1,1,1,1"),
        ("check", "--h", "1,1,1,1,1,1,1", "--rates", "1/0,1,1"),
        ("corners", "--h", "1e10000000,1,1,1,1,1,1"),
        ("region", "--h", "1,1,1,1,1,1,0.5e-100000000"),
        ("check", "--h", "1,1,1,1,1,1,1", "--rates", "1,0e1000000000,1"),
        ("check", "--h", "1,1,1,1,1,1,1", "--rates", "1,1,1E+99999"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(*args)
        assert (code, out) == (1, ""), args
        assert err.startswith("error:"), args
        assert time.perf_counter() - start < 2, args
    (tmp_path / "streams.bin").write_bytes(b"\x00\x00")
    manifest = {"lengths": [1, 1, 3, 1, 1, 1, 1], "streams": "streams.bin"}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for label in ("XX", ""):  # an empty label raised IndexError
        code, _, err = run_cli(
            "encode",
            "--scheme", label,
            "--manifest", str(tmp_path / "manifest.json"),
            "--out", str(tmp_path / "enc"),
        )
        assert code == 1
        assert err.startswith("error:"), label


def test_literal_digit_limit_follows_python(capsys):
    from amld3 import cli

    h = "1e4299,1,1,1,1,1,1"  # 4300 digits, Python's default limit
    assert cli.main(["region", "--h", h]) == 0
    assert cli.main(["region", "--h", "1" + h]) == 1
    assert "needs more than" in capsys.readouterr().err
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit: the literal is parsed
    try:
        assert cli.main(["corners", "--h", "1e5000,1,1,1,1,1,1"]) == 0
    finally:
        sys.set_int_max_str_digits(limit)
    assert "1" + "0" * 5000 in capsys.readouterr().out


def test_csv_that_cannot_be_printed_leaves_stdout_empty():
    # Each literal fits Python's 4300-digit limit, but H_2 (a row's offset)
    # and a corner rate do not; the header and the first rows used to be
    # printed before the failure.
    h = ",".join(["9e4299"] * 7)
    for command in ("region", "corners"):
        code, out, err = run_cli(command, "--h", h, "--emit", "csv")
        assert (code, out) == (1, ""), command
        assert err.startswith("error:"), command


def test_malformed_manifests_and_sidecars_exit_1(bundle_dir):
    encdir = bundle_dir / "enc"
    run_json(
        "encode",
        "--scheme", "X5",
        "--manifest", str(bundle_dir / "manifest.json"),
        "--out", str(encdir),
    )
    manifest = json.loads((bundle_dir / "manifest.json").read_text())
    sidecar = json.loads((encdir / "sidecar.json").read_text())
    bad_manifests = [
        [manifest], None,
        {**manifest, "lengths": None},
        {**manifest, "lengths": [1, 1, 3, 1, 1, 1]},
        {**manifest, "lengths": [1, 1, 3.0, 1, 1, 1, 1]},
        {**manifest, "lengths": [1, 1, 3, 1, 1, 1, True]},
        {**manifest, "lengths": ["1", 1, 3, 1, 1, 1, 1]},
        {**manifest, "streams": None},
    ]
    for doc in bad_manifests:
        (bundle_dir / "bad.json").write_text(json.dumps(doc))
        code, out, err = run_cli(
            "encode", "--scheme", "X5",
            "--manifest", str(bundle_dir / "bad.json"),
            "--out", str(bundle_dir / "bad"),
        )
        assert (code, out) == (1, ""), doc
        assert err.startswith("error:"), doc
    bad_sidecars = [
        [sidecar], "X5",
        {**sidecar, "scheme": None},
        {**sidecar, "lengths": None},
        {**sidecar, "bits": [3, 7, 5.5]},
        {**sidecar, "bits": [3, 7, True]},
        {**sidecar, "bits": [3, 7]},
        {**sidecar, "files": None},
        {**sidecar, "files": ["G1.bits", "G2.bits", 3]},
    ]
    for doc in bad_sidecars:
        (encdir / "bad.json").write_text(json.dumps(doc))
        code, out, err = run_cli(
            "decode", "--sidecar", str(encdir / "bad.json"),
            "--subset", "G123", "--out", str(bundle_dir / "bad"),
        )
        assert (code, out) == (1, ""), doc
        assert err.startswith("error:"), doc


def test_sidecar_files_may_be_absolute_or_climb(bundle_dir):
    encdir = bundle_dir / "enc"
    run_json(
        "encode", "--scheme", "X5",
        "--manifest", str(bundle_dir / "manifest.json"),
        "--out", str(encdir),
    )
    sidecar = json.loads((encdir / "sidecar.json").read_text())
    sidecar["files"] = [
        str((encdir / "G1.bits").resolve()), "../enc/G2.bits", "G3.bits",
    ]
    (bundle_dir / "elsewhere").mkdir()
    (bundle_dir / "elsewhere" / "G3.bits").write_bytes(
        (encdir / "G3.bits").read_bytes()
    )
    (bundle_dir / "elsewhere" / "sidecar.json").write_text(json.dumps(sidecar))
    run_json(
        "decode", "--sidecar", str(bundle_dir / "elsewhere" / "sidecar.json"),
        "--subset", "G123", "--out", str(bundle_dir / "dec"),
    )
    recovered = []
    for k, n in enumerate([1, 1, 3, 1, 1, 1, 1], start=1):
        data = (bundle_dir / "dec" / f"V{k}.bits").read_bytes()
        recovered.extend(unpack_bits(data, n).tolist())
    assert recovered == [1, 0, 1, 1, 0, 1, 0, 0, 1]


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One byte-level edit of ``data``: flip a bit, overwrite a byte with a
    JSON-significant or extreme one, insert a byte, delete a few bytes,
    truncate, or duplicate a slice."""
    data = bytearray(data)
    pos = rng.randrange(len(data) + 1)
    op = rng.randrange(6)
    if op == 0 and pos < len(data):
        data[pos] ^= 1 << rng.randrange(8)
    elif op == 1 and pos < len(data):
        data[pos] = rng.choice(b'0123456789-+.eE"[]{},: \\\x00\xff')
    elif op == 2:
        data.insert(pos, rng.randrange(256))
    elif op == 3:
        del data[pos:pos + rng.randrange(1, 4)]
    elif op == 4:
        del data[pos:]
    else:
        data[pos:pos] = data[pos:pos + rng.randrange(1, 8)]
    return bytes(data)


def test_mutated_codec_files_end_in_a_documented_exit_code(bundle_dir,
                                                            capsys):
    # Every input, however mangled, ends in one of the documented exit codes
    # 0-6, with nothing on stdout unless it is 0, and no exception.
    from amld3 import cli

    encdir, out = bundle_dir / "enc", str(bundle_dir / "out")
    manifest = str(bundle_dir / "manifest.json")
    assert cli.main(["encode", "--scheme", "X5", "--manifest", manifest,
                     "--out", str(encdir)]) == 0
    encode = ["encode", "--scheme", "X5", "--manifest", manifest, "--out", out]
    targets = {
        bundle_dir / "manifest.json": encode,
        bundle_dir / "streams.bin": encode,
        encdir / "sidecar.json": None,
        **{encdir / f"G{d}.bits": None for d in (1, 2, 3)},
    }
    clean = {path: path.read_bytes() for path in targets}
    capsys.readouterr()
    rng = random.Random(12)
    codes = set()
    for i in range(700):
        path = rng.choice(sorted(targets))
        argv = targets[path] or [
            "decode", "--sidecar", str(encdir / "sidecar.json"),
            "--subset", rng.choice(SUBSETS), "--out", out,
        ]
        path.write_bytes(_mutate(rng, clean[path]))
        try:
            code = cli.main(argv)
        except Exception as e:
            pytest.fail(f"mutation {i} of {path.name}: {e!r} escaped main")
        stdout = capsys.readouterr().out
        assert code in range(7), (i, path.name, code)
        if code:
            assert stdout == "", (i, path.name, code)
        else:
            json.loads(stdout)
        codes.add(code)
        path.write_bytes(clean[path])
    # The mutations reach the ok path, malformed input and wrong lengths.
    assert {0, 1, 5} <= codes


# Negative, non-finite, unparsable, overflowing, over-long, blank,
# underscored, full-width and no-break-space-padded number literals.
HOSTILE = ("-1", "nan", "inf", "-inf", "1/0", "1e400", "1e999999", "9" * 5000,
           "", "   ", "1_000", "\uff11\uff12", "\uff11", "1\u00a0", "\u00a01")


def _values(n, good):
    """A valid list of ``n`` values (half of the draws, so that most argvs
    get past their first value), a hostile token alone, or ``n - 1`` to
    ``n + 1`` values, each a good one or a hostile token."""
    valid = st.just(",".join((good * n)[:n]))
    item = st.sampled_from(good) | st.sampled_from(HOSTILE)
    return (valid | valid | st.sampled_from(HOSTILE)
            | st.integers(n - 1, n + 1).flatmap(
                lambda k: st.lists(item, min_size=k, max_size=k)
            ).map(",".join))


H_VALUES = _values(7, ("1", "2", "0", "1/2", "3"))
D_VALUES = _values(7, ("0.5", "0.25", "0.125", "0.9", "1"))
NOISE = _values(6, ("0.5", "0.25", "0.1"))


def _choice(good, bad):
    """A good value half of the time, else a bad one or a hostile token."""
    return st.sampled_from(good) | st.sampled_from((*bad, *HOSTILE))


ORDERINGS = _choice(("1", "8"), ("0", "9", "{}", '{"ordering": 9}', "[1]",
                                "\uff11", "1\u00a0", "\u00a01"))
WHICH = _choice(("inner", "outer", "parametric"), ("both",))
TOL = _choice(("1e-9", "0"), ("abc",))


@st.composite
def analysis_argvs(draw):
    def opt(flag, values):
        return draw(st.just([]) | values.map(lambda v: [flag, v]))

    kind = draw(st.sampled_from(("check", "check", "region", "corners",
                                 "md-bounds", "gap")))
    if kind == "check":
        h = ["--h", draw(H_VALUES), *opt("--ordering", ORDERINGS)]
        D = ["--D", draw(D_VALUES), *opt("--which", WHICH),
             *opt("--d", NOISE), *opt("--tol", TOL)]
        # Mostly one mode with its own flags; also both modes, neither, or
        # one mode with the other's flags.
        return ["check", "--rates", draw(_values(3, ("1", "2.5", "0"))),
                *draw(st.sampled_from((h, h, h, D, D, D, h + D,
                                       h[2:] + D[2:], h + D[2:],
                                       D + h[2:])))]
    emit = opt("--emit", st.sampled_from(("json", "csv", "xml")))
    if kind in ("region", "corners"):
        return [kind, "--h", draw(H_VALUES), *opt("--ordering", ORDERINGS),
                *emit]
    if kind == "md-bounds":
        return [kind, "--D", draw(D_VALUES), *opt("--d", NOISE), *emit]
    return [kind, "--D", draw(D_VALUES), *emit]


@settings(max_examples=500, deadline=None)
@given(argv=analysis_argvs())
def test_hostile_analysis_arguments_end_in_a_documented_exit_code(argv):
    # Every analysis argv ends in one of the exit codes 0-6, argparse's
    # usage errors among them, with nothing on stdout unless it is 0.
    from amld3 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    assert code in range(7), (argv, code, err.getvalue())
    if code:
        assert out.getvalue() == "", argv
    elif "csv" not in argv:
        json.loads(out.getvalue())
    # A number value with a `_` or a non-ASCII character is never read.
    numeric = {"--h", "--rates", "--D", "--d", "--tol", "--ordering"}
    if any(flag in numeric and (not value.isascii() or "_" in value)
           for flag, value in zip(argv, argv[1:])):
        assert code != 0, argv


@pytest.mark.parametrize("argv", [
    pytest.param(("region", "--ordering", "{deep}", "--h", "1,1,1,1,1,1,1"),
                 id="ordering"),
    pytest.param(("gap", "--D", "{deep}"), id="D-file"),
    pytest.param(("encode", "--scheme", "X5", "--manifest", "{deep}",
                  "--out", "{out}"), id="manifest"),
    pytest.param(("decode", "--sidecar", "{deep}", "--subset", "G123",
                  "--out", "{out}"), id="sidecar"),
])
def test_deeply_nested_json_exits_1(tmp_path, argv):
    # json.loads raised RecursionError, which ended in a traceback.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run_cli(
        *(a.format(deep=deep, out=tmp_path / "out") for a in argv)
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("target", [None, [0.5], {"x": 0.5}, "0.5", True],
                         ids=["null", "list", "object", "string", "bool"])
@pytest.mark.parametrize("command", [
    ("md-bounds",), ("gap",), ("check", "--rates", "1,1,1"),
], ids=["md-bounds", "gap", "check"])
def test_non_number_distortion_target_exits_1(command, target):
    # null, a list or an object raised TypeError past main; a string and a
    # bool were taken as numbers.
    D = {"D": {s: 0.5 for s in SUBSETS}}
    D["D"]["G13"] = target
    code, out, err = run_cli(*command, "--D", json.dumps(D))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "G13" in err
    assert "Traceback" not in err


def test_malformed_distortion_json_ends_in_a_documented_exit_code():
    # A top-level non-object and an int too large for a float raised
    # TypeError and OverflowError past main.
    huge = json.dumps({"D": {s: 10**400 if s == "G2" else 0.5
                             for s in SUBSETS}})
    for stdin, want in (("5", 1), ('"D"', 1), ("[]", 1), (huge, 6)):
        code, out, err = run_cli("gap", "--D", "-", stdin=stdin)
        assert (code, out) == (want, ""), stdin[:20]
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("region",),
    ("frobnicate",),
    ("check", "--rates", "1,1,1", "--tol", "abc"),
    ("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1", "--D", DYADIC,
     "--which", "inner"),
    ("check", "--rates", "1,2.5,3", "--D", DYADIC, "--ordering", "9"),
    ("check", "--rates", "1,2.5,3", "--D", DYADIC, "--ordering", "1"),
    ("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1",
     "--which", "parametric", "--tol", "5"),
    ("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1", "--which", "outer"),
    ("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1", "--d", MATCHED),
    ("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1", "--tol", "1e-9"),
    ("check", "--rates", "1,4,7", "--h", "1,1,1,1,1,1,1", "--tol", "-1"),
], ids=["missing-flag", "unknown-subcommand", "bad-tol", "both-h-and-D",
        "D-with-bad-ordering", "D-with-ordering", "h-with-which-and-tol",
        "h-with-which", "h-with-d", "h-with-tol", "h-with-bad-tol"])
def test_usage_errors_exit_2(argv):
    # argparse's own exit code, which shares 2 with an invalid ordering.
    # check takes --h (exact region) or --D (bounds), never both, and each
    # mode refuses the other's flags, even at their default values.
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert "usage:" in err


H1 = "1,1,1,1,1,1,1"


@pytest.mark.parametrize("value", ["", "   ", "\t\n"],
                         ids=["empty", "spaces", "tab-newline"])
@pytest.mark.parametrize("argv, code, flag", [
    (("region", "--h", H1, "--ordering"), 2, "--ordering"),
    (("corners", "--h", H1, "--ordering"), 2, "--ordering"),
    (("check", "--rates", "1,1,1", "--h", H1, "--ordering"), 2, "--ordering"),
    (("md-bounds", "--D"), 1, "--D"),
    (("gap", "--D"), 1, "--D"),
    (("check", "--rates", "1,1,1", "--D"), 1, "--D"),
], ids=["region", "corners", "check-h", "md-bounds", "gap", "check-D"])
def test_empty_ordering_or_distortions_name_the_flag(capsys, argv, code,
                                                     flag, value):
    # An empty or blank value was read as the path '', the working
    # directory, and exited 1 with "[Errno 21] Is a directory: '.'".
    from amld3 import cli

    assert cli.main([*argv, value]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: empty {flag} value {value!r}\n"


def test_empty_ordering_is_an_ordering_error_in_a_child_process():
    from amld3 import cli

    with pytest.raises(OrderingError, match="empty --ordering value ''"):
        cli._parse_ordering("")
    for argv, code in ((("region", "--h", H1, "--ordering", ""), 2),
                       (("gap", "--D", ""), 1)):
        got, out, err = run_cli(*argv)
        assert (got, out) == (code, ""), argv
        assert err.startswith("error: empty --") and "Traceback" not in err


# Literals that Python's float and Fraction read as their ASCII twins: a
# ``_`` between digits, a fullwidth and an Arabic-Indic digit, and a
# no-break space.
ASCII_TWINS = {"0_1": "01", "\uff11": "1", "\u0661": "1", "1\u00a0": "1 "}


@pytest.mark.parametrize("literal", ASCII_TWINS,
                         ids=["underscore", "fullwidth", "arabic-indic",
                              "no-break-space"])
@pytest.mark.parametrize("argv, code", [
    (("corners", "--h", "{x},1,1,1,1,1,1"), 1),
    (("check", "--rates", "1,{x},1", "--h", H1), 1),
    (("check", "--rates", "1,{x},1", "--D", DYADIC), 1),
    (("md-bounds", "--D", "{x}," + DYADIC.split(",", 1)[1]), 1),
    (("md-bounds", "--D", DYADIC, "--d", "{x},0.5,0.4,0.3,0.2,0.1"), 1),
    (("check", "--rates", "1,1,1", "--D", DYADIC, "--tol", "{x}"), 2),
    (("corners", "--ordering", "{x}", "--h", H1), 1),
], ids=["h", "rates-exact", "rates-float", "D", "d", "tol", "ordering"])
def test_number_literals_are_ascii_only(capsys, argv, code, literal):
    # Each flag reads the ASCII twin, and refuses the literal itself with
    # the exit code of a malformed literal: `corners --h 1_0,...` used to
    # read h_1 = 10.
    from amld3 import cli

    def run(x):
        try:
            return cli.main([a.format(x=x) for a in argv])
        except SystemExit as e:
            return e.code

    assert run(ASCII_TWINS[literal]) == 0
    capsys.readouterr()
    assert run(literal) == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    if code == 2:
        assert f"invalid float value: {literal!r}" in err
    else:
        assert err == f"error: {literal!r} is not an ASCII number literal\n"


@pytest.mark.parametrize("argv", [
    ("corners", "--h", H1, "--ordering", "{}1"),
    ("corners", "--h", H1, "--ordering", "1{}"),
    ("gap", "--D", "{}" + DYADIC),
    ("gap", "--D", DYADIC + "{}"),
], ids=["ordering-before", "ordering-after", "D-before", "D-after"])
def test_no_break_space_at_either_end_is_refused(capsys, argv):
    # The --ordering id and a comma --D were stripped of Unicode whitespace
    # before they were read, so a no-break space at either end was dropped
    # and the value exited 0; inside --rates it exited 1.
    from amld3 import cli

    assert cli.main([a.format(" ") for a in argv]) == 0
    capsys.readouterr()
    assert cli.main([a.format("\u00a0") for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "is not an ASCII number literal" in err


D_JSON = json.dumps({"D": dict(zip(SUBSETS, map(float, DYADIC.split(","))))})


@pytest.mark.parametrize("argv", [
    ("gap", "--D", D_JSON + "{}"),
    ("corners", "--h", H1, "--ordering", '{}{"ordering": 2}'),
    ("gap", "--D", "{path}{}"),
], ids=["D-json-after", "ordering-json-before", "D-path-after"])
def test_no_break_space_around_inline_json_or_a_path_is_refused(
        capsys, tmp_path, argv):
    # A value read as inline JSON or a path was stripped of Unicode
    # whitespace, so the CLI took a no-break space that json.loads refuses
    # and a path that does not exist, and exited 0.
    from amld3 import cli

    path = tmp_path / "t.json"
    path.write_text(D_JSON)

    def run(space):
        return cli.main([a.replace("{path}", str(path)).replace("{}", space)
                         for a in argv])

    assert run(" ") == 0
    capsys.readouterr()
    assert run("\u00a0") == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("bad", ["abc", "0_1", "1/2"])
@pytest.mark.parametrize("command", [
    ("md-bounds",), ("gap",), ("check", "--rates", "1,1,1"),
], ids=["md-bounds", "gap", "check"])
def test_comma_distortions_name_the_bad_literal(capsys, command, bad):
    # A comma --D with an item that is not a float was read as a path, and
    # exited 1 with "No such file or directory", naming no item.
    from amld3 import cli

    D = f"0.5,{bad},0.1,0.1,0.1,0.1,0.1"
    assert cli.main([*command, "--D", D]) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"{bad!r}" in err and "No such file" not in err


@pytest.mark.parametrize("which", [[], ["--which", "inner"],
                                   ["--which", "outer"]],
                         ids=["default", "inner", "outer"])
def test_check_reads_noise_whatever_the_bound(capsys, which):
    # --d was read only for --which parametric, so a malformed --d beside
    # another bound exited 0.
    from amld3 import cli

    argv = ["check", "--rates", "1,2.5,3", "--D", DYADIC, *which, "--d"]
    assert cli.main([*argv, MATCHED]) == 0
    assert cli.main([*argv, "0_5" + MATCHED[3:]]) == 1
    assert cli.main([*argv, "0.1,0.5,0.4,0.3,0.2,0.1"]) == 6
    assert capsys.readouterr().err.count("error:") == 2


def test_check_parametric_without_noise_exits_1():
    code, out, err = run_cli("check", "--rates", "1,2,3", "--D", DYADIC,
                             "--which", "parametric")
    assert (code, out) == (1, "")
    assert err == "error: --which parametric requires --d\n"


# ---------------------------------------------------------------------------
# Error exits, in process
# ---------------------------------------------------------------------------

def _main(capsys, *argv):
    """``cli.main(argv)`` in this process: (exit code, stdout, stderr)."""
    from amld3 import cli

    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    return (code, *capsys.readouterr())


def test_unknown_scheme_label_lists_the_labels(capsys, bundle_dir):
    code, out, err = _main(capsys, "encode", "--scheme", "Q9",
                           "--manifest", bundle_dir / "manifest.json",
                           "--out", bundle_dir / "enc")
    assert (code, out) == (1, "")
    labels = err.split("choose one of ")[1].strip().split(", ")
    assert labels == list(ALL_SCHEME_LABELS)
    assert not (bundle_dir / "enc").exists()


def test_unknown_decoder_subset_reads_no_description_file(capsys, bundle_dir):
    encdir = bundle_dir / "enc"
    assert _main(capsys, "encode", "--scheme", "X5",
                 "--manifest", bundle_dir / "manifest.json",
                 "--out", encdir)[0] == 0
    for name in ("G1.bits", "G2.bits", "G3.bits"):
        (encdir / name).unlink()  # reading one would fail with OSError
    code, out, err = _main(capsys, "decode",
                           "--sidecar", encdir / "sidecar.json",
                           "--subset", "G4", "--out", bundle_dir / "dec")
    assert (code, out) == (1, "")
    assert err.startswith("error: unknown decoder subset 'G4'")
    assert not (bundle_dir / "dec").exists()


def test_manifest_or_sidecar_array_exits_1(capsys, bundle_dir):
    (bundle_dir / "array.json").write_text("[]")
    for argv in (("encode", "--scheme", "X5", "--manifest"),
                 ("decode", "--subset", "G1", "--sidecar")):
        code, out, err = _main(capsys, *argv, bundle_dir / "array.json",
                               "--out", bundle_dir / "out")
        assert (code, out) == (1, ""), argv
        assert err == f"error: {argv[-1][2:]} must be a JSON object\n"


@pytest.mark.parametrize("argv, want", [
    pytest.param(("check", "--rates", "1,2,3", "--D", DYADIC,
                  "--which", "parametric"), 1, id="parametric-without-d"),
    pytest.param(("check", "--rates", "inf,1,1", "--D", DYADIC), 6,
                 id="inf-rates"),
    pytest.param(("region", "--ordering", "{deep}", "--h", "1,1,1,1,1,1,1"),
                 1, id="deep-ordering"),
    pytest.param(("encode", "--scheme", "X5", "--manifest", "{deep}",
                  "--out", "{out}"), 1, id="deep-manifest"),
    pytest.param(("check", "--rates", "1,2,3", "--D", DYADIC, "--tol", "-1"),
                 6, id="negative-tol"),
    pytest.param(("check", "--rates", "1,2,3", "--D", DYADIC, "--tol", "nan"),
                 6, id="nan-tol"),
])
def test_error_exits_in_process(capsys, tmp_path, argv, want):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = _main(
        capsys, *(a.format(deep=deep, out=tmp_path / "out") for a in argv)
    )
    assert (code, out) == (want, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check", "--rates", "1,4,7", "--h", H1, "--tol", "1e-9"),
    ("check", "--rates", "1,2.5,3", "--D", DYADIC, "--ordering", "1"),
], ids=["tol-with-h", "ordering-with-D"])
def test_flag_of_the_other_check_mode_exits_2_in_process(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        _main(capsys, *argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "not allowed with" in err


def test_ordering_from_stdin_in_process(capsys, monkeypatch):
    levels = {s: i + 1 for i, s in enumerate(
        ("G1", "G2", "G12", "G3", "G13", "G23", "G123")
    )}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(
        {"levels": levels})))
    code, out, err = _main(capsys, "region", "--ordering", "-",
                           "--h", "1,1,1,1,1,1,1")
    assert (code, err) == (0, "")
    assert json.loads(out)["ordering"] == 7


@pytest.mark.parametrize("module", ["amld3", "amld3.cli"])
def test_module_entry_points_in_process(capsys, monkeypatch, module):
    # ``python -m amld3`` and ``python -m amld3.cli`` exit with main's code
    # and print what main prints.  runpy warns that amld3.cli is already
    # imported when it runs it afresh as __main__.
    argv = ["corners", "--h", "1,1,1,1,1,1,1"]
    code, want, _ = _main(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(sys, "argv", [module, *argv])
    with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module(module, run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr() == (want, "")


def test_output_is_byte_deterministic():
    for args in (
        ("region", "--h", "1,1,3,2,2,1,1"),
        ("md-bounds", "--D", DYADIC, "--d", MATCHED),
        ("gap", "--D", DYADIC),
    ):
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2


# One profile per L1 regime: I (h3 >= h4 + h5), II (h3 >= h4), III.
GOLDEN_PROFILES = ("1,1,2,1,1,1,1", "1,1,1,1,1,1,1", "1,1,1,2,1,1,1")
# Normalizes D_G13 to D_G3 and induces ordering 7 (G12 before G3).
MESSY = "0.9,0.8,0.7,0.75,0.72,0.5,0.1"


def _golden_argvs():
    orderings = [str(n) for n in range(1, 9)] + [
        json.dumps({"levels": {s: k + 1 for k, s in enumerate(row)}})
        for row in _oracles.ORDERING_ROWS
    ]
    for h in GOLDEN_PROFILES:
        for o in orderings:
            for cmd in ("region", "corners"):
                for emit in ("json", "csv"):
                    yield [cmd, "--ordering", o, "--h", h, "--emit", emit]
            yield ["check", "--ordering", o, "--h", h, "--rates", "3,9/2,6"]
    for D in (DYADIC, MESSY):
        for emit in ("json", "csv"):
            yield ["md-bounds", "--D", D, "--emit", emit]
            yield ["md-bounds", "--D", D, "--d", MATCHED, "--emit", emit]
            yield ["gap", "--D", D, "--emit", emit]
        for which in ("inner", "outer", "parametric"):
            yield ["check", "--D", D, "--which", which, "--d", MATCHED,
                   "--rates", "1,2.5,3"]
    yield ["check", "--rates", "1,2,3"]  # exit 1: neither --h nor --D
    yield ["region", "--ordering", "9", "--h", GOLDEN_PROFILES[0]]  # exit 2
    yield ["region", "--h", "1,1,-1,1,1,1,1"]  # exit 3
    yield ["gap", "--D", DYADIC.replace("0.5", "1.5", 1)]  # exit 6


# sha256 over (argv, exit code, stdout) of each call above: it pins the
# CLI's output byte for byte, so change it only with an intended output change.
GOLDEN_DIGEST = (
    "645519c5975de18d8fd6f906da2630e9f93d82c82f4eae89b1fbb456144093bd"
)


def test_cli_output_matches_golden_digest(capsys):
    from amld3 import cli

    digest = hashlib.sha256()
    for argv in _golden_argvs():
        code = cli.main(argv)
        out = capsys.readouterr().out
        digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def _gaussian_targets():
    """(ordering index, targets, noise) for each ordering: a per-level
    dyadic target, and one with G123 and every pair whose level follows its
    later single raised to 1, which normalizes back to ties that still
    induce the same ordering; the noise is matched to the dyadic target."""
    for n, row in enumerate(_oracles.ORDERING_ROWS, start=1):
        level = {s: k + 1 for k, s in enumerate(row)}
        dyadic = {s: 2.0 ** -level[s] for s in SUBSETS}
        raised = dict(dyadic, G123=1.0)
        for s in ("G12", "G13", "G23"):
            singles = [g for g in ("G1", "G2", "G3") if g[1] in s[1:]]
            if level[s] == 1 + max(level[g] for g in singles):
                raised[s] = 1.0
        noise = ",".join(repr(2.0 ** -k) for k in range(1, 7))
        for D in (dyadic, raised):
            yield n, ",".join(repr(D[s]) for s in SUBSETS), noise


# sha256 over (argv, exit code, stdout) of md-bounds, gap and check --D in
# JSON on the targets of _gaussian_targets.
GAUSSIAN_GOLDEN_DIGEST = (
    "cef1f20f156e9d7961efbbf72df3e9e98bfe3e8ff2a1c55f1276620aa9b8253d"
)


def test_gaussian_cli_output_matches_golden_digest(capsys):
    from amld3 import cli

    digest = hashlib.sha256()
    for n, D, noise in _gaussian_targets():
        argvs = [["md-bounds", "--D", D, "--d", noise, "--emit", "json"],
                 ["gap", "--D", D, "--emit", "json"]]
        argvs += [["check", "--D", D, "--which", which, "--d", noise,
                   "--rates", rates]
                  for which in ("inner", "outer", "parametric")
                  for rates in ("1,2.5,3", "2,2,2")]
        for argv in argvs:
            code = cli.main(argv)
            out = capsys.readouterr().out
            if argv[0] == "md-bounds":
                assert json.loads(out)["ordering"] == n
            digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest() == GAUSSIAN_GOLDEN_DIGEST


# One bundle per scheme of the codec workload, every description length off a
# byte boundary; Z7 at the odd lengths would split V4 - V3 = 5 bits in halves.
CODEC_BUNDLES = (
    ("X1", (5, 3, 17, 6, 4, 9, 11)),
    ("X5", (5, 3, 17, 6, 4, 9, 11)),
    ("Y5", (5, 3, 9, 6, 7, 2, 11)),
    ("Z7", (5, 3, 7, 13, 4, 9, 11)),
)
ODD_Z7 = (5, 3, 7, 12, 4, 9, 11)


def _write_manifest(name, lengths, rng):
    Path(f"{name}.bin").write_bytes(rng.randbytes(-(-sum(lengths) // 8)))
    Path(f"{name}.json").write_text(json.dumps(
        {"lengths": list(lengths), "streams": f"{name}.bin"}))
    return f"{name}.json"


def _codec_argvs():
    """The codec calls, run in a fresh working directory: each encode of
    CODEC_BUNDLES with all seven decodes, then an unknown subset (exit 1),
    an odd Z7 split (exit 4) and a ``.bits`` file one byte short (exit 5).
    It writes the manifests and shortens the file as it goes, so each call
    must run before the next one is drawn."""
    rng = random.Random(34)
    for label, lengths in CODEC_BUNDLES:
        manifest = _write_manifest(label, lengths, rng)
        yield ["encode", "--scheme", label, "--manifest", manifest,
               "--out", f"enc/{label}"]
        for subset in SUBSETS:
            yield ["decode", "--sidecar", f"enc/{label}/sidecar.json",
                   "--subset", subset, "--out", f"dec/{label}/{subset}"]
    yield ["decode", "--sidecar", "enc/X5/sidecar.json", "--subset", "G4",
           "--out", "dec/G4"]
    yield ["encode", "--scheme", "Z7", "--manifest",
           _write_manifest("odd", ODD_Z7, rng), "--out", "enc/odd"]
    short = Path("enc/Y5/G2.bits")
    short.write_bytes(short.read_bytes()[:-1])
    yield ["decode", "--sidecar", "enc/Y5/sidecar.json", "--subset", "G123",
           "--out", "dec/short"]


# sha256 over (argv, exit code, stdout, [name, hex bytes] of each file under
# --out) of each call of _codec_argvs: it pins the codec's CLI output and
# files byte for byte.
CODEC_GOLDEN_DIGEST = (
    "c1d9e80c3e1460781df7da69f975d97606ab3380248fe4d663868da96da42960"
)


def test_codec_cli_output_matches_golden_digest(capsys, tmp_path,
                                                 monkeypatch):
    from amld3 import cli

    monkeypatch.chdir(tmp_path)
    digest, codes = hashlib.sha256(), []
    for argv in _codec_argvs():
        codes.append(cli.main(argv))
        out = capsys.readouterr().out
        outdir = Path(argv[-1])
        files = [[p.name, p.read_bytes().hex()]
                 for p in sorted(outdir.iterdir())] if outdir.exists() else []
        digest.update(json.dumps([argv, codes[-1], out, files]).encode())
    assert codes == [0] * 32 + [1, 4, 5]
    assert digest.hexdigest() == CODEC_GOLDEN_DIGEST


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=ENV
    )
    assert proc.returncode == 0, proc.stderr
