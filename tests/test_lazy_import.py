"""numpy loads with the codec's array API only: ``import amld3``, the
analysis layers and every CLI call leave it unloaded, and the analysis
commands leave the codec module unloaded too.  The template table,
``amld3.catalog``, loads only where L1 corners are labelled (and where a
scheme is looked up by label).  No CLI call loads ``dataclasses`` or
``inspect``.

Each case runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import amld3
from test_cli import DYADIC, ENV, MATCHED

# Runs ``amld3.cli.main`` on argv (if any), then reports on its last line the
# exit code and whether numpy, the codec module, the template table,
# dataclasses and inspect were imported.
PROBE = """
import json, sys
import amld3, amld3.cli
code = amld3.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, *(m in sys.modules
                          for m in ("numpy", "amld3.codec", "amld3.catalog",
                                    "dataclasses", "inspect"))]))
"""


def run_python(source: str, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_probe(*argv):
    return tuple(json.loads(run_python(PROBE, *argv).splitlines()[-1]))


H = ("--h", "1,1,1,1,1,1,1")


# ``catalog``: whether the call labels L1 corners, and so loads the table.
@pytest.mark.parametrize("argv, code, catalog", [
    pytest.param((), 0, False, id="import"),
    pytest.param(("region", *H), 0, True, id="region"),
    pytest.param(("region", *H, "--emit", "csv"), 0, False, id="region-csv"),
    pytest.param(("corners", *H, "--emit", "csv"), 0, True, id="corners"),
    pytest.param(("corners", "--ordering", "2", *H), 0, False,
                 id="corners-not-L1"),
    pytest.param(("check", *H, "--rates", "1,4,7"), 0, False, id="check-h"),
    pytest.param(("check", "--rates", "1.0,1.6,2.0", "--D", DYADIC), 0, False,
                 id="check-D"),
    pytest.param(("md-bounds", "--D", DYADIC, "--d", MATCHED), 0, False,
                 id="md-bounds"),
    pytest.param(("gap", "--D", DYADIC), 0, False, id="gap"),
    pytest.param(("check", "--rates", "1,2,3"), 1, False, id="exit-1"),
    pytest.param(("region", "--ordering", "9", *H), 2, False, id="exit-2"),
    pytest.param(("region", "--h", "1,1,-1,1,1,1,1"), 3, False, id="exit-3"),
    pytest.param(("md-bounds", "--D", DYADIC.replace("0.5", "1.5", 1)), 6,
                 False, id="exit-6"),
])
def test_analysis_calls_leave_numpy_unloaded(argv, code, catalog):
    assert run_probe(*argv) == (code, False, False, catalog, False, False)


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    """An X5 bundle, its manifest, and its encoding (made in this process)."""
    from amld3 import cli

    root = tmp_path_factory.mktemp("codec")
    (root / "streams.bin").write_bytes(b"\xb4\x80")
    manifest = {"lengths": [1, 1, 3, 1, 1, 1, 1], "streams": "streams.bin"}
    (root / "manifest.json").write_text(json.dumps(manifest))
    (root / "short.bin").write_bytes(b"\xb4")
    manifest["streams"] = "short.bin"
    (root / "short.json").write_text(json.dumps(manifest))
    manifest["lengths"] = [1, 1, 0, 2, 1, 1, 1]
    (root / "regime.json").write_text(json.dumps(manifest))
    assert cli.main(["encode", "--scheme", "X5", "--manifest",
                     str(root / "manifest.json"), "--out", str(root / "enc")]
                    ) == 0
    return root


@pytest.mark.parametrize("argv, code", [
    pytest.param(("encode", "--scheme", "X5", "--manifest", "manifest.json"),
                 0, id="encode"),
    *(pytest.param(("decode", "--sidecar", "enc/sidecar.json",
                    "--subset", subset), 0, id=f"decode-{subset}")
      for subset in ("G1", "G2", "G3", "G12", "G13", "G23", "G123")),
    pytest.param(("encode", "--scheme", "X5", "--manifest", "regime.json"),
                 4, id="exit-4"),
    pytest.param(("encode", "--scheme", "X5", "--manifest", "short.json"),
                 5, id="exit-5"),
])
def test_codec_calls_leave_numpy_unloaded(encoded, tmp_path, argv, code):
    argv = [str(encoded / a) if a.endswith(".json") else a for a in argv]
    assert run_probe(*argv, "--out", str(tmp_path / "out")) == (
        code, False, True, True, False, False
    )


def test_codec_module_resolves_after_bare_import():
    run_python(
        "import sys, amld3\n"
        "assert 'numpy' not in sys.modules\n"
        "assert 'amld3.catalog' not in sys.modules\n"
        "assert amld3.codec is sys.modules['amld3.codec']\n"
        "assert amld3.encode is amld3.codec.encode\n"
        "assert amld3.TEMPLATES is sys.modules['amld3.catalog'].TEMPLATES\n"
    )


def test_the_codec_alone_leaves_the_catalog_unloaded():
    run_python(
        "import sys, amld3.codec\n"
        "assert amld3.encode is amld3.codec.encode\n"
        "assert 'amld3.catalog' not in sys.modules\n"
    )


def test_catalog_names_load_the_catalog_not_the_codec():
    run_python(
        "import sys, amld3\n"
        "assert amld3.TEMPLATES is sys.modules['amld3.catalog'].TEMPLATES\n"
        "assert amld3.label_corners is amld3.catalog.label_corners\n"
        "assert 'amld3.codec' not in sys.modules\n"
    )


def test_the_l1_catalog_lives_in_catalog_only():
    from amld3 import catalog, rate_region

    for name in ("CATALOG_LABELS", "label_corners"):
        assert getattr(amld3, name) is getattr(catalog, name), name
        assert not hasattr(rate_region, name), name


def test_dir_lists_the_codec_names_before_they_load():
    run_python(
        "import sys, amld3\n"
        "listed = set(dir(amld3))\n"
        "assert 'numpy' not in sys.modules\n"
        "missing = {*amld3.__all__, 'codec', 'encode', 'TEMPLATES'} - listed\n"
        "assert not missing, missing\n"
    )


def test_dir_is_sorted_and_names_every_lazy_module_and_name():
    listed = dir(amld3)
    assert listed == sorted(set(listed))
    assert {*amld3.__all__, "codec", "catalog", "__version__"} <= set(listed)


def test_every_public_name_resolves():
    for name in amld3.__all__:
        assert getattr(amld3, name) is not None, name
    assert len(set(amld3.__all__)) == len(amld3.__all__)
    namespace: dict = {}
    exec("from amld3 import *", namespace)
    assert set(amld3.__all__) <= set(namespace)
    assert namespace["encode"] is amld3.codec.encode


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        amld3.no_such_name
    assert not hasattr(amld3, "no_such_name")
