"""Command-line interface.

Subcommands::

    region     print a rate region (constraints + corners) as JSON or CSV
    corners    print just the corner points
    encode     encode a source bundle with a catalog scheme
    decode     recover streams from a subset of encoded descriptions
    md-bounds  inner/outer (and optional parametric) distortion bounds
    gap        normalized facet distances between inner and outer bounds
    check      membership of a rate triple (exact region or float bounds)

Exit codes: 0 ok, 2 invalid ordering (an empty or blank ``--ordering`` too)
or an argparse usage error (a missing required flag, an unknown subcommand,
a bad ``--tol`` literal, ``check`` given both ``--h`` and ``--D``, or a
flag of the other mode: ``--ordering`` with ``--D``, ``--which``, ``--d``
or ``--tol`` with ``--h``), 3 negative entropy, 4 scheme/length regime
mismatch or odd split, 5 bit-length mismatch, 6 out-of-range or non-finite
float input (distortions, noise, rates, a negative --tol, and inputs that
overflow a bound offset: a target below about 5.6e-309, noise of about
1e155 or more), 1 other errors (``check`` given neither ``--h`` nor
``--D``, an empty or blank ``--D``, a number literal in ``--h``,
``--rates``, a comma ``--D``, ``--d`` or an ``--ordering`` id, or exiting 2
in ``--tol``, with a ``_`` or a character that is not ASCII, a comma ``--D``
with a bad literal that is neither inline JSON nor an existing path, an
``--ordering`` or ``--D`` read as inline JSON or a path with whitespace at
either end other than the space, tab, LF and CR that ``json.loads`` skips,
a no-break space among them, JSON nested too deeply to parse, a JSON
``--D`` target that is not a number, ``"0.5"``, ``true`` and ``null`` among
them, and an exact number whose numerator or denominator, as written, has
more digits than ``sys.get_int_max_str_digits()``).  ``check`` reads
``--d`` whenever it is given, as ``md-bounds`` does.

Each command returns its output, a dict printed as JSON or a list of CSV
rows, and :func:`main` writes it.  Outputs are deterministic byte-for-byte:
dict keys are emitted in a fixed order and floats are quantized to 12
significant digits.

Input files are trusted like the command line that names them.  A sidecar's
``files`` entries are read relative to the sidecar's directory unless they
are absolute, and ``..`` is followed, not refused.  A ``.bits`` file must
have exactly ceil(n/8) bytes for its n bits; the padding bits of its last
byte are ignored, whatever their values.

Only ``encode`` and ``decode`` import the codec, and they replay its plans
on Python ints read straight from the packed files; no subcommand imports
numpy, which only the codec's array API loads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import gaussian_md, ordering, rate_region


def _quantize(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _text(doc) -> str:
    """A command's output as text: JSON for a dict, else comma-joined rows.
    It is built whole, so that a value that cannot be printed leaves stdout
    empty."""
    doc = _quantize(doc)
    if isinstance(doc, dict):
        return json.dumps(doc, indent=2)
    return "\n".join(",".join(map(str, row)) for row in doc)


def _write(outdir: str, files: dict) -> None:
    """Create ``outdir`` and write each file name -> bytes of ``files`` in it."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for name, blob in files.items():
        (out / name).write_bytes(blob)


def _loads(text: str):
    """``json.loads``, with JSON nested too deeply to parse as a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    return Path(spec).read_text()


# The whitespace that json.loads skips, and all that is stripped from a value
# read as inline JSON or a path: a no-break space there is refused.
_JSON_SPACE = " \t\n\r"


def _json_arg(spec: str):
    """Inline JSON if ``spec`` starts with ``{``, else stdin's or a file's,
    ``spec`` stripped of :data:`_JSON_SPACE` first."""
    spec = spec.strip(_JSON_SPACE)
    return _loads(spec if spec.startswith("{") else _read_text(spec))


def _parse_ordering(spec: str) -> ordering.Ordering:
    """An ordering id read as a number literal, else JSON inline, from stdin
    or from a file."""
    if not spec.strip():  # else read as the path '', the working directory
        raise ordering.OrderingError(f"empty --ordering value {spec!r}")
    if spec.strip().replace("_", "").isdigit():
        return ordering.ordering_from_json({"ordering": _number(spec, int)})
    return ordering.ordering_from_json(_json_arg(spec))


_DECIMAL = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:[eE]([-+]?\d+))?\s*")


def _number(literal: str, kind: type = float):
    """``kind(literal)``, refused for a ``_`` or a non-ASCII character, which
    ``int``, ``float`` and ``Fraction`` would read as part of a number.

    A ``Fraction`` is refused too for a zero denominator, and for a decimal
    numerator or denominator that, as written, has more digits than Python's
    int/str conversion limit (0, or no such limit in the interpreter, lifts
    the check).
    """
    if not literal.isascii() or "_" in literal:
        raise ValueError(f"{literal!r} is not an ASCII number literal")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    m = kind is Fraction and limit and _DECIMAL.fullmatch(literal)
    if m:
        whole, decimals, exp = m.groups("")
        e = int(exp or 0)
        num = len((whole + decimals).lstrip("0") or "0") + max(e, 0)
        if max(num, 1 + len(decimals) - min(e, 0)) > limit:
            raise ValueError(f"{literal!r} needs more than {limit} digits")
    try:
        return kind(literal)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {literal!r}") from None


_number.__name__ = "float"  # the type argparse names for a bad --tol


def _numbers(spec: str, kind: type = float, count: int = 0) -> list:
    """The comma list ``spec`` read by :func:`_number`, ``count`` long
    unless ``count`` is 0."""
    vals = [_number(p, kind) for p in spec.split(",")]
    if count and len(vals) != count:
        raise ValueError(f"expected {count} numbers in {spec!r}, "
                         f"got {len(vals)}")
    return vals


def _parse_distortions(spec: str) -> gaussian_md.DistortionVector:
    """A comma list of float literals, else JSON inline, from stdin or from a
    file; a comma list with a bad literal is JSON only if it starts with
    ``{`` and a path only if that path exists."""
    if not spec.strip():
        raise ValueError(f"empty --D value {spec!r}")
    if "," in spec:
        try:
            vals = _numbers(spec)
        except ValueError:
            text = spec.strip(_JSON_SPACE)
            if not text.startswith("{") and not os.path.exists(text):
                raise
        else:
            return gaussian_md.DistortionVector(vals)
    return gaussian_md.distortions_from_json(_json_arg(spec))


def _region(args) -> rate_region.RateRegion:
    """The region of ``--ordering`` and ``--h``, parsed in that order, so
    that a bad ordering exits 2 before a bad profile can exit 3."""
    o = _parse_ordering(args.ordering)
    profile = rate_region.EntropyProfile(_numbers(args.h, Fraction))
    return rate_region.build_mld_region(o, profile)


def _labeled_corners(region):
    corners = rate_region.enumerate_corners(region)
    if region.ordering == ordering.L1:
        from . import catalog

        corners = catalog.label_corners(corners, region.profile)
    return corners


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_region(args) -> dict | list:
    region = _region(args)
    if args.emit == "csv":
        return [("tag", "a1", "a2", "a3", "b"),
                *((c.tag, *c.a, c.b) for c in region.constraints)]
    return rate_region.region_json_dict(region, _labeled_corners(region))


def cmd_corners(args) -> dict | list:
    corners = _labeled_corners(_region(args))
    if args.emit == "csv":
        return [("label", "r1", "r2", "r3", "tight"),
                *((c.label or "", *c.rates, "|".join(c.tight))
                  for c in corners)]
    return {"corners": [rate_region.corner_json_dict(c) for c in corners]}


def _template_for(label: str):
    from . import catalog

    try:
        return catalog.TEMPLATES[catalog.template_name_for_label(label)]
    except KeyError:
        raise ValueError(
            f"unknown scheme label {label!r}; choose one of "
            f"{', '.join(catalog.ALL_SCHEME_LABELS)}"
        ) from None


DESCRIPTION_FILES = ("G1.bits", "G2.bits", "G3.bits")


def _read_object(spec: str, what: str) -> dict:
    doc = _loads(_read_text(spec))
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    return doc


def _read_beside(spec: str, name: str) -> bytes:
    """File ``name`` read relative to the directory of the JSON file
    ``spec``; ``Path("-").parent`` is the working directory, for stdin."""
    return (Path(spec).parent / name).read_bytes()


def _field(doc: dict, key: str, what: str, kind: type, count: int = 0):
    """``doc[key]`` as one ``kind``, or as a list of ``count`` of them."""
    val = doc.get(key)
    if count:
        ok = (type(val) is list and len(val) == count
              and all(type(v) is kind for v in val))
        shape = f"a list of {count} {kind.__name__}s"
    else:
        ok = type(val) is kind
        shape = f"a {kind.__name__}"
    if not ok:
        raise ValueError(f"{what} {key!r} must be {shape}, got {val!r}")
    return val


def cmd_encode(args) -> dict:
    from . import codec

    template = _template_for(args.scheme)
    manifest = _read_object(args.manifest, "manifest")
    lengths = _field(manifest, "lengths", "manifest", int, 7)
    streams = _field(manifest, "streams", "manifest", str)
    data = _read_beside(args.manifest, streams)
    # A wrong byte count exits 5 even where the lengths also miss the
    # template's regime (4).
    codec.check_packed(data, sum(lengths))
    scheme = codec.instantiate_scheme(template, lengths)
    files = dict(zip(DESCRIPTION_FILES, codec.encode_packed(scheme, data)))
    sidecar = {"scheme": args.scheme, "lengths": lengths,
               "bits": list(scheme.description_lengths), "files": list(files)}
    _write(args.out, {**files, "sidecar.json": f"{_text(sidecar)}\n".encode()})
    return sidecar


def cmd_decode(args) -> dict:
    from . import codec

    sidecar = _read_object(args.sidecar, "sidecar")
    label = _field(sidecar, "scheme", "sidecar", str)
    lengths = _field(sidecar, "lengths", "sidecar", int, 7)
    bits = _field(sidecar, "bits", "sidecar", int, 3)
    names = _field(sidecar, "files", "sidecar", str, 3)
    scheme = codec.instantiate_scheme(_template_for(label), lengths)
    if list(scheme.description_lengths) != bits:
        raise codec.LengthMismatch(
            f"sidecar bit counts {bits} do not match scheme "
            f"{scheme.description_lengths}"
        )
    subset = args.subset
    if subset not in ordering.SUBSET_MASKS:
        raise ValueError(
            f"unknown decoder subset {subset!r}; expected one of "
            f"{', '.join(ordering.SUBSETS)}"
        )
    available = {}
    for i in ordering.subset_members(subset):
        available[i] = _read_beside(args.sidecar, names[i - 1])
        # Checked before the next file is read, which may not exist.
        codec.check_packed(available[i], bits[i - 1])
    streams = codec.decode_packed(scheme, subset, available)
    files = {f"V{k}.bits": blob for k, blob in enumerate(streams, start=1)}
    _write(args.out, files)
    return {"subset": subset, "level": len(streams),
            "lengths": lengths[:len(streams)], "files": list(files)}


def cmd_md_bounds(args) -> dict | list:
    D = _parse_distortions(args.D)
    bounds = {"inner": gaussian_md.inner_bound(D),
              "outer": gaussian_md.outer_bound(D), "parametric": None}
    if args.d is not None:
        noise = gaussian_md.NoiseParams(_numbers(args.d))
        bounds["parametric"] = gaussian_md.parametric_outer_bound(D, noise)
    if args.emit == "csv":
        return [("set", "tag", "a1", "a2", "a3", "b"),
                *((name, c.tag, *map(float, c.a), float(c.b))
                  for name, bound in bounds.items() if bound is not None
                  for c in bound.constraints)]
    return {
        "normalized": {"D": bounds["inner"].distortions.as_dict()},
        "ordering": bounds["inner"].ordering.index,
        **{name: None if bound is None else gaussian_md.bound_json_dict(bound)
           for name, bound in bounds.items()},
    }


def cmd_gap(args) -> dict | list:
    gaps = gaussian_md.facet_gap(_parse_distortions(args.D)).as_dict()
    if args.emit == "csv":
        return [("family", "gap"),
                *((key, *gap) if type(gap) is list else (key, gap)
                  for key, gap in gaps.items())]
    return gaps


def cmd_check(args) -> dict:
    # A flag of the other mode is a usage error (the defaults are None).
    for flag, mode in (("ordering", "D"), ("which", "h"), ("d", "h"),
                       ("tol", "h")):
        if None not in (getattr(args, flag), getattr(args, mode)):
            args.usage_error(f"argument --{flag}: not allowed with --{mode}")
    tol = gaussian_md.DEFAULT_TOL if args.tol is None else args.tol
    if not 0.0 <= tol < math.inf:
        raise gaussian_md.InvalidFloatInput(
            f"--tol must be finite and non-negative, got {tol}"
        )
    if args.h is not None:
        # Rows 1.1-1.3 (R_i >= H >= 0) imply the axes contains() adds.
        args.ordering = "1" if args.ordering is None else args.ordering
        rows = _region(args).constraints
        rates, tol = _numbers(args.rates, Fraction, 3), 0
    elif args.D is None:
        raise ValueError("check needs either --h (exact region) or --D (bounds)")
    else:
        D = _parse_distortions(args.D)
        # Read even where --which does not use it, as md-bounds reads it.
        noise = None if args.d is None else gaussian_md.NoiseParams(
            _numbers(args.d))
        if args.which == "inner":
            bound = gaussian_md.inner_bound(D)
        elif args.which in (None, "outer"):
            bound = gaussian_md.outer_bound(D)
        elif noise is None:
            raise ValueError("--which parametric requires --d")
        else:
            bound = gaussian_md.parametric_outer_bound(D, noise)
        rows = bound.constraints
        rates = _numbers(args.rates, float, 3)
        if not all(map(math.isfinite, rates)):
            raise gaussian_md.InvalidFloatInput(
                f"rates must be finite, got {rates}")
    tight, violated = rate_region.classify_slacks(rows, rates, tol)
    return {"inside": not violated, "tight": tight, "violated": violated}


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amld3",
        description=(
            "Rate regions, corner-point codecs, and Gaussian distortion "
            "bounds for 3-description multilevel diversity coding."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_region_args(p):
        p.add_argument(
            "--ordering",
            default="1",
            help="ordering id 1..8, inline JSON, a JSON path, or '-' (stdin)",
        )
        p.add_argument(
            "--h",
            required=True,
            help="7 comma-separated layer entropies (exact rationals)",
        )
        p.add_argument("--emit", choices=("json", "csv"), default="json")

    p = sub.add_parser("region", help="constraints and corners of a region")
    add_region_args(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("corners", help="corner points of a region")
    add_region_args(p)
    p.set_defaults(func=cmd_corners)

    p = sub.add_parser("encode", help="encode a source bundle")
    p.add_argument("--scheme", required=True, help="catalog label, e.g. X5")
    p.add_argument(
        "--manifest",
        required=True,
        help="bundle manifest JSON path or '-' (stdin)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode from a subset of descriptions")
    p.add_argument("--sidecar", required=True, help="sidecar JSON path")
    p.add_argument("--subset", required=True, help="decoder subset, e.g. G13")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("md-bounds", help="distortion rate bounds")
    p.add_argument(
        "--D",
        required=True,
        help="7 comma-separated targets (canonical subset order), JSON, or '-'",
    )
    p.add_argument(
        "--d", help="6 or 7 comma-separated non-increasing noise parameters"
    )
    p.add_argument("--emit", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_md_bounds)

    p = sub.add_parser("gap", help="inner/outer facet distances")
    p.add_argument("--D", required=True, help="distortion targets (as md-bounds)")
    p.add_argument("--emit", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("check", help="membership of a rate triple")
    p.add_argument("--rates", required=True, help="3 comma-separated rates")
    p.add_argument("--ordering", help="as for region (with --h; default 1)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--h", help="layer entropies: exact region check")
    mode.add_argument("--D", help="distortion targets: bound check")
    p.add_argument(
        "--which",
        choices=("inner", "outer", "parametric"),
        help="which bound set to check against (with --D; default outer)",
    )
    p.add_argument("--d", help="noise parameters for --which parametric")
    p.add_argument("--tol", type=_number, help="slack tolerance (with --D)")
    p.set_defaults(func=cmd_check, usage_error=p.error)
    return parser


# (exception types, exit code), the first match winning; any other error
# that main catches exits 1.
_EXIT_CODES = (
    (ordering.OrderingError, 2),
    (rate_region.NegativeEntropy, 3),
    ((gaussian_md.DistortionRangeError, gaussian_md.NotNormalized,
      gaussian_md.NonMonotoneNoise, gaussian_md.InvalidFloatInput), 6),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(_text(args.func(args)))
        return 0
    except (ValueError, KeyError, OSError) as err:
        table = _EXIT_CODES
        # The codec's errors are ValueErrors; only encode and decode load it.
        codec = sys.modules.get(f"{__package__}.codec")
        if codec:
            table += (((codec.RegimeMismatch, codec.OddSplit), 4),
                      (codec.LengthMismatch, 5))
        print(f"error: {err}", file=sys.stderr)
        return next((code for types, code in table
                     if isinstance(err, types)), 1)


if __name__ == "__main__":
    raise SystemExit(main())
