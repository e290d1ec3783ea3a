"""Rate regions, corner-point codecs, and Gaussian distortion bounds for
3-description multilevel diversity coding.

The package has three layers over a shared vocabulary,
:mod:`amld3.ordering` (the eight admissible decoder orderings):

* :mod:`amld3.rate_region` — exact polyhedral rate regions, corner
  enumeration, and the L1 corner catalog, read off :mod:`amld3.catalog`;
* :mod:`amld3.codec` — bit-exact encoders/decoders for every catalog
  corner, including the XOR network-coding segments and time sharing;
* :mod:`amld3.gaussian_md` — inner/outer/parametric rate bounds for the
  Gaussian multiple-description problem with constant-gap reporting.

The ``amld3`` console script exposes all of it on the command line.

Only the codec's array API (``encode``, ``decode``, ``SourceBundle``,
``pack_bits``, ...) loads numpy.  The codec's names (``amld3.encode``,
``amld3.TEMPLATES``, ``amld3.codec`` itself, ...) are loaded on first use,
so ``import amld3``, the three analysis layers and the analysis commands of
the CLI (``region``, ``corners``, ``check``, ``md-bounds``, ``gap``) do not
load the codec module; ``encode`` and ``decode`` load it, but replay its
plans on packed bytes, so no CLI command loads numpy.  The scheme templates
(:mod:`amld3.catalog`) load only to label L1 corners, or with the codec.
"""

import importlib
import types

from .ordering import (
    L1,
    SUBSET_MASKS,
    SUBSETS,
    MonotonicityViolated,
    NotBijective,
    Ordering,
    OrderingError,
    SinglesOutOfOrder,
    enumerate_orderings,
    ordering_from_json,
    validate_ordering,
)
from .rate_region import (
    CATALOG_LABELS,
    P_TAGS,
    Q_TAGS,
    CornerPoint,
    EntropyProfile,
    LinearInequality,
    NegativeEntropy,
    RateRegion,
    Regime,
    build_mld_region,
    classify_regime,
    classify_slacks,
    contains,
    corner_json_dict,
    corner_scheme_catalog_L1,
    enumerate_corners,
    label_corners,
    region_json_dict,
    tight_constraints,
)
from .gaussian_md import (
    SUM_RATE_GAP_BOUND,
    BoundSet,
    DistortionRangeError,
    DistortionVector,
    GapReport,
    InvalidFloatInput,
    NoiseParams,
    NonMonotoneNoise,
    NotNormalized,
    bound_json_dict,
    distortions_from_json,
    facet_gap,
    induced_ordering,
    inner_bound,
    md_contains,
    normalize_distortions,
    outer_bound,
    parametric_outer_bound,
    sr_layer_rates,
)

__version__ = "0.1.0"

# Served by ``__getattr__`` below, so that the codec module loads on first use.
_CODEC_NAMES = (
    "ALL_SCHEME_LABELS",
    "TEMPLATES",
    "DescriptionScheme",
    "EncodedDescriptions",
    "LengthMismatch",
    "NonIntegralSplit",
    "OddSplit",
    "Piece",
    "RegimeMismatch",
    "SchemeTemplate",
    "SourceBundle",
    "Unresolvable",
    "Xor",
    "compose_time_share",
    "decode",
    "decode_packed",
    "encode",
    "encode_packed",
    "instantiate_scheme",
    "pack_bits",
    "random_bundle",
    "restrict",
    "template_name_for_label",
    "unpack_bits",
)

# The public names imported above, then the codec's.
__all__ = [
    *(n for n, v in globals().items()
      if not n.startswith("_") and not isinstance(v, types.ModuleType)),
    *_CODEC_NAMES,
]


def __getattr__(name: str):
    if name != "codec" and name not in _CODEC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    codec = importlib.import_module(".codec", __name__)
    globals().update((n, getattr(codec, n)) for n in _CODEC_NAMES)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_CODEC_NAMES, "codec"})
