"""Rate regions, corner-point codecs, and Gaussian distortion bounds for
3-description multilevel diversity coding.

The package has three layers over a shared vocabulary,
:mod:`amld3.ordering` (the eight admissible decoder orderings):

* :mod:`amld3.rate_region` — exact polyhedral rate regions and corner
  enumeration, and with :mod:`amld3.catalog` the L1 corner catalog, read
  off the scheme templates;
* :mod:`amld3.codec` — bit-exact encoders/decoders for every catalog
  corner, including the XOR network-coding segments and time sharing;
* :mod:`amld3.gaussian_md` — inner/outer/parametric rate bounds for the
  Gaussian multiple-description problem with constant-gap reporting.

The ``amld3`` console script exposes all of it on the command line.

Only the codec's array API (``encode``, ``decode``, ``SourceBundle``,
``pack_bits``, ...) loads numpy.  The names of :mod:`amld3.catalog`
(``amld3.TEMPLATES``, ``amld3.label_corners``, ...) and of
:mod:`amld3.codec` (``amld3.encode``, ...), and the two modules themselves,
are loaded on first use.  So ``import amld3``, the three analysis layers and
the analysis commands of the CLI (``region``, ``corners``, ``check``,
``md-bounds``, ``gap``) do not load the codec module; ``encode`` and
``decode`` load it, but replay its plans on packed bytes, so no CLI command
loads numpy.  The catalog loads only to label L1 corners, or where a scheme
is looked up by label.
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
    P_TAGS,
    Q_TAGS,
    CornerPoint,
    EntropyProfile,
    LinearInequality,
    NegativeEntropy,
    RateRegion,
    build_mld_region,
    classify_regime,
    classify_slacks,
    contains,
    corner_json_dict,
    enumerate_corners,
    region_json_dict,
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

# Served by ``__getattr__`` below: each module loads on first use of a name.
_LAZY = {
    "catalog": (
        "ALL_SCHEME_LABELS", "CATALOG_LABELS", "SchemeTemplate", "TEMPLATES",
        "label_corners", "template_name_for_label",
    ),
    "codec": (
        "DescriptionScheme", "EncodedDescriptions", "LengthMismatch",
        "NonIntegralSplit", "OddSplit", "Piece", "RegimeMismatch",
        "SourceBundle", "Unresolvable", "Xor", "compose_time_share", "decode",
        "decode_packed", "encode", "encode_packed", "instantiate_scheme",
        "pack_bits", "random_bundle", "restrict", "unpack_bits",
    ),
}
_OWNER = {n: module for module, names in _LAZY.items() for n in names}

# The public names imported above, then the lazily loaded ones.
__all__ = [
    *(n for n, v in globals().items()
      if not n.startswith("_") and not isinstance(v, types.ModuleType)),
    *_OWNER,
]


def __getattr__(name: str):
    module = name if name in _LAZY else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    globals().update((n, getattr(mod, n)) for n in _LAZY[module])
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER, *_LAZY})
