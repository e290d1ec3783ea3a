"""Decoder orderings for the 3-description multilevel diversity setup.

Seven decoders are indexed by the nonempty subsets of the three descriptions:

    G1, G2, G3, G12, G13, G23, G123

(G12 is the decoder that receives descriptions 1 and 2, and so on).  An
*ordering* assigns each decoder a distinct level 1..7 — the number of source
streams it must reproduce — subject to two axioms:

  (i)  level(G1) < level(G2) < level(G3): single descriptions are ranked
       by increasing reproduction quality;
  (ii) S strictly contained in T implies level(S) < level(T): receiving more
       descriptions can only help.

Both axioms are written once, as the (earlier, later) subset pairs of
``_AXIOM_PAIRS``.  The eight assignments that satisfy them are built once
from those pairs; :func:`enumerate_orderings` lists them in a fixed
documented order, with the fully alternating ordering
L1 = (G1, G2, G3, G12, G13, G23, G123) first.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator, Mapping

SUBSETS: tuple[str, ...] = ("G1", "G2", "G3", "G12", "G13", "G23", "G123")
"""All decoder subsets in canonical order (by size, then description index)."""

SUBSET_MASKS: Mapping[str, int] = {
    "G1": 1, "G2": 2, "G3": 4, "G12": 3, "G13": 5, "G23": 6, "G123": 7,
}
"""Bitmask of each subset: description i contributes bit i-1."""

_MASK_TO_SUBSET = {m: s for s, m in SUBSET_MASKS.items()}


class OrderingError(ValueError):
    """Base class for invalid ordering assignments."""


class NotBijective(OrderingError):
    """The assignment is not a bijection from the 7 subsets onto 1..7."""


class SinglesOutOfOrder(OrderingError):
    """The single-description levels do not satisfy L(G1) < L(G2) < L(G3)."""


class MonotonicityViolated(OrderingError):
    """Some subset pair S < T has level(S) >= level(T)."""

    def __init__(self, small: str, large: str, ls: int, lt: int):
        self.offending = (small, large)
        super().__init__(
            f"{small} is contained in {large} but has level {ls} >= {lt}"
        )


def subset_members(subset: str) -> tuple[int, ...]:
    """Description indices (1-based) contained in the subset."""
    mask = SUBSET_MASKS[subset]
    return tuple(i for i in (1, 2, 3) if mask & (1 << (i - 1)))


def union(a: str, b: str) -> str:
    """Name of the union of two subsets."""
    return _MASK_TO_SUBSET[SUBSET_MASKS[a] | SUBSET_MASKS[b]]


_CHAIN = (("G1", "G2"), ("G2", "G3"))
_AXIOM_PAIRS = _CHAIN + tuple(
    (s, t) for s in SUBSETS for t in SUBSETS if s != t and union(s, t) == t
)
"""The axioms as (earlier, later) pairs: the chain (i), then every proper
containment (ii), in canonical order."""


def _is_bijective(levels: Mapping[str, int]) -> bool:
    """Whether ``levels`` maps the 7 subsets one-to-one onto 1..7."""
    try:
        values = sorted(levels.values())
    except TypeError:  # a level not comparable with an int is no level
        return False
    return set(levels.keys()) == set(SUBSETS) and values == list(range(1, 8))


def _check_levels(levels: Mapping[str, int]) -> None:
    """Raise for the first failed axiom: bijectivity, then each pair."""
    if not _is_bijective(levels):
        raise NotBijective(
            "an ordering must assign each of the 7 decoder subsets a "
            f"distinct level in 1..7, got {dict(levels)!r}"
        )
    for small, large in _AXIOM_PAIRS:
        if levels[small] < levels[large]:
            continue
        if (small, large) in _CHAIN:
            raise SinglesOutOfOrder(
                "single-description levels must satisfy "
                f"L(G1) < L(G2) < L(G3), got {levels['G1']}, "
                f"{levels['G2']}, {levels['G3']}"
            )
        raise MonotonicityViolated(small, large, levels[small], levels[large])


def _linear_extensions(placed: tuple = ()) -> Iterator[tuple[str, ...]]:
    """Every level sequence that puts each axiom pair in order, extending
    ``placed``.  Each level tries the subsets in canonical order, so the
    sequences come out lexicographic in canonical subset index."""
    if len(placed) == len(SUBSETS):
        yield placed
    for s in SUBSETS:
        ready = all(a in placed for a, b in _AXIOM_PAIRS if b == s)
        if ready and s not in placed:
            yield from _linear_extensions(placed + (s,))


class Ordering(namedtuple("Ordering", "by_level")):
    """An admissible level assignment, stored as the subset at each level.

    ``by_level[k-1]`` is the subset whose decoder reproduces streams
    1..k.  Instances are immutable, hashable, and validated on construction.
    """

    __slots__ = ()

    def __new__(cls, by_level: tuple[str, ...]) -> Ordering:
        if len(by_level) != 7:
            raise NotBijective(f"expected 7 subsets, got {len(by_level)}")
        self = super().__new__(cls, by_level)
        _check_levels(self.levels)
        return self

    @property
    def levels(self) -> dict[str, int]:
        """Mapping subset name -> level."""
        return {s: i + 1 for i, s in enumerate(self.by_level)}

    @property
    def index(self) -> int:
        """Stable identifier 1..8 (position in :func:`enumerate_orderings`)."""
        return _INDEX[self.by_level]

    def level_of(self, subset: str) -> int:
        """Level assigned to a decoder subset."""
        if subset not in SUBSET_MASKS:
            raise KeyError(f"unknown decoder subset {subset!r}")
        return self.by_level.index(subset) + 1

    def __str__(self) -> str:
        return "<" + ", ".join(self.by_level) + ">"


# The eight admissible orderings, by level sequence and in documented order.
_BY_LEVEL = {seq: Ordering(seq) for seq in _linear_extensions()}
_ORDERINGS = tuple(_BY_LEVEL.values())
_INDEX = {seq: i for i, seq in enumerate(_BY_LEVEL, start=1)}


def validate_ordering(assignment: Mapping[str, int]) -> Ordering:
    """The :class:`Ordering` of a subset -> level mapping.

    Raises :class:`NotBijective`, :class:`SinglesOutOfOrder`, or
    :class:`MonotonicityViolated` on the first failed axiom.
    """
    found = None
    if _is_bijective(assignment):
        found = _BY_LEVEL.get(tuple(sorted(assignment, key=assignment.get)))
    if found is None:
        _check_levels(assignment)  # a miss fails an axiom: name it
    return found


def enumerate_orderings() -> tuple[Ordering, ...]:
    """All admissible orderings in the documented order (L1 first).

    The order is lexicographic in the canonical subset indices of the level
    sequence.  The eight rows are built once per process, as the linear
    extensions of the axiom pairs; :func:`validate_ordering` and
    :func:`ordering_from_json` return these same instances.
    """
    return _ORDERINGS


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise NotBijective(f"{what} must be an integer, got {value!r}")
    return value


def ordering_from_json(obj: Mapping) -> Ordering:
    """Parse an ordering from its JSON forms.

    Accepts ``{"levels": {"G1": 1, ...}}`` or the shorthand
    ``{"ordering": n}`` with n in 1..8.  Levels and the index must be JSON
    integers; anything else (floats, strings, booleans, null) raises
    :class:`NotBijective`.
    """
    if not isinstance(obj, Mapping):
        raise NotBijective("an ordering must be a JSON object")
    if "levels" in obj:
        levels = obj["levels"]
        if not isinstance(levels, Mapping):
            raise NotBijective("'levels' must be an object of subset: level")
        return validate_ordering(
            {str(k): _json_int(v, f"level of {k}") for k, v in levels.items()}
        )
    if "ordering" in obj:
        n = _json_int(obj["ordering"], "ordering index")
        rows = enumerate_orderings()
        if not 1 <= n <= len(rows):
            raise NotBijective(f"ordering index must be 1..{len(rows)}, got {n}")
        return rows[n - 1]
    raise NotBijective("expected a 'levels' mapping or an 'ordering' index")


L1: Ordering = _BY_LEVEL[("G1", "G2", "G3", "G12", "G13", "G23", "G123")]
"""The fully alternating ordering (first row of :func:`enumerate_orderings`)."""
