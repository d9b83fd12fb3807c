"""Subspace algebra on bitmasks.

A *subspace* of a ``d``-dimensional space is a non-empty subset of the
dimension indices ``{0, .., d-1}``. HOS-Miner explores the lattice of all
``2**d - 1`` non-empty subspaces, so the representation must make the
lattice operations (subset tests, subset/superset enumeration, level
queries) cheap.

Internally every subspace is an ``int`` bitmask: bit ``i`` set means
dimension ``i`` participates. The public value type :class:`Subspace`
wraps a mask together with the width ``d`` of the ambient space and is
hashable, ordered and immutable, so it can be used in sets, dict keys
and sorted output.

The paper prints subspaces in 1-based bracket notation (``[1, 3]`` for
dimensions 0 and 2); :meth:`Subspace.notation` reproduces that format.

Hot loops in :mod:`repro.core.lattice` and :mod:`repro.core.search`
operate on raw masks via the module-level functions below; the wrapper
only appears at API boundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.exceptions import DimensionalityError

__all__ = [
    "Subspace",
    "all_masks",
    "dims_of_mask",
    "full_mask",
    "is_proper_subset",
    "is_subset",
    "iter_proper_submasks",
    "iter_proper_supermasks",
    "iter_submasks",
    "iter_supermasks",
    "mask_of_dims",
    "masks_at_level",
    "order_key",
    "ordered_masks",
    "popcount",
    "popcounts",
]


def popcount(mask: int) -> int:
    """Number of set bits in *mask* (the dimensionality of the subspace)."""
    return mask.bit_count()


def popcounts(masks: np.ndarray) -> np.ndarray:
    """Number of set bits of every mask in an array of non-negative masks
    below ``2**64`` (SWAR, vectorised), as ``uint8``."""
    v = np.asarray(masks).astype(np.uint64)
    v = v - ((v >> 1) & 0x5555555555555555)
    v = (v & 0x3333333333333333) + ((v >> 2) & 0x3333333333333333)
    v = (v + (v >> 4)) & 0x0F0F0F0F0F0F0F0F
    return ((v * 0x0101010101010101) >> 56).astype(np.uint8)


def full_mask(d: int) -> int:
    """Mask of the full ``d``-dimensional space."""
    if d <= 0:
        raise DimensionalityError(f"ambient dimensionality must be positive, got {d}")
    return (1 << d) - 1


def mask_of_dims(dims: Iterable[int], d: int | None = None) -> int:
    """Build a mask from an iterable of 0-based dimension indices.

    When *d* is given, every index is validated against ``range(d)``.
    """
    mask = 0
    for dim in dims:
        if dim < 0 or (d is not None and dim >= d):
            raise DimensionalityError(
                f"dimension index {dim} out of range for d={d}"
            )
        mask |= 1 << dim
    return mask


def dims_of_mask(mask: int) -> tuple[int, ...]:
    """Sorted tuple of 0-based dimension indices present in *mask*."""
    dims = []
    while mask:
        low = mask & -mask
        dims.append(low.bit_length() - 1)
        mask ^= low
    return tuple(dims)


def is_subset(inner: int, outer: int) -> bool:
    """``True`` when every dimension of *inner* is also in *outer*."""
    return inner & ~outer == 0


def is_proper_subset(inner: int, outer: int) -> bool:
    """``True`` when *inner* ⊂ *outer* strictly."""
    return inner != outer and inner & ~outer == 0


def iter_submasks(mask: int) -> Iterator[int]:
    """Yield every non-empty submask of *mask*, including *mask* itself.

    Uses the classic ``sub = (sub - 1) & mask`` walk, which visits each of
    the ``2**m - 1`` non-empty submasks exactly once in decreasing order.
    """
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def iter_proper_submasks(mask: int) -> Iterator[int]:
    """Yield every non-empty *proper* submask of *mask*."""
    sub = (mask - 1) & mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def iter_supermasks(mask: int, d: int) -> Iterator[int]:
    """Yield every supermask of *mask* within a ``d``-wide space, inclusive."""
    complement = full_mask(d) & ~mask
    sub = complement
    # Walk submasks of the complement (including 0) and OR them in.
    while True:
        yield mask | sub
        if sub == 0:
            return
        sub = (sub - 1) & complement


def iter_proper_supermasks(mask: int, d: int) -> Iterator[int]:
    """Yield every *proper* supermask of *mask* within a ``d``-wide space."""
    for sup in iter_supermasks(mask, d):
        if sup != mask:
            yield sup


def masks_at_level(d: int, m: int) -> list[int]:
    """All masks of dimensionality *m* inside a ``d``-wide space.

    Returned in lexicographic order of the underlying dimension tuples,
    which makes test output and bench tables deterministic.
    """
    if not 0 <= m <= d:
        raise DimensionalityError(f"level {m} out of range for d={d}")
    return [mask_of_dims(combo) for combo in itertools.combinations(range(d), m)]


def all_masks(d: int) -> Iterator[int]:
    """Yield every non-empty mask of a ``d``-wide space (1 .. 2**d - 1)."""
    return iter(range(1, 1 << d))


def order_key(mask: int, d: int) -> int:
    """Integer sort key of *mask* in :class:`Subspace` order: by level,
    then by the ascending dims tuple.

    Of two same-level masks, the one with the lexicographically smaller
    dims tuple holds the lowest bit in which they differ, so its
    ``d``-bit reversal is the larger; the key takes that reversal's
    complement below the level.
    """
    reversal = int(f"{mask:0{d}b}"[::-1], 2)
    return mask.bit_count() << d | (full_mask(d) ^ reversal)


def ordered_masks(masks: Iterable[int], d: int) -> list[int]:
    """*masks* sorted as their :class:`Subspace` wrappers sort, with one
    :func:`order_key` per mask instead of a wrapper comparison per pair."""
    return sorted(masks, key=lambda mask: order_key(mask, d))


@dataclass(frozen=True, slots=True)
class Subspace:
    """An immutable subspace of a ``d``-dimensional ambient space.

    Parameters
    ----------
    mask:
        Bitmask of participating dimensions; must be non-zero and must
        fit inside ``d`` bits.
    d:
        Width of the ambient space.

    Examples
    --------
    >>> s = Subspace.from_dims([0, 2], d=4)
    >>> s.dims
    (0, 2)
    >>> s.notation()
    '[1, 3]'
    >>> s.is_subset_of(Subspace.from_dims([0, 1, 2], d=4))
    True
    """

    mask: int
    d: int

    def __post_init__(self) -> None:
        if self.d <= 0:
            raise DimensionalityError(f"ambient dimensionality must be positive, got {self.d}")
        if self.mask <= 0:
            raise DimensionalityError("a subspace must contain at least one dimension")
        if self.mask >= (1 << self.d):
            raise DimensionalityError(
                f"mask {self.mask:#x} does not fit in a {self.d}-dimensional space"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dims(cls, dims: Iterable[int], d: int) -> "Subspace":
        """Build from 0-based dimension indices."""
        return cls(mask_of_dims(dims, d), d)

    @classmethod
    def from_dims_1based(cls, dims: Iterable[int], d: int) -> "Subspace":
        """Build from 1-based indices, as printed in the paper (``[1, 3]``)."""
        return cls.from_dims((dim - 1 for dim in dims), d)

    @classmethod
    def full(cls, d: int) -> "Subspace":
        """The full space — the top element of the lattice."""
        return cls(full_mask(d), d)

    # -- structure ------------------------------------------------------
    @property
    def dims(self) -> tuple[int, ...]:
        """Sorted tuple of 0-based dimension indices."""
        return dims_of_mask(self.mask)

    @property
    def dimensionality(self) -> int:
        """Number of participating dimensions (the lattice level ``m``)."""
        return popcount(self.mask)

    def __len__(self) -> int:
        return self.dimensionality

    def __contains__(self, dim: int) -> bool:
        return 0 <= dim < self.d and bool(self.mask >> dim & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    # -- lattice relations ----------------------------------------------
    def is_subset_of(self, other: "Subspace") -> bool:
        """``True`` when ``self ⊆ other`` (same ambient space required)."""
        self._check_same_space(other)
        return is_subset(self.mask, other.mask)

    def is_superset_of(self, other: "Subspace") -> bool:
        """``True`` when ``self ⊇ other``."""
        self._check_same_space(other)
        return is_subset(other.mask, self.mask)

    def union(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both operands (lattice join)."""
        self._check_same_space(other)
        return Subspace(self.mask | other.mask, self.d)

    def intersection(self, other: "Subspace") -> "Subspace | None":
        """Largest common subspace (lattice meet); ``None`` when disjoint."""
        self._check_same_space(other)
        meet = self.mask & other.mask
        return Subspace(meet, self.d) if meet else None

    def subsets(self, proper: bool = True) -> Iterator["Subspace"]:
        """Iterate (proper, by default) non-empty subsets."""
        masks = iter_proper_submasks(self.mask) if proper else iter_submasks(self.mask)
        return (Subspace(mask, self.d) for mask in masks)

    def supersets(self, proper: bool = True) -> Iterator["Subspace"]:
        """Iterate (proper, by default) supersets within the ambient space."""
        masks = (
            iter_proper_supermasks(self.mask, self.d)
            if proper
            else iter_supermasks(self.mask, self.d)
        )
        return (Subspace(mask, self.d) for mask in masks)

    def project(self, row: Sequence[float]) -> tuple[float, ...]:
        """Project a length-``d`` vector onto this subspace's dimensions."""
        if len(row) != self.d:
            raise DimensionalityError(
                f"cannot project a length-{len(row)} vector in a d={self.d} space"
            )
        return tuple(row[dim] for dim in self.dims)

    # -- rendering / ordering --------------------------------------------
    def notation(self) -> str:
        """The paper's 1-based bracket notation, e.g. ``'[1, 3]'``."""
        return "[" + ", ".join(str(dim + 1) for dim in self.dims) + "]"

    def __repr__(self) -> str:
        return f"Subspace({list(self.dims)}, d={self.d})"

    def __lt__(self, other: "Subspace") -> bool:
        """Order by level first, then lexicographically — the output order
        used everywhere in result listings."""
        self._check_same_space(other)
        return (self.dimensionality, self.dims) < (other.dimensionality, other.dims)

    def _check_same_space(self, other: "Subspace") -> None:
        if self.d != other.d:
            raise DimensionalityError(
                f"subspaces live in different ambient spaces (d={self.d} vs d={other.d})"
            )
