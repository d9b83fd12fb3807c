"""Materialised subspace-lattice state for one search run.

The dynamic subspace search needs, at every step:

* the status of each of the ``2**d - 1`` non-empty subspaces
  (unevaluated, evaluated-outlying, evaluated-non-outlying,
  pruned-outlying, pruned-non-outlying);
* fast bulk transitions "prune all subsets of s" / "prune all supersets
  of s";
* the per-level remaining workload sums ``C_down_left(m)`` and
  ``C_up_left(m)`` feeding ``f_down`` / ``f_up`` in the TSF formula.

A flat ``int8`` array indexed by bitmask provides all three. Memory is
``2**d`` bytes, so the width guard :data:`MAX_LATTICE_DIM` (20 → 1 MiB)
keeps accidental huge allocations out; the 2004 system targeted the same
"tens of dimensions" regime.

The transitions work a whole level per call: a search step marks its
outlying masks and prunes the union of their superset cones, then marks
its non-outlying masks and prunes the union of their subset cones — a
few numpy calls per level instead of a Python call chain per subspace.
One mask's cone is one vectorised subset test over the ``2**d`` masks;
a level's cone union is a ``d``-pass closure over a packed bitset of
them.

The lattice is *search-agnostic*: it never computes OD values, it only
records decisions, so the naive baselines in
:mod:`repro.baselines.naive_search` reuse it unchanged.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from repro.core.exceptions import DimensionalityError
from repro.core.subspace import masks_at_level, popcount, popcounts

__all__ = ["SubspaceState", "SubspaceLattice", "MAX_LATTICE_DIM"]

#: Hard cap on the materialised lattice width; beyond this the state array
#: alone would exceed a mebibyte and submask enumeration becomes the real
#: bottleneck anyway.
MAX_LATTICE_DIM = 20


class SubspaceState(IntEnum):
    """Lifecycle of one subspace inside a search run."""

    UNKNOWN = 0
    #: OD was computed and found ``>= T``.
    EVALUATED_OUTLYING = 1
    #: OD was computed and found ``< T``.
    EVALUATED_NON_OUTLYING = 2
    #: Inferred outlying via upward pruning (a subset was outlying).
    PRUNED_OUTLYING = 3
    #: Inferred non-outlying via downward pruning (a superset was not).
    PRUNED_NON_OUTLYING = 4


_OUTLYING_STATES = (SubspaceState.EVALUATED_OUTLYING, SubspaceState.PRUNED_OUTLYING)

# Hoisted enum values: the pruning inner loops and per-evaluation state
# checks compare / assign raw int8 entries, and attribute access on an
# IntEnum class costs a dict lookup plus descriptor call per use —
# measurable at 2**d scale and in the per-mask hot path.
_UNKNOWN = int(SubspaceState.UNKNOWN)
_EVALUATED_OUTLYING = int(SubspaceState.EVALUATED_OUTLYING)
_EVALUATED_NON_OUTLYING = int(SubspaceState.EVALUATED_NON_OUTLYING)
_PRUNED_OUTLYING = int(SubspaceState.PRUNED_OUTLYING)
_PRUNED_NON_OUTLYING = int(SubspaceState.PRUNED_NON_OUTLYING)

#: Per-d and per-(d, m) cached arrays shared by every lattice instance.
#: They are built once per process and never written after that.
_MASKS_CACHE: dict[int, np.ndarray] = {}
_LEVELS_CACHE: dict[int, np.ndarray] = {}
_LEVEL_MASKS_CACHE: dict[tuple[int, int], np.ndarray] = {}

#: In-word closure masks: bit ``p`` of ``_LOW_BITS[i]`` is set when bit
#: ``i`` of the position ``p`` (0..63) is clear.
_LOW_BITS = [
    np.uint64(word)
    for word in (
        0x5555555555555555,
        0x3333333333333333,
        0x0F0F0F0F0F0F0F0F,
        0x00FF00FF00FF00FF,
        0x0000FFFF0000FFFF,
        0x00000000FFFFFFFF,
    )
]


def _masks_array(d: int) -> np.ndarray:
    """``np.arange(2**d)`` as uint32, cached per dimensionality."""
    arr = _MASKS_CACHE.get(d)
    if arr is None:
        arr = np.arange(1 << d, dtype=np.uint32)
        _MASKS_CACHE[d] = arr
    return arr


def _levels_array(d: int) -> np.ndarray:
    """Popcount of every mask in ``range(2**d)``, cached per dimensionality."""
    arr = _LEVELS_CACHE.get(d)
    if arr is None:
        arr = popcounts(_masks_array(d))
        _LEVELS_CACHE[d] = arr
    return arr


def _level_masks(d: int, m: int) -> np.ndarray:
    """The level-``m`` masks of a ``d``-wide space, in
    :func:`~repro.core.subspace.masks_at_level` order, cached per ``(d, m)``.

    The order is part of the search's behaviour: the per-evaluation
    re-selection mode evaluates a level's masks in it.
    """
    arr = _LEVEL_MASKS_CACHE.get((d, m))
    if arr is None:
        arr = np.array(masks_at_level(d, m), dtype=np.intp)
        arr.flags.writeable = False
        _LEVEL_MASKS_CACHE[(d, m)] = arr
    return arr


class SubspaceLattice:
    """Mutable state of every non-empty subspace of a ``d``-wide space.

    Parameters
    ----------
    d:
        Ambient dimensionality, ``1 <= d <= MAX_LATTICE_DIM``.

    Notes
    -----
    All mutating operations keep two aggregates exact:

    * ``remaining_count[m]`` — number of UNKNOWN subspaces at level ``m``;
    * ``remaining_workload[m] = remaining_count[m] * m`` — their summed
      dimensionalities, the building block of ``C_down_left`` /
      ``C_up_left``.

    The transitions :meth:`mark_evaluated`, :meth:`prune_supersets` and
    :meth:`prune_subsets` take one mask or a sequence of same-level
    masks. Masks on one level cannot prune one another, and upward and
    downward pruning touch disjoint levels, so a level-wide call leaves
    exactly the state the one-mask-at-a-time sequence leaves, and a
    pruning call returns the size of the union of the masks' cones.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise DimensionalityError(f"ambient dimensionality must be >= 1, got {d}")
        if d > MAX_LATTICE_DIM:
            raise DimensionalityError(
                f"d={d} exceeds the materialised-lattice cap of {MAX_LATTICE_DIM}; "
                "reduce the dimensionality (e.g. by feature selection) or use the "
                "naive frontier search for spot checks"
            )
        self.d = d
        self._state = np.zeros(1 << d, dtype=np.int8)
        self._full_mask = (1 << d) - 1
        from math import comb

        self._level_sizes = [comb(d, m) for m in range(d + 1)]
        self._remaining_count = list(self._level_sizes)
        self._remaining_count[0] = 0  # the empty subspace is not searched
        self._outlying_decided = [0] * (d + 1)

    # -- queries ---------------------------------------------------------
    def state(self, mask: int) -> SubspaceState:
        """Current state of one subspace."""
        self._check_mask(mask)
        return SubspaceState(int(self._state[mask]))

    def is_unknown(self, mask: int) -> bool:
        return self._state[mask] == _UNKNOWN

    def is_outlying(self, mask: int) -> bool:
        """Whether the subspace is known outlying (evaluated or inferred)."""
        return int(self._state[mask]) in (_EVALUATED_OUTLYING, _PRUNED_OUTLYING)

    def has_unknown(self) -> bool:
        """Whether any subspace still awaits a decision."""
        return any(self._remaining_count)

    def remaining_count(self, m: int) -> int:
        """Number of UNKNOWN subspaces at level ``m``."""
        return self._remaining_count[m]

    def remaining_workload_below(self, m: int) -> int:
        """``C_down_left(m)``: Σ dim(s) over UNKNOWN s with dim(s) < m."""
        return sum(i * self._remaining_count[i] for i in range(1, m))

    def remaining_workload_above(self, m: int) -> int:
        """``C_up_left(m)``: Σ dim(s) over UNKNOWN s with dim(s) > m."""
        return sum(i * self._remaining_count[i] for i in range(m + 1, self.d + 1))

    def remaining_workloads(self) -> list[int]:
        """Prefix sums of the remaining workload, for every level at once.

        Entry ``m`` (``0 <= m <= d + 1``) is Σ dim(s) over UNKNOWN s with
        dim(s) < m, so ``C_down_left(m)`` is entry ``m`` and
        ``C_up_left(m)`` is entry ``d + 1`` minus entry ``m + 1``.
        """
        return list(
            accumulate(
                (m * count for m, count in enumerate(self._remaining_count)), initial=0
            )
        )

    def levels_with_unknown(self) -> list[int]:
        """Levels that still contain UNKNOWN subspaces, ascending."""
        return [m for m in range(1, self.d + 1) if self._remaining_count[m] > 0]

    def decided_stats(self, m: int) -> tuple[int, int]:
        """``(decided, outlying)`` counts at level ``m`` — the evidence the
        adaptive-prior extension blends into ``p_up(m)``."""
        decided = self._level_sizes[m] - self._remaining_count[m]
        return decided, self._outlying_decided[m]

    def decided_stats_total(self) -> tuple[int, int]:
        """``(decided, outlying)`` counts across the whole lattice."""
        decided = sum(self._level_sizes[1:]) - sum(self._remaining_count)
        outlying = sum(self._outlying_decided[1:])
        return decided, outlying

    def unknown_masks_at_level(self, m: int) -> list[int]:
        """Snapshot of the UNKNOWN masks at level ``m``, as Python ints in
        :func:`~repro.core.subspace.masks_at_level` order."""
        masks = _level_masks(self.d, m)
        return masks[self._state[masks] == _UNKNOWN].tolist()

    def first_unknown_at_level(self, m: int, cursor: int = 0) -> tuple[int, int]:
        """First UNKNOWN mask at level ``m`` at or after position *cursor*.

        Returns ``(mask, position)``, or ``(-1, len)`` when the level is
        exhausted. Because states only ever move away from UNKNOWN, a
        caller may carry the returned position forward as the next
        cursor — the basis of the O(1)-amortised scan used by the
        per-evaluation re-selection mode.
        """
        masks = _level_masks(self.d, m)
        position = cursor
        while position < len(masks):
            if self._state[masks[position]] == _UNKNOWN:
                return int(masks[position]), position
            position += 1
        return -1, position

    # -- transitions -------------------------------------------------------
    def mark_evaluated(self, masks: "int | Sequence[int]", outlying: bool) -> None:
        """Record the result of actual OD computations.

        *masks* is one mask, or a sequence of distinct UNKNOWN masks of
        one level that share the verdict *outlying*.
        """
        masks, level = self._as_level(masks)
        if masks is None:
            return
        state = self._state
        if isinstance(masks, int):
            decided = masks if state[masks] != _UNKNOWN else None
            count = 1
        else:
            undecided = state[masks] == _UNKNOWN
            decided = None if undecided.all() else int(masks[~undecided][0])
            count = masks.size
            ordered = np.sort(masks)
            if decided is None and (ordered[1:] == ordered[:-1]).any():
                raise DimensionalityError("a level-wide mark_evaluated repeats a subspace")
        if decided is not None:
            raise DimensionalityError(
                f"subspace {decided:#x} was already decided ({self.state(decided).name})"
            )
        state[masks] = _EVALUATED_OUTLYING if outlying else _EVALUATED_NON_OUTLYING
        self._remaining_count[level] -= count
        if outlying:
            self._outlying_decided[level] += count

    def prune_supersets(self, masks: "int | Sequence[int]") -> int:
        """Upward pruning: mark every UNKNOWN proper superset outlying.

        *masks* is one mask or a sequence of same-level masks. Returns
        the number of subspaces newly decided.
        """
        masks, level = self._as_level(masks)
        # Cheap guard: when every higher level is already decided, no
        # superset is left to prune.
        if masks is None or not any(self._remaining_count[level + 1 :]):
            return 0
        return self._settle(self._cones(masks, upward=True), _PRUNED_OUTLYING)

    def prune_subsets(self, masks: "int | Sequence[int]") -> int:
        """Downward pruning: mark every UNKNOWN proper subset non-outlying.

        *masks* is one mask or a sequence of same-level masks. Returns
        the number of subspaces newly decided.
        """
        masks, level = self._as_level(masks)
        # Mirror guard of prune_supersets.
        if masks is None or not any(self._remaining_count[1:level]):
            return 0
        if isinstance(masks, int) and masks == self._full_mask:
            return self._prune_below_full()
        return self._settle(self._cones(masks, upward=False), _PRUNED_NON_OUTLYING)

    # -- results -----------------------------------------------------------
    def outlying_masks(self) -> list[int]:
        """Every subspace known outlying, as raw masks (unspecified order)."""
        if not any(self._outlying_decided):
            return []
        states = self._state
        outlying = np.flatnonzero(
            (states == _EVALUATED_OUTLYING) | (states == _PRUNED_OUTLYING)
        )
        return outlying.tolist()

    def iter_states(self) -> Iterator[tuple[int, SubspaceState]]:
        """Yield ``(mask, state)`` for every non-empty subspace."""
        for mask in range(1, 1 << self.d):
            yield mask, SubspaceState(int(self._state[mask]))

    def level_outlying_fraction(self, m: int) -> float:
        """Fraction of level-``m`` subspaces known outlying.

        Only meaningful once the search has finished (no UNKNOWN left at
        the level); used by the sample-based learning pass to turn one
        sample search into ``p_up(m, sp)``.
        """
        return self._outlying_decided[m] / self._level_sizes[m]

    def counts_by_state(self) -> dict[SubspaceState, int]:
        """Histogram of subspace states (excluding the empty subspace)."""
        values, counts = np.unique(self._state[1:], return_counts=True)
        histogram = {state: 0 for state in SubspaceState}
        for value, count in zip(values, counts):
            histogram[SubspaceState(int(value))] = int(count)
        return histogram

    # -- internals -----------------------------------------------------------
    def _as_level(
        self, masks: "int | Sequence[int]"
    ) -> "tuple[int | np.ndarray | None, int]":
        """``(masks, level)`` for one mask or a sequence of same-level masks.

        One mask comes back as a Python int, checked without any numpy
        set-up; two or more as an ``intp`` array; none as ``None``.
        """
        if not isinstance(masks, (int, np.integer)):
            if len(masks) > 1:
                array = np.asarray(masks, dtype=np.intp)
                if array.ndim != 1 or array.min() < 1 or array.max() > self._full_mask:
                    raise DimensionalityError(
                        f"masks in [{int(array.min()):#x}, {int(array.max()):#x}] are not "
                        f"all non-empty subspaces of a d={self.d} space"
                    )
                levels = _levels_array(self.d)[array]
                if (levels != levels[0]).any():
                    raise DimensionalityError(
                        "a level-wide call needs masks of one dimensionality, got "
                        f"levels {sorted(set(levels.tolist()))}"
                    )
                return array, int(levels[0])
            if len(masks) == 0:
                return None, 0
            masks = masks[0]
        mask = int(masks)
        self._check_mask(mask)
        return mask, popcount(mask)

    def _cones(self, masks: "int | np.ndarray", upward: bool) -> np.ndarray:
        """Selector of every proper superset (*upward*) or non-empty proper
        subset of *masks*, whatever its state.

        One mask is one vectorised subset test over the ``2**d`` masks. A
        level of masks runs the ``d``-pass closure over a bitset of the
        ``2**d`` masks, packed 64 to a word: the first six passes shift
        within words, the rest OR whole words, and the union of every cone
        comes out at once.
        """
        d = self.d
        if isinstance(masks, int):
            every = _masks_array(d)
            if upward:
                selected = (every & masks) == masks
            else:
                selected = (every & (self._full_mask ^ masks)) == 0
        else:
            size = 1 << d
            bits = np.zeros(max(size, 64), dtype=bool)
            bits[masks] = True
            words = np.packbits(bits, bitorder="little").view("<u8")
            for bit in range(min(d, 6)):
                shift = np.uint64(1 << bit)
                if upward:
                    words |= (words & _LOW_BITS[bit]) << shift
                else:
                    words |= (words >> shift) & _LOW_BITS[bit]
            for bit in range(6, d):
                # Axis 1 splits each block of words into masks without
                # and with the bit; closing moves membership across it.
                halves = words.reshape(-1, 2, 1 << (bit - 6))
                if upward:
                    halves[:, 1, :] |= halves[:, 0, :]
                else:
                    halves[:, 0, :] |= halves[:, 1, :]
            selected = np.unpackbits(words.view(np.uint8), bitorder="little")[:size].view(bool)
        # Proper cones only: drop the masks themselves and the empty
        # subspace (index 0 stays UNKNOWN forever by convention).
        selected[masks] = False
        selected[0] = False
        return selected

    def _settle(self, selected: np.ndarray, value: int) -> int:
        """Decide the UNKNOWN subspaces of *selected* as *value*; return
        how many changed."""
        selected &= self._state == _UNKNOWN
        indices = np.flatnonzero(selected)
        if indices.size == 0:
            return 0
        self._state[indices] = value
        per_level = np.bincount(_levels_array(self.d)[indices], minlength=self.d + 1)
        outlying = value == _PRUNED_OUTLYING
        for level in np.flatnonzero(per_level).tolist():
            count = int(per_level[level])
            self._remaining_count[level] -= count
            if outlying:
                self._outlying_decided[level] += count
        return int(indices.size)

    def _prune_below_full(self) -> int:
        """:meth:`prune_subsets` of the full space: every UNKNOWN subspace
        below it is decided non-outlying in one write.

        The cone is every level but ``d`` (and the empty subspace), so
        the per-level counts are the remaining counts themselves.
        """
        body = self._state[1 : self._full_mask]
        count = sum(self._remaining_count[1 : self.d])
        if count == body.size:
            # Nothing below is decided yet (an inlier's first step): a
            # plain fill, several times cheaper than the masked write.
            body.fill(_PRUNED_NON_OUTLYING)
        else:
            body[body == _UNKNOWN] = _PRUNED_NON_OUTLYING
        self._remaining_count[1 : self.d] = [0] * (self.d - 1)
        return count

    def _check_mask(self, mask: int) -> None:
        if not 1 <= mask <= self._full_mask:
            raise DimensionalityError(
                f"mask {mask:#x} is not a non-empty subspace of a d={self.d} space"
            )
