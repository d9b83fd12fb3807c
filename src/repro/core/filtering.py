"""Result refinement — Section 3.4.

A point's outlying-subspace set is upward closed: every superset of an
outlying subspace is outlying (Property 2). Returning all of them would
drown the user, so HOS-Miner's filter keeps only the *minimal* ones —
the antichain of lowest-dimensional outlying subspaces from which the
rest can be inferred.

The paper's procedure is an upward sweep: examine candidates in
ascending dimensionality and discard any that is a superset of an
already-kept subspace. The worked example (d = 4) — candidates
``[1,3], [2,4], [1,2,3], [1,2,4], [1,3,4], [2,3,4], [1,2,3,4]`` reduce
to ``[1,3]`` and ``[2,4]`` — is pinned in ``tests/test_filtering.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.exceptions import DimensionalityError
from repro.core.subspace import Subspace, is_subset, popcounts

__all__ = [
    "minimal_masks",
    "minimal_subspaces",
    "is_antichain",
    "covers",
    "expand_upward",
]

#: Cap on the cells of one candidates × kept subset-test block, so a
#: level of many candidates against a large antichain stays in bounded
#: memory (8 MiB of int64 intermediates).
_BLOCK_CELLS = 1 << 20


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """Reduce a set of subspace masks to its minimal antichain.

    Runs the paper's upward sweep: ascending by dimensionality (ties by
    mask value, for determinism), a candidate survives only if no kept
    subspace is a subset of it. Duplicates collapse naturally. The sweep
    goes one level at a time: same-level masks cannot contain one
    another, so a whole level is tested against the antichain kept so
    far in one numpy broadcast.

    Raises
    ------
    DimensionalityError
        If a mask lies outside ``[0, 2**63)``, i.e. names a dimension
        past the 63rd.
    """
    masks = list(masks)
    if not masks:
        return masks
    try:
        values = np.sort(np.asarray(masks, dtype=np.int64))
    except OverflowError:
        values = None
    if values is None or values[0] < 0:
        raise DimensionalityError(
            f"minimal_masks takes masks in [0, 2**63), got {min(masks):#x} to {max(masks):#x}"
        )
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    levels = popcounts(values)
    order = np.argsort(levels, kind="stable")
    values, levels = values[order], levels[order]
    kept = values[:0]
    for candidates in np.split(values, np.flatnonzero(np.diff(levels)) + 1):
        if kept.size:
            covered = np.empty(candidates.size, dtype=bool)
            step = max(1, _BLOCK_CELLS // kept.size)
            for lo in range(0, candidates.size, step):
                block = ~candidates[lo : lo + step, None]
                covered[lo : lo + step] = ((kept & block) == 0).any(axis=1)
            candidates = candidates[~covered]
        kept = np.concatenate([kept, candidates])
    return kept.tolist()


def minimal_subspaces(subspaces: Iterable[Subspace]) -> list[Subspace]:
    """Wrapper-typed variant of :func:`minimal_masks`."""
    subspaces = list(subspaces)
    if not subspaces:
        return []
    d = subspaces[0].d
    return [Subspace(mask, d) for mask in minimal_masks(s.mask for s in subspaces)]


def is_antichain(masks: Sequence[int]) -> bool:
    """Whether no mask in the collection contains another — the
    correctness invariant of the filter output."""
    masks = list(masks)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if is_subset(a, b) or is_subset(b, a):
                return False
    return True


def covers(minimal: Sequence[int], full: Iterable[int]) -> bool:
    """Whether every mask of *full* is a superset of some mask in
    *minimal* — i.e. the filter lost no information."""
    return all(
        any(is_subset(kept, mask) for kept in minimal) for mask in full
    )


def expand_upward(minimal: Sequence[int], d: int) -> set[int]:
    """Reconstruct the full upward-closed outlying set from its minimal
    antichain — the inverse of the filter, used to answer "is subspace s
    outlying?" from a stored result without re-searching."""
    from repro.core.subspace import iter_supermasks

    expanded: set[int] = set()
    for mask in minimal:
        expanded.update(iter_supermasks(mask, d))
    return expanded
