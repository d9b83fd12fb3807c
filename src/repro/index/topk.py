"""Row-wise top-k selection for the level-wide OD GEMM.

After the ``M @ C.T`` product, every row of the ``(m, n)`` component-sum
block must be reduced to its ``k`` smallest values in ascending order.
At realistic level widths this selection — not the BLAS product — is
where the kernel's time goes. :func:`topk_prefix` returns exactly
``np.sort(S, axis=1)[:, :k]`` (ties are equal values, so the OD sum is
the same whichever tied element is picked) with a two-stage min-filter:
the row is viewed as ``G`` interleaved chunks of ``B`` columns, one SIMD
pass takes each chunk's minimum, and only the ``k`` chunks with the
smallest minima (plus the ungrouped tail) are gathered and partitioned.
Rows too narrow for two stages fall back to a plain introselect.

The filter is sound because a chunk whose minimum exceeds the k-th
smallest chunk minimum ``tau`` cannot hold a top-k element: the ``k``
chunks at or below ``tau`` each already contain an element strictly
smaller than anything in it. Its first stage is bandwidth-bound, so it
beats introselect at both precisions (docs/tuning.md records the
measurement).
"""

from __future__ import annotations

import numpy as np

__all__ = ["topk_prefix"]

#: Chunk-count bounds for the min-filter first stage: enough chunks that
#: ``k`` of them stay a small candidate set, few enough that the
#: per-chunk bookkeeping (argpartition + gather) stays negligible.
_FILTER_MIN_CHUNKS = 64
_FILTER_MAX_CHUNKS = 256


def _partition_prefix(S: np.ndarray, k: int) -> np.ndarray:
    """In-place introselect + sorted k-prefix of a scratch array."""
    S.partition(k - 1, axis=1)
    prefix = S[:, :k]
    prefix.sort(axis=1)
    return prefix


def topk_prefix(S: np.ndarray, k: int) -> np.ndarray:
    """Sorted ascending k-prefix of every row of ``S``, shape ``(m, k)``.

    ``S`` is only read, never written: the two-stage path partitions the
    gathered candidates, and the narrow-row fallback partitions a copy.
    So a caller may select on a block it still needs (the full-space
    screen compares the same block against the k-th value afterwards).
    Chunk ``g`` is the interleaved column set
    ``{g, g+G, g+2G, ...}``, so the chunk-min pass reduces over the
    *leading* axis of a strided ``(m, B, G)`` view and vectorises across
    the contiguous ``G``-wide inner axis. If chunk ``X`` has
    ``min(X) > tau`` (the k-th smallest chunk min) and ``e ∈ X``, the
    ``k`` chunks with minima ``<= tau`` each contain an element
    ``<= tau < e`` — ``k`` elements strictly smaller than ``e`` — so the
    candidate set (the ``k`` best chunks plus the ungrouped tail) holds
    the exact multiset of the ``k`` smallest row values.
    """
    m, n = S.shape
    G = max(_FILTER_MIN_CHUNKS, min(_FILTER_MAX_CHUNKS, n // 16))
    B = n // G
    if B < 4 or G <= 2 * k:
        # Too small for two stages to pay off (or to be valid): the
        # plain partition, on a copy, is optimal at these widths.
        return _partition_prefix(S.copy(), k)
    body = G * B
    view = np.lib.stride_tricks.as_strided(
        S,
        shape=(m, B, G),
        strides=(S.strides[0], G * S.strides[1], S.strides[1]),
    )
    mins = view.min(axis=1)
    chunk_ids = np.argpartition(mins, k - 1, axis=1)[:, :k]
    columns = (
        chunk_ids[:, None, :] + G * np.arange(B)[None, :, None]
    ).reshape(m, k * B)
    candidates = np.take_along_axis(S, columns, axis=1)
    if body < n:
        candidates = np.concatenate([candidates, S[:, body:]], axis=1)
    return _partition_prefix(candidates, k)
