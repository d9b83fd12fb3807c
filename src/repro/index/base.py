"""Common interface of every kNN backend.

HOS-Miner evaluates ``OD(p, s)`` for thousands of ``(point, subspace)``
pairs, so the kNN search is abstracted behind one small protocol with
three interchangeable implementations:

* :class:`repro.index.linear.LinearScanIndex` — vectorised brute force,
  the speed default in pure Python;
* :class:`repro.index.rstar.RStarTree` — the classic R*-tree;
* :class:`repro.index.xtree.XTree` — the paper's substrate [2].

All backends answer *subspace* queries: distances are computed over an
arbitrary subset ``dims`` of the indexed dimensions. The tree backends
achieve this by projecting MINDIST onto ``dims``, which stays a valid
lower bound, so branch-and-bound correctness is untouched.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.index.stats import IndexStats

__all__ = [
    "MAX_MASK_DIM",
    "KnnBackend",
    "components32_from",
    "mask_matrix",
    "normalize_excludes",
    "require_finite",
    "require_k",
    "validate_masks",
    "validate_query_matrix",
    "validate_prefix_request",
]

#: Widest space a subspace mask can name: masks are int64, and
#: ``2**63 - 1`` is the full space of 63 dimensions.
MAX_MASK_DIM = 63


@runtime_checkable
class KnnBackend(Protocol):
    """Structural interface of a subspace-capable kNN index."""

    #: Cumulative logical cost counters.
    stats: IndexStats
    #: Number of indexed points.
    size: int
    #: Dimensionality of the indexed points.
    d: int

    def knn(
        self,
        query: np.ndarray,
        k: int,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """k nearest neighbours of *query* within subspace *dims*.

        Parameters
        ----------
        query:
            Full-dimensional query vector (projection happens inside).
        k:
            Number of neighbours.
        dims:
            Sorted 0-based dimension indices of the subspace.
        exclude:
            Optional row index to skip — used when the query point is a
            member of the indexed dataset.

        Returns
        -------
        (indices, distances), both length ``min(k, available)``, sorted
        by ascending distance with ties broken by row index.
        """

    def range_query(
        self,
        query: np.ndarray,
        radius: float,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> np.ndarray:
        """Row indices within *radius* of *query* in subspace *dims*."""


def mask_matrix(
    masks: np.ndarray, d: int, dtype: "np.dtype | type" = np.float64
) -> np.ndarray:
    """Unpack subspace bitmasks into a 0/1 selection matrix.

    Returns the ``(m, d)`` matrix ``M`` with ``M[j, dim] = 1`` for
    every dimension of mask ``j`` (bit ``dim`` set) — the left-hand
    operand of the level-wide OD kernel's ``M @ C.T`` GEMM; the exact
    paths take ``np.flatnonzero`` of a boolean row. Putting masks on the
    left makes the (freshly allocated, C-order) product mask-major: row
    ``j`` holds subspace ``j``'s per-point component sums contiguously,
    which is the layout the axis-wise top-k reduction wants. *dtype*
    selects the GEMM precision; 0 and 1 are exact in every float dtype,
    so the mask itself never loses information. *masks* must already
    be validated (:func:`validate_masks`).
    """
    return ((masks[:, None] >> np.arange(d)) & 1).astype(dtype)


def components32_from(components: "np.ndarray | None") -> "np.ndarray | None":
    """Transposed float32 copy of a component matrix, or ``None``.

    The float32 GEMM tier's right-hand operand: ``(d, n)`` C-contiguous
    (pre-transposed so the sgemm consumes two contiguous operands — the
    float64 path keeps the shared ``(n, d)`` cache layout instead).
    Returns ``None`` when any entry overflows float32 (magnitudes above
    ~3.4e38): a non-finite operand could turn masked-out dimensions
    into ``0 * inf = NaN`` inside the GEMM, and NaN escapes the
    re-verification band — callers fall back to the float64 kernel for
    such data instead. Finite entries can still overflow to ``inf``
    during *accumulation*, which is safe: ``inf`` values are always
    re-verified exactly.
    """
    if components is None:
        return None
    with np.errstate(over="ignore"):
        # An overflowing cast yields inf, detected just below.
        transposed = np.ascontiguousarray(components.T, dtype=np.float32)
    if not np.isfinite(transposed).all():
        return None
    return transposed


def validate_masks(masks, d: int) -> np.ndarray:
    """*masks* as a 1-D int64 array of subspace bitmasks over ``d`` dims.

    Every entry must be an integer in ``[1, 2**d)``: a non-empty subset
    of the ``d`` dimensions. Masks are int64, so ``d`` may not exceed
    :data:`MAX_MASK_DIM`. Anything else raises a
    :class:`~repro.core.exceptions.ConfigurationError` (a
    :class:`~repro.core.exceptions.DimensionalityError` for ``d``) —
    never a raw ``OverflowError`` or a silently truncated float.
    """
    from repro.core.exceptions import ConfigurationError, DimensionalityError

    if d > MAX_MASK_DIM:
        raise DimensionalityError(
            f"d={d} exceeds the {MAX_MASK_DIM} dimensions an int64 subspace mask can name"
        )
    masks = np.asarray(masks)
    if masks.ndim != 1 or masks.dtype.kind not in "iu":
        raise ConfigurationError(
            f"masks must be a 1-D integer array, got dtype {masks.dtype} "
            f"and shape {masks.shape}"
        )
    if masks.size and (masks.min() < 1 or masks.max() >= 1 << d):
        raise ConfigurationError(
            f"masks must lie in [1, 2**{d}) for d={d}, got "
            f"{int(masks.min())}..{int(masks.max())}"
        )
    return masks.astype(np.int64, copy=False)


def validate_prefix_request(
    masks,
    d: int,
    k: int,
    size: int,
    excludes: "Sequence[int | None]",
) -> np.ndarray:
    """Shared argument validation of the OD prefix kernels: *masks*
    through :func:`validate_masks` and ``k`` through :func:`require_k`.
    Returns the int64 mask array. One helper so every backend's prefix
    kernel validates — and errors — identically."""
    masks = validate_masks(masks, d)
    require_k(k, size, excludes)
    return masks


def require_k(k: int, size: int, excludes: "Sequence[int | None]") -> None:
    """Check ``k`` against the candidate rows available to each exclusion."""
    from repro.core.exceptions import ConfigurationError

    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    for exclude in excludes:
        available = size - (1 if exclude is not None else 0)
        if k > available:
            raise ConfigurationError(
                f"k={k} neighbours requested but only {available} candidate rows exist"
            )


def normalize_excludes(
    excludes: "Sequence[int | None] | None", m: int, size: int
) -> "list[int | None]":
    """Validate a per-query exclusion list against batch size and n."""
    from repro.core.exceptions import ConfigurationError

    if excludes is None:
        return [None] * m
    excludes = list(excludes)
    if len(excludes) != m:
        raise ConfigurationError(
            f"{len(excludes)} exclusions supplied for {m} queries"
        )
    for exclude in excludes:
        if exclude is not None and not 0 <= exclude < size:
            raise ConfigurationError(
                f"exclude row {exclude} out of range for n={size}"
            )
    return excludes


def validate_query_matrix(queries: np.ndarray, d: int) -> np.ndarray:
    """Coerce *queries* to a float64 ``(m, d)`` matrix or raise
    :class:`~repro.core.exceptions.DataShapeError` naming both shapes."""
    from repro.core.exceptions import DataShapeError

    try:
        queries = np.ascontiguousarray(queries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataShapeError(
            f"query matrix could not be converted to float64: {exc}"
        ) from exc
    if queries.ndim != 2 or queries.shape[1] != d:
        raise DataShapeError(
            f"expected a query matrix of shape (m, {d}), got {queries.shape}"
        )
    return queries


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`~repro.core.exceptions.DataShapeError` at the first
    non-finite entry of a 1-D or 2-D float array.

    The API boundary's guard: a NaN OD compares false against ``T`` and
    would silently read as "no outlying subspace", and a NaN or inf row
    poisons every neighbour set it joins. *what* names a row of a 2-D
    array (``"data row"`` gives "data row 7, column 0 is nan") or the
    whole of a 1-D one (``"query point"``).
    """
    finite = np.isfinite(values)
    if finite.all():
        return
    index = np.unravel_index(int(np.argmin(finite)), values.shape)
    where = f"{what}, column {index[0]}" if values.ndim == 1 else (
        f"{what} {index[0]}, column {index[1]}"
    )
    from repro.core.exceptions import DataShapeError

    raise DataShapeError(
        f"{where} is {values[index]}: every coordinate must be finite"
    )
