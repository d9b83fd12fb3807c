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
    "KnnBackend",
    "components32_from",
    "mask_matrix",
    "normalize_excludes",
    "require_finite",
    "validate_query_matrix",
    "validate_prefix_request",
]


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
    dims_list: "Sequence[np.ndarray]", d: int, dtype: "np.dtype | type" = np.float64
) -> np.ndarray:
    """Pack subspace dimension lists into a 0/1 selection matrix.

    Returns the ``(m, d)`` matrix ``M`` with ``M[j, dim] = 1`` for
    every dimension of subspace ``j`` — the left-hand operand of the
    level-wide OD kernel's ``M @ C.T`` GEMM. Putting masks on the left
    makes the (freshly allocated, C-order) product mask-major: row
    ``j`` holds subspace ``j``'s per-point component sums contiguously,
    which is the layout the axis-wise top-k reduction wants. *dtype*
    selects the GEMM precision; 0 and 1 are exact in every float dtype,
    so the mask itself never loses information.
    """
    M = np.zeros((len(dims_list), d), dtype=dtype)
    for j, dims in enumerate(dims_list):
        M[j, dims] = 1.0
    return M


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


def validate_prefix_request(
    dims_list,
    validate_dims,
    k: int,
    size: int,
    excludes: "Sequence[int | None]",
) -> "list[np.ndarray]":
    """Shared argument validation of the OD prefix kernels.

    Coerces every entry of *dims_list* through the backend's
    *validate_dims* (ready-made intp arrays are trusted — the batch
    engine validates and caches them once per mask) and checks ``k``
    against the candidate rows available to each exclusion. One helper
    so every backend's prefix kernel validates — and errors — identically.
    """
    from repro.core.exceptions import ConfigurationError

    dims_arrays = [
        dims
        if isinstance(dims, np.ndarray) and dims.dtype == np.intp
        else validate_dims(dims)
        for dims in dims_list
    ]
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    for exclude in excludes:
        available = size - (1 if exclude is not None else 0)
        if k > available:
            raise ConfigurationError(
                f"k={k} neighbours requested but only {available} candidate rows exist"
            )
    return dims_arrays


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
