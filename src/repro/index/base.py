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

Every backend keeps its rows in one :class:`RowStore`, which owns their
growth, expiry and pickling; a backend only adds its own structure on
top (the VA-file's codes, the trees' nodes, the scan's screen caches).
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.index.stats import IndexStats

__all__ = [
    "MAX_MASK_DIM",
    "KnnBackend",
    "RowStore",
    "as_float64",
    "components32_from",
    "mask_matrix",
    "normalize_excludes",
    "require_finite",
    "require_k",
    "validate_masks",
    "validate_query_dims",
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


class RowStore:
    """The rows of one backend: an ``(n, d)`` window over a growable buffer.

    :meth:`append` writes a row into spare capacity, and a full buffer
    doubles (compacting expired head rows away), so ``n`` appends cost
    O(n·d) in all. :meth:`expire` only advances the head offset, O(1).
    :attr:`data` is the read-only view of the live rows; it is rebuilt
    on every write, so reading it makes no new view. :attr:`version`
    moves with every write, for caches derived from the rows.

    The store starts on *rows* itself, without a copy, and never writes
    into them or changes their flags: the buffer starts full, so the
    first append grows into a fresh array. A backend built over a view
    of another backend's rows (a row shard) therefore never writes the
    rows it shares. A pickle holds the live rows only.
    """

    def __init__(self, rows: np.ndarray) -> None:
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            from repro.core.exceptions import DataShapeError

            raise DataShapeError(f"expected a non-empty (n, d) matrix, got shape {rows.shape}")
        self._buffer = rows
        self._head = 0
        self._end = rows.shape[0]
        self.version = 0
        self._refresh()

    def __len__(self) -> int:
        return self._end - self._head

    def _refresh(self) -> None:
        view = self._buffer[self._head : self._end]
        view.flags.writeable = False
        self.data = view

    def append(self, row) -> int:
        """Append one length-``d`` row; returns its index in :attr:`data`."""
        buffer = self._buffer
        row = np.asarray(row, dtype=buffer.dtype)
        if row.shape != buffer.shape[1:]:
            from repro.core.exceptions import DataShapeError

            raise DataShapeError(
                f"point must be a length-{buffer.shape[1]} vector, got shape {row.shape}"
            )
        if self._end == buffer.shape[0]:
            live = len(self)
            grown = np.empty((max(2 * live, live + 1), buffer.shape[1]), dtype=buffer.dtype)
            grown[:live] = buffer[self._head : self._end]
            self._buffer, self._head, self._end = grown, 0, live
        self._buffer[self._end] = row
        self._end += 1
        self.version += 1
        self._refresh()
        return len(self) - 1

    def expire(self, count: int) -> np.ndarray:
        """Drop the ``count`` oldest rows; returns a copy of them.

        At least one row must stay. Row indices shift down by ``count``.
        """
        count = int(count)
        if not 1 <= count < len(self):
            from repro.core.exceptions import ConfigurationError

            raise ConfigurationError(
                f"cannot expire {count} of {len(self)} rows: the count must be "
                "at least 1 and the rows must stay non-empty"
            )
        removed = self._buffer[self._head : self._head + count].copy()
        self._head += count
        self.version += 1
        self._refresh()
        return removed

    def __getstate__(self) -> dict:
        return {"rows": self.data, "version": self.version}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["rows"])
        self.version = state["version"]


def validate_query_dims(query, dims: Sequence[int], d: int) -> "tuple[np.ndarray, np.ndarray]":
    """``(query, dims)`` as a float64 length-*d* vector and a non-empty
    intp array of dimensions in ``[0, d)``, or a typed error — the
    argument check of every backend's ``knn`` and ``range_query``."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (d,):
        from repro.core.exceptions import DataShapeError

        raise DataShapeError(f"query must be a length-{d} vector, got shape {query.shape}")
    dims = np.asarray(dims, dtype=np.intp)
    if dims.size == 0 or dims.min() < 0 or dims.max() >= d:
        from repro.core.exceptions import ConfigurationError

        raise ConfigurationError(
            f"dims {dims.tolist()} out of range for d={d}"
            if dims.size
            else "a query subspace needs at least one dimension"
        )
    return query, dims


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


def as_float64(values, what: str) -> np.ndarray:
    """*values* as a C-contiguous float64 array, or a
    :class:`~repro.core.exceptions.DataShapeError` naming *what*.

    The one conversion of every data matrix, new row and query point at
    the API boundary. Strings that are not numbers, ragged nesting and
    complex numbers all fail here; a complex dtype is rejected before
    the cast, which would keep only the real part (with a mere
    ``ComplexWarning``). Shapes are the caller's to check.
    """
    from repro.core.exceptions import DataShapeError

    try:
        array = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise DataShapeError(f"{what} could not be converted to float64: {exc}") from exc
    if np.iscomplexobj(array):
        raise DataShapeError(f"{what} has complex dtype {array.dtype}; coordinates must be real")
    try:
        return np.ascontiguousarray(array, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataShapeError(f"{what} could not be converted to float64: {exc}") from exc


def validate_query_matrix(queries: np.ndarray, d: int) -> np.ndarray:
    """Coerce *queries* to a float64 ``(m, d)`` matrix or raise
    :class:`~repro.core.exceptions.DataShapeError` naming both shapes."""
    from repro.core.exceptions import DataShapeError

    queries = as_float64(queries, "query matrix")
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
