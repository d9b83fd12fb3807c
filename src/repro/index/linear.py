"""Vectorised linear-scan kNN backend.

The reference backend: exact, simple, and — thanks to numpy — usually
the fastest option in pure Python for the dataset sizes of the 2004
demo. The tree backends are benched against it in experiment E8 on
logical-I/O metrics, where they win; on raw wall-time the scan wins
because its inner loop is C. Both facts show up honestly in the E8
table (``repro bench e8``).

Cost accounting mirrors a sequential scan of a disk-resident file: one
node access per :data:`BLOCK_ROWS` rows touched plus one distance
computation per row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.core.metrics import Metric, get_metric, resolve_kernel
from repro.core.precision import resolve_precision
from repro.index.base import (
    components32_from,
    mask_matrix,
    normalize_excludes,
    validate_query_matrix,
    validate_prefix_request,
)
from repro.index.stats import IndexStats
from repro.index.topk import topk_prefix

__all__ = ["LinearScanIndex", "BLOCK_ROWS"]

#: Rows per simulated disk block for node-access accounting.
BLOCK_ROWS = 64

#: Memory ceiling for one batched distance intermediate. The multi-query
#: kernels chunk their query axis — and the single-query level GEMM its
#: *column* axis — so no temporary exceeds this many bytes. The budget
#: counts elements at the kernel's dtype, so the float32 tier fits twice
#: the columns per block. Chunking never changes results: the query axis
#: is independent per query, and the column blocking never splits a dot
#: product's reduction axis (see :meth:`LinearScanIndex._level_prefix`).
BATCH_CHUNK_BYTES = 64 * 2**20


class LinearScanIndex:
    """Exact kNN / range search by full vectorised scan.

    Parameters
    ----------
    X:
        Data matrix, shape ``(n, d)``; copied to float64 and kept
        contiguous for fast fancy-indexing on dimension subsets.
    metric:
        Metric instance or registry name (default ``"euclidean"``).
    """

    def __init__(
        self,
        X: np.ndarray,
        metric: "Metric | str" = "euclidean",
    ) -> None:
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise DataShapeError(f"expected a non-empty (n, d) matrix, got shape {X.shape}")
        # The scanned matrix lives in a capacity-doubling buffer so that
        # insert() is amortised O(d) instead of an O(n·d) vstack per
        # call. Sliding-window expiry only bumps the _lo head offset —
        # the dead rows are reclaimed when the next growth compacts the
        # live window to the front — so _X is always the contiguous
        # [_lo:_n) window view and every kernel below is window-agnostic.
        self._buf = X
        self._lo = 0
        self._n = X.shape[0]
        self._X = self._buf[self._lo : self._n]
        self.metric = get_metric(metric)
        self.stats = IndexStats()

    # -- KnnBackend interface ------------------------------------------------
    @property
    def size(self) -> int:
        return self._X.shape[0]

    @property
    def d(self) -> int:
        return self._X.shape[1]

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the indexed matrix."""
        view = self._X.view()
        view.flags.writeable = False
        return view

    def knn(
        self,
        query: np.ndarray,
        k: int,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        query, dims = self._validate(query, dims)
        available = self.size - (1 if exclude is not None else 0)
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if k > available:
            raise ConfigurationError(
                f"k={k} neighbours requested but only {available} candidate rows exist"
            )

        distances = self.metric.pairwise(self._X, query, dims)
        self._account_scan()
        if exclude is not None:
            distances = distances.copy()
            distances[exclude] = np.inf

        # argpartition gives the k smallest in O(n); a final stable sort of
        # just k entries yields the deterministic (distance, index) order.
        candidate = np.argpartition(distances, k - 1)[:k]
        order = np.lexsort((candidate, distances[candidate]))
        indices = candidate[order]
        self.stats.knn_queries += 1
        return indices, distances[indices]

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        dims: Sequence[int],
        excludes: "Sequence[int | None] | None" = None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Vectorised multi-query kNN: one broadcasted distance pass.

        The whole ``(m, n)`` distance matrix is computed in a single
        numpy kernel (via the metric's ``pairwise_many`` when available),
        then each row is reduced with the same argpartition + stable
        lexsort as :meth:`knn`, so results — including tie order — are
        identical to ``m`` sequential calls while the dominant distance
        work runs ``m``-wide.
        """
        queries = validate_query_matrix(queries, self.d)
        m = queries.shape[0]
        excludes = normalize_excludes(excludes, m, self.size)
        dims = self._validate_dims(dims)
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        for exclude in excludes:
            available = self.size - (1 if exclude is not None else 0)
            if k > available:
                raise ConfigurationError(
                    f"k={k} neighbours requested but only {available} candidate rows exist"
                )
        if m == 0:
            return []

        pairwise_many = getattr(self.metric, "pairwise_many", None)
        chunk = max(1, BATCH_CHUNK_BYTES // (self.size * max(1, dims.size) * 8))
        results = []
        for start in range(0, m, chunk):
            stop = min(start + chunk, m)
            if pairwise_many is not None:
                distances = pairwise_many(self._X, queries[start:stop], dims)
            else:
                distances = np.stack(
                    [
                        self.metric.pairwise(self._X, query, dims)
                        for query in queries[start:stop]
                    ]
                )
            for i in range(start, stop):
                row = distances[i - start]
                exclude = excludes[i]
                if exclude is not None:
                    row[exclude] = np.inf
                candidate = np.argpartition(row, k - 1)[:k]
                order = np.lexsort((candidate, row[candidate]))
                indices = candidate[order]
                results.append((indices, row[indices]))
                self._account_scan()
        self.stats.knn_queries += m
        return results

    def distance_components(self, query: np.ndarray) -> "np.ndarray | None":
        """Per-dimension distance contribution matrix for *query*.

        Shape ``(n, d)``; feed it to :meth:`knn_distance_prefix` to answer
        many subspace queries for the same point without recomputing any
        per-dimension term. Returns ``None`` when the metric does not
        expose a component decomposition (custom metrics) — callers then
        fall back to plain :meth:`knn`.
        """
        components_fn = getattr(self.metric, "pairwise_components", None)
        if components_fn is None or not hasattr(self.metric, "reduce_components"):
            # Both halves of the optional pair are needed: a component
            # matrix is useless without the matching reduction.
            return None
        query, _ = self._validate(query, range(self.d))
        # Building the matrix is one full per-dimension pass over the
        # data — the same logical work as one full-space distance scan —
        # and is charged here, once; later component-reuse calls charge
        # only gathers (see knn_distance_prefix).
        self._account_scan()
        return components_fn(self._X, query)

    def knn_distance_prefix(
        self,
        query: np.ndarray,
        k: int,
        dims_list: "Sequence[Sequence[int]]",
        exclude: int | None = None,
        components: "np.ndarray | None" = None,
        kernel: str = "exact",
        precision: str = "float64",
        components32: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Sorted k-nearest *distances* per subspace, shape ``(m, k)``.

        The OD kernel of the search engines — the dual of
        :meth:`knn_batch`: there the query axis is vectorised for one
        subspace, here one query is evaluated in ``m`` subspaces. The OD
        is ``prefix.sum(axis=1)`` (ascending, the accumulation order of
        the sorted kNN result) and the last column is the kth-neighbour
        distance. Because the ``k`` smallest of a union of per-shard
        sorted k-prefixes is the global k smallest, the scatter-gather
        engine (:mod:`repro.core.shard`) merges these rows across row
        shards and recovers values identical to one full scan. Two
        kernels serve the call:

        ``kernel="exact"`` (default)
            One gather-and-reduce per subspace over the *components*
            matrix (see :meth:`distance_components`) when given, else
            one ``pairwise`` projection pass per subspace. Every row is
            bit-identical to ``knn(query, k, dims, exclude)[1]``: the
            gathered reduction replays ``pairwise``'s arithmetic exactly
            (ties are equal values, so neighbour identity cannot change
            the sequence).
        ``kernel="gemm"`` (or ``"auto"`` with a capable metric)
            The level-wide kernel: all ``m`` subspaces' component sums
            come from one BLAS product ``M @ C.T`` of the 0/1 mask
            matrix against the component matrix, followed by one
            axis-wise top-k selection on component sums; the monotone
            L_p finalizer maps the prefix to distances afterwards. BLAS
            accumulates in its own order, so values agree with the exact
            kernel to float tolerance (~1e-13 relative) rather than
            bit-for-bit — :func:`repro.core.od.evaluate` re-verifies
            near-threshold values exactly. Components must be finite: a
            masked-out ``inf`` component turns into ``0 * inf = NaN``,
            which is why :func:`repro.core.od.knn_prefixes` sends such
            queries to the exact kernel. The product is blocked along
            the column (point) axis whenever it would exceed
            :data:`BATCH_CHUNK_BYTES`, with a streaming top-k merge that
            is value-identical to the unblocked kernel.

        *precision* selects the GEMM dtype (``"float64"`` default at
        this layer; resolved via
        :func:`repro.core.precision.resolve_precision`). Under
        ``"float32"`` the product runs on a pre-transposed ``(d, n)``
        float32 component copy — *components32*, built here via
        :func:`~repro.index.base.components32_from` when not supplied —
        and the OD layer widens its exact re-verification band to the
        rigorous float32 rounding bound, so answer *sets* stay identical
        to the float64 kernel. Data whose components overflow float32
        silently falls back to the float64 product.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.d,):
            raise DataShapeError(
                f"query must be a length-{self.d} vector, got shape {query.shape}"
            )
        dims_arrays = validate_prefix_request(
            dims_list, self._validate_dims, k, self.size, [exclude]
        )
        kernel = resolve_kernel(kernel, self.metric)
        count = len(dims_arrays)
        if count == 0:
            return np.empty((0, k))

        if kernel == "gemm":
            if components is None:
                components = self.metric.pairwise_components(self._X, query)
                self._account_scan()
            precision = resolve_precision(precision, kernel)
            if precision == "float32" and components32 is None:
                components32 = components32_from(components)
            if precision == "float32" and components32 is not None:
                M = mask_matrix(dims_arrays, self.d, dtype=np.float32)
                prefix = self._level_prefix(M, components32, k, exclude)
                prefix = prefix.astype(np.float64)
            else:
                M = mask_matrix(dims_arrays, self.d)
                prefix = self._level_prefix(M, components.T, k, exclude)
            out = self.metric.finalize_component_sums(prefix)
            self.stats.bump("gemm_flops", 2 * self.size * self.d * count)
            self.stats.bump("gemm_masks", count)
            self.stats.knn_queries += count
            return out

        out = np.empty((count, k))
        gathered_terms = 0
        for j, dims in enumerate(dims_arrays):
            if components is not None:
                distances = self.metric.reduce_components(components[:, dims])
                gathered_terms += self.size * dims.size
            else:
                distances = self.metric.pairwise(self._X, query, dims)
                self._account_scan()
            if exclude is not None:
                distances[exclude] = np.inf
            # In-place partition + sort of the k-prefix: `distances` is a
            # fresh array, and the sorted k smallest match the sorted kNN
            # result's value sequence exactly.
            distances.partition(k - 1)
            smallest = distances[:k]
            smallest.sort()
            out[j] = smallest
        if gathered_terms:
            # Component reuse redoes no per-dimension work — it re-reads
            # cached terms. Charging a full scan here (as the first
            # batched engine did) would overstate E1–E5 distance counts,
            # so gathers get their own counter.
            self.stats.bump("component_gathers", gathered_terms)
        self.stats.knn_queries += count
        return out

    def knn_distance_prefix_batch(
        self,
        queries: np.ndarray,
        k: int,
        dims_list: "Sequence[Sequence[int]]",
        excludes: "Sequence[int | None] | None" = None,
        components_list: "Sequence[np.ndarray | None] | None" = None,
        kernel: str = "auto",
        precision: str = "float64",
        components32_list: "Sequence[np.ndarray | None] | None" = None,
    ) -> np.ndarray:
        """Sorted k-nearest distances per ``(query row, subspace)`` pair,
        shape ``(q, m, k)``.

        The mask-major fusion point of the batched engine: when several
        concurrent searches request the same subspace list in one round,
        their component matrices are stacked into ``C_batch`` and a
        single ``M @ C_batch.T`` GEMM serves every search at once. Each
        query's block of the product is then reduced exactly like the
        single-query kernel, so ``out[i]`` equals
        ``knn_distance_prefix(queries[i], ...)`` under the same kernel
        and *precision* (``"float64"`` default at this layer — the
        miner resolves ``"auto"`` and passes the tier down explicitly;
        under ``"float32"`` the stack concatenates the pre-transposed
        ``(d, n)`` float32 copies — *components32_list* when supplied —
        and any overflowing query drops the whole batch back to
        float64).

        The query axis is chunked so the ``(m, chunk·n)`` product stays
        under :data:`BATCH_CHUNK_BYTES` at the kernel's element size;
        chunking never changes results.
        """
        queries = validate_query_matrix(queries, self.d)
        q_count = queries.shape[0]
        excludes = normalize_excludes(excludes, q_count, self.size)
        dims_arrays = validate_prefix_request(
            dims_list, self._validate_dims, k, self.size, excludes
        )
        kernel = resolve_kernel(kernel, self.metric)
        m = len(dims_arrays)
        out = np.empty((q_count, m, k))
        if q_count == 0 or m == 0:
            return out
        components_list = (
            [None] * q_count if components_list is None else list(components_list)
        )

        if kernel == "exact":
            for i in range(q_count):
                out[i] = self.knn_distance_prefix(
                    queries[i],
                    k,
                    dims_arrays,
                    exclude=excludes[i],
                    components=components_list[i],
                    kernel="exact",
                )
            return out

        n = self.size
        comp32 = None
        if resolve_precision(precision, kernel) == "float32":
            comp32 = self._batch_components32(
                queries, components_list, components32_list
            )
        M = mask_matrix(
            dims_arrays, self.d, dtype=np.float32 if comp32 is not None else np.float64
        )
        itemsize = M.dtype.itemsize
        # Both per-chunk intermediates — the (m, chunk·n) product and the
        # stacked component matrix — must fit the budget at this dtype
        # (float32 fits twice the queries per chunk).
        chunk = max(1, BATCH_CHUNK_BYTES // (n * max(m, self.d) * itemsize))
        for start in range(0, q_count, chunk):
            stop = min(start + chunk, q_count)
            if comp32 is not None:
                parts = comp32[start:stop]
                right = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            else:
                parts = []
                for i in range(start, stop):
                    C = components_list[i]
                    if C is None:
                        C = self.metric.pairwise_components(self._X, queries[i])
                        self._account_scan()
                    parts.append(C)
                C_batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
                right = C_batch.T
            with np.errstate(over="ignore", invalid="ignore"):
                # Overflowing sums come out inf, which evaluate() always
                # re-verifies; 0 * inf = NaN needs a non-finite component,
                # and knn_prefixes() sends those queries to the exact kernel.
                S = M @ right  # (m, chunk·n): every search's sums at once
            self.stats.record_peak("peak_intermediate_bytes", S.nbytes)
            for i in range(start, stop):
                block = S[:, (i - start) * n : (i - start + 1) * n]
                if excludes[i] is not None:
                    block[:, excludes[i]] = np.inf
                out[i] = self._topk_distances(block, k)
        self.stats.bump("gemm_flops", 2 * n * self.d * m * q_count)
        self.stats.bump("gemm_masks", m * q_count)
        self.stats.knn_queries += q_count * m
        return out

    def _batch_components32(
        self,
        queries: np.ndarray,
        components_list: "list[np.ndarray | None]",
        components32_list: "Sequence[np.ndarray | None] | None",
    ) -> "list[np.ndarray] | None":
        """Per-query ``(d, n)`` float32 component stacks for the batch
        GEMM, or ``None`` when any query's components overflow float32
        (the whole batch then falls back to the float64 product, keeping
        one dtype — and one fused GEMM — per chunk). Component matrices
        built here are written back into *components_list* so a
        fallback does not recompute them.
        """
        if components32_list is None:
            components32_list = [None] * len(components_list)
        out = []
        for i, c32 in enumerate(components32_list):
            if c32 is None:
                C = components_list[i]
                if C is None:
                    C = self.metric.pairwise_components(self._X, queries[i])
                    self._account_scan()
                    components_list[i] = C
                c32 = components32_from(C)
            if c32 is None:
                return None
            out.append(c32)
        return out

    def _level_prefix(
        self,
        M: np.ndarray,
        right: np.ndarray,
        k: int,
        exclude: int | None,
    ) -> np.ndarray:
        """Sorted k-prefix of every row of ``M @ right``, blocked along
        the column (point) axis.

        When the full ``(m, n)`` product fits :data:`BATCH_CHUNK_BYTES`
        it is computed in one GEMM; otherwise column blocks are produced
        one at a time and merged through a streaming top-k. Blocking is
        value-identical to the unblocked kernel: a dot product's
        reduction axis (``d``) is never split, so every element of every
        block equals the corresponding element of the full product, and
        the k smallest of a union of block k-prefixes is the global
        k smallest. Peak intermediate memory is recorded on
        ``stats.extra["peak_intermediate_bytes"]``.
        """
        m = M.shape[0]
        n = right.shape[1]
        itemsize = M.dtype.itemsize
        block = max(k, BATCH_CHUNK_BYTES // max(1, m * itemsize))
        if block >= n:
            with np.errstate(over="ignore", invalid="ignore"):
                # Overflowing sums come out inf, which evaluate() always
                # re-verifies; 0 * inf = NaN needs a non-finite component,
                # and knn_prefixes() sends those queries to the exact kernel.
                S = M @ right
            self.stats.record_peak("peak_intermediate_bytes", S.nbytes)
            if exclude is not None:
                S[:, exclude] = np.inf
            return topk_prefix(S, k)
        self.stats.record_peak("peak_intermediate_bytes", m * block * itemsize)
        running = None
        for start in range(0, n, block):
            stop = min(start + block, n)
            with np.errstate(over="ignore", invalid="ignore"):
                # Same non-finite handling as the unblocked product above.
                S = M @ right[:, start:stop]
            if exclude is not None and start <= exclude < stop:
                S[:, exclude - start] = np.inf
            prefix = topk_prefix(S, min(k, stop - start))
            if running is not None:
                merged = np.concatenate([running, prefix], axis=1)
                prefix = topk_prefix(merged, min(k, merged.shape[1]))
            running = prefix
        return running

    def _topk_distances(self, S: np.ndarray, k: int) -> np.ndarray:
        """Reduce an ``(m, n)`` component-sum block to sorted k-nearest
        distances, ``(m, k)``.

        Selects each row's sorted k-prefix (:func:`repro.index.topk.topk_prefix`)
        and finalizes component sums into
        distances only for those ``m·k`` entries — the L_p finalizers
        are monotone, so selecting on component sums selects exactly the
        k nearest. ``S`` is owned by the caller and may be partitioned in
        place; row layout (contiguous vs strided view) cannot change the
        result, which is determined by values alone.
        """
        prefix = topk_prefix(S, k)
        if prefix.dtype != np.float64:
            prefix = prefix.astype(np.float64)
        return self.metric.finalize_component_sums(prefix)

    def range_query(
        self,
        query: np.ndarray,
        radius: float,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> np.ndarray:
        query, dims = self._validate(query, dims)
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        distances = self.metric.pairwise(self._X, query, dims)
        self._account_scan()
        hits = distances <= radius
        if exclude is not None:
            hits[exclude] = False
        self.stats.range_queries += 1
        return np.flatnonzero(hits)

    def insert(self, point: np.ndarray) -> int:
        """Append a point to the scanned matrix; returns its row id.

        Amortised O(d): the point is written into spare buffer capacity,
        and the buffer doubles when full, so ``extend``-heavy dynamic
        workloads pay O(n·d) total for n inserts instead of O(n²·d).
        """
        point = np.asarray(point, dtype=np.float64)
        if point.shape != (self.d,):
            raise DataShapeError(
                f"point must be a length-{self.d} vector, got shape {point.shape}"
            )
        if self._n == self._buf.shape[0]:
            live = self._n - self._lo
            grown = np.empty((max(2 * live, live + 1), self.d))
            grown[:live] = self._buf[self._lo : self._n]
            self._buf = grown
            self._lo = 0
            self._n = live
        self._buf[self._n] = point
        self._n += 1
        self._X = self._buf[self._lo : self._n]
        return self.size - 1

    def expire(self, count: int) -> np.ndarray:
        """Drop the ``count`` oldest rows; returns a copy of them.

        O(1) per call (plus the O(count·d) copy handed back for delta
        cache invalidation): expiry just advances the window's head
        offset, and the dead prefix is reclaimed the next time growth
        compacts the live window to the buffer front. Row ids shift down
        by ``count`` — window coordinates, matching :attr:`data`.
        """
        count = int(count)
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if count >= self.size:
            raise ConfigurationError(
                f"cannot expire {count} of {self.size} rows: "
                "the scanned matrix must stay non-empty"
            )
        removed = self._buf[self._lo : self._lo + count].copy()
        self._lo += count
        self._X = self._buf[self._lo : self._n]
        return removed

    # -- internals ------------------------------------------------------------
    def _validate(self, query: np.ndarray, dims: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.d,):
            raise DataShapeError(
                f"query must be a length-{self.d} vector, got shape {query.shape}"
            )
        return query, self._validate_dims(dims)

    def _validate_dims(self, dims: Sequence[int]) -> np.ndarray:
        dims = np.asarray(dims, dtype=np.intp)
        if dims.size == 0:
            raise ConfigurationError("a query subspace needs at least one dimension")
        if dims.min() < 0 or dims.max() >= self.d:
            raise ConfigurationError(f"dims {dims.tolist()} out of range for d={self.d}")
        return dims

    def _account_scan(self) -> None:
        self.stats.distance_computations += self.size
        self.stats.node_accesses += -(-self.size // BLOCK_ROWS)  # ceil division

    def __repr__(self) -> str:
        return f"LinearScanIndex(n={self.size}, d={self.d}, metric={self.metric.name})"
