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
from repro.core.metrics import EuclideanMetric, Metric, get_metric, resolve_kernel
from repro.core.precision import resolve_precision
from repro.index.base import (
    components32_from,
    mask_matrix,
    normalize_excludes,
    require_k,
    validate_query_matrix,
    validate_prefix_request,
)
from repro.index.stats import IndexStats
from repro.index.topk import topk_prefix

__all__ = ["LinearScanIndex", "BLOCK_ROWS"]

#: Rows per simulated disk block for node-access accounting.
BLOCK_ROWS = 64

#: Memory ceiling for one GEMM intermediate of the prefix kernel, at any
#: query count: :meth:`LinearScanIndex.knn_distance_prefix_batch` runs
#: one product per query and, for a query whose product does not fit,
#: blocks its *column* axis, so no temporary exceeds this many bytes. The
#: budget counts elements at the kernel's dtype, so the float32 tier fits
#: twice the columns per block. Blocking never changes results: a column
#: block never splits a dot product's reduction axis.
BATCH_CHUNK_BYTES = 64 * 2**20

#: Byte budget of one query block of the full-space unit
#: (:meth:`LinearScanIndex.knn_full_prefix_batch`): its ``(B, n)``
#: float64 squared-distance block and the selection copy beside it each
#: stay under this size, and so does each slice of its exact refine.
#: Blocks never change values (every reported distance is recomputed
#: exactly). Measured on a 2-core x86 host at n=8000, d=12 and n=6400,
#: d=8 (256 and 2048 queries): 1-2 MiB blocks cost 17-24 us per query,
#: 8 MiB blocks 20-40 us (the block falls out of cache) and 128 KiB
#: blocks 45-57 us (per-block overhead).
FULL_SPACE_BLOCK_BYTES = 2 * 2**20

#: Safety factor on the full-space unit's derived rounding bound, as in
#: :mod:`repro.core.precision`: it covers bounding with computed rather
#: than exact norms, the second-order terms and the rounding of the
#: screen's own comparison.
_GRAM_SAFETY = 8.0


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

    def distance_components(self, query: np.ndarray) -> "np.ndarray | None":
        """Per-dimension distance contribution matrix for *query*.

        Shape ``(n, d)``; feed it to :meth:`knn_distance_prefix_batch` to answer
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
        # only gathers (see knn_distance_prefix_batch).
        self._account_scan()
        return components_fn(self._X, query)

    def knn_distance_prefix(
        self,
        query: np.ndarray,
        k: int,
        masks: np.ndarray,
        exclude: int | None = None,
        components: "np.ndarray | None" = None,
        kernel: str = "exact",
        precision: str = "float64",
        components32: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Sorted k-nearest *distances* per subspace, shape ``(m, k)``:
        the one-query view of :meth:`knn_distance_prefix_batch`."""
        query, _ = self._validate(query, range(self.d))
        return self.knn_distance_prefix_batch(
            query[None, :],
            k,
            masks,
            excludes=[exclude],
            components_list=[components],
            kernel=kernel,
            precision=precision,
            components32_list=[components32],
        )[0]

    def knn_distance_prefix_batch(
        self,
        queries: np.ndarray,
        k: int,
        masks: np.ndarray,
        excludes: "Sequence[int | None] | None" = None,
        components_list: "Sequence[np.ndarray | None] | None" = None,
        kernel: str = "auto",
        precision: str = "float64",
        components32_list: "Sequence[np.ndarray | None] | None" = None,
    ) -> np.ndarray:
        """Sorted k-nearest *distances* per ``(query row, subspace)``
        pair, shape ``(q, m, k)`` — the linear scan's one prefix kernel.

        Row ``[i, j]`` is query ``i``'s ``k`` smallest distances in
        subspace ``masks[j]``, ascending: the OD is the row's sum (the
        accumulation order of the sorted kNN result) and the last column
        is the kth-neighbour distance. Because the ``k`` smallest of a
        union of per-shard sorted k-prefixes is the global k smallest,
        the scatter-gather engine (:mod:`repro.core.shard`) merges these
        rows across row shards and recovers values identical to one full
        scan. Two kernels serve the call:

        ``kernel="exact"``
            One gather-and-reduce per ``(query, subspace)`` over the
            query's *components_list* entry (see
            :meth:`distance_components`) when given, else one
            ``pairwise`` projection pass. Every row is bit-identical to
            ``knn(query, k, dims, exclude)[1]``: the gathered reduction
            replays ``pairwise``'s arithmetic exactly (ties are equal
            values, so neighbour identity cannot change the sequence).
        ``kernel="gemm"`` (or ``"auto"`` with a capable metric)
            All ``m`` subspaces' component sums come from one BLAS
            product ``M @ C.T`` per query, of the 0/1 mask matrix against
            the component matrix, followed by one axis-wise top-k selection
            on component sums; the monotone L_p finalizer maps the prefix
            to distances afterwards. BLAS accumulates in its own order,
            so values agree with the exact kernel to float tolerance
            (~1e-13 relative) rather than bit-for-bit —
            :func:`repro.core.od.evaluate` re-verifies near-threshold
            values exactly. Components must be finite: a masked-out
            ``inf`` component turns into ``0 * inf = NaN``, which is why
            :func:`repro.core.od.knn_prefixes` sends such queries to the
            exact kernel.

        One blocking policy keeps every GEMM intermediate under
        :data:`BATCH_CHUNK_BYTES`: a query whose ``(m, n)`` product does
        not fit is streamed in column blocks through an exact k-prefix
        merge. That never changes a value: a block never splits a dot
        product's reduction axis (``d``), and the k smallest of a union
        of block k-prefixes is the global k smallest — so row ``i``
        equals the one-query call bit for bit, blocked or not. Peak
        intermediate memory is recorded on
        ``stats.extra["peak_intermediate_bytes"]``.

        *precision* selects the GEMM dtype (``"float64"`` default at this
        layer — the miner resolves ``"auto"`` and passes the tier down;
        see :func:`repro.core.precision.resolve_precision`). Under
        ``"float32"`` the product runs on pre-transposed ``(d, n)``
        float32 component copies — *components32_list* entries, built
        here via :func:`~repro.index.base.components32_from` when
        missing — and the OD layer widens its exact re-verification band
        to the rigorous float32 rounding bound, so answer *sets* stay
        identical to the float64 kernel. A query whose components
        overflow float32 runs its own product in float64.
        """
        queries = validate_query_matrix(queries, self.d)
        q_count, n = queries.shape[0], self.size
        excludes = normalize_excludes(excludes, q_count, n)
        masks = validate_prefix_request(masks, self.d, k, n, excludes)
        kernel = resolve_kernel(kernel, self.metric)
        m = masks.size
        out = np.empty((q_count, m, k))
        if q_count == 0 or m == 0:
            return out
        components = (
            [None] * q_count if components_list is None else list(components_list)
        )
        self.stats.knn_queries += q_count * m

        if kernel == "exact":
            dims_per_mask = [np.flatnonzero(row) for row in mask_matrix(masks, self.d, bool)]
            gathered_terms = 0
            for i, query in enumerate(queries):
                for j, dims in enumerate(dims_per_mask):
                    if components[i] is not None:
                        distances = self.metric.reduce_components(components[i][:, dims])
                        gathered_terms += n * dims.size
                    else:
                        distances = self.metric.pairwise(self._X, query, dims)
                        self._account_scan()
                    out[i, j] = _sorted_prefix(distances, k, excludes[i])
            if gathered_terms:
                # Component reuse redoes no per-dimension work — it re-reads
                # cached terms, so gathers get their own counter instead of
                # overstating E1–E5 distance counts with full scans.
                self.stats.bump("component_gathers", gathered_terms)
            return out

        def full(i: int) -> np.ndarray:
            """Query *i*'s float64 component matrix, built (and charged as
            one scan) at most once."""
            if components[i] is None:
                components[i] = self.metric.pairwise_components(self._X, queries[i])
                self._account_scan()
            return components[i]

        float32 = resolve_precision(precision, kernel) == "float32"
        given32 = [None] * q_count if components32_list is None else components32_list
        M = mask_matrix(masks, self.d, np.float32 if float32 else np.float64)
        for i in range(q_count):
            # The query's (d, n) right-hand operand: its float32 copy on the
            # float32 tier unless that overflows, else the float64 transpose.
            right = None
            if float32:
                right = given32[i] if given32[i] is not None else components32_from(full(i))
            if right is None:
                right = full(i).T
            left = M if right.dtype == M.dtype else M.astype(right.dtype)
            # A product slice is `block` columns wide; a query whose whole
            # product does not fit streams its slices through an exact
            # k-prefix merge.
            block = max(k, BATCH_CHUNK_BYTES // (m * left.dtype.itemsize))
            prefix = None
            for lo in range(0, n, block):
                with np.errstate(over="ignore", invalid="ignore"):
                    # Overflowing sums come out inf, which evaluate() always
                    # re-verifies; 0 * inf = NaN needs a non-finite component,
                    # and knn_prefixes() sends those queries to the exact kernel.
                    S = left @ right[:, lo : lo + block]
                self.stats.record_peak("peak_intermediate_bytes", S.nbytes)
                if excludes[i] is not None and 0 <= excludes[i] - lo < S.shape[1]:
                    S[:, excludes[i] - lo] = np.inf
                part = topk_prefix(S, min(k, S.shape[1]))
                if prefix is not None:
                    part = topk_prefix(np.concatenate([prefix, part], axis=1), k)
                prefix = part
            # The L_p finalizers are monotone, so selecting on component
            # sums selected exactly the k nearest.
            out[i] = self.metric.finalize_component_sums(prefix.astype(np.float64, copy=False))
            # Free this product (the prefix is a view of it) before the next
            # query's is allocated, so its pages are reused rather than
            # faulted in afresh; on a 2-core x86 host that took E13's
            # 4-query call from 3.0 to 2.2 ms per query at n=8000.
            del S, part, prefix
        self.stats.bump("gemm_flops", 2 * n * self.d * m * q_count)
        self.stats.bump("gemm_masks", m * q_count)
        return out

    def knn_full_prefix_batch(
        self,
        queries: np.ndarray,
        k: int,
        excludes: "Sequence[int | None] | None" = None,
    ) -> np.ndarray:
        """Sorted k-nearest *full-space* distances per query, shape
        ``(q, k)`` — exact: row ``i`` equals
        ``knn(queries[i], k, range(d), excludes[i])[1]`` bit for bit.

        The full-space work unit. Under the Euclidean metric one float64
        Gram product per block of queries screens every row, and only
        the screen's survivors are recomputed exactly. Other metrics, a
        lone query (centring the data costs about one scan, so a single
        query never wins) and any query whose screen is not finite run
        the exact scan (``pairwise`` over every row). Queries are
        screened in blocks of :data:`FULL_SPACE_BLOCK_BYTES`.

        The screen
        ----------
        Per call the data are centred on their mean ``c`` (any ``c`` is
        correct; the mean keeps the norms, hence the bound, small).
        With ``a_r = fl(x_r - c)`` and ``b = fl(q - c)`` the vectors
        actually used, each block computes

            D_r = fl(‖a_r‖² + ‖b‖² - 2·a_r·b)

        from one ``(B, d) @ (d, n)`` product, takes ``tau``, the k-th
        smallest ``D_r`` over the non-excluded rows, keeps every row
        with ``D_r <= tau + 2·delta`` and recomputes those candidates
        through ``metric.pairwise`` on ``(row, query)`` pairs — the exact
        kernel's own sequential accumulation, so each recomputed value
        is bit-identical to the scan's.

        Error bound (``delta``)
        -----------------------
        Let ``e_r`` be the exact kernel's computed squared distance, ``u
        = 2**-53``, ``gamma_m = m·u / (1 - m·u)`` (Higham, §3.1), and
        ``A_r = ‖a_r‖²``, ``B = ‖b‖²``. Then ``|D_r - e_r|`` is at most
        the sum of:

        * the Gram arithmetic against ``‖a_r - b‖²``: two norms and a
          dot product of length ``d`` in any summation order (blocked
          or FMA BLAS included) err by ``gamma_d·A_r``, ``gamma_d·B`` and,
          doubled, ``2·gamma_d·√(A_r·B) <= gamma_d·(A_r + B)``; the two
          final additions add ``4u·(A_r + B)``; together
          ``(2·gamma_d + 4u)·(A_r + B)``;
        * the centring: each coordinate of ``a_r - b`` differs from
          ``x_r - q`` by at most ``u/(1-u)·(|a_rj| + |b_j|)``, which
          moves a squared norm by at most ``4u·(A_r + B)``;
        * the exact kernel itself: ``d`` squared differences summed
          sequentially err by ``gamma_{d+2}·‖x_r - q‖²
          <= 2·gamma_{d+2}·(A_r + B)``.

        To first order in ``u`` that is ``(4d + 12)·u·(A_r + B)``.
        Underflow adds at most ``2**-1075`` per product (additions that
        underflow are exact): ``d`` products in each norm and in the
        kernel's sum, ``d`` in the dot product counted twice, so at most
        ``5d·2**-1075 < (4d + 4)·2**-1074`` in all. Hence

            delta = 8·[(4d + 12)·u·(max_r ‖a_r‖² + ‖b‖²) + (4d + 4)·2**-1074]

        with computed norms and the safety factor ``_GRAM_SAFETY = 8``
        (second-order terms, computed-for-exact norms, and the rounding
        of ``tau + 2·delta`` itself) bounds ``|D_r - e_r|`` for every
        row. Selection is then exact: the ``k`` rows with ``D_r <= tau``
        have ``e_r <= tau + delta``, so the k-th smallest ``e`` is at
        most ``tau + delta``, and every row whose ``e_r`` reaches it
        (ties included) has ``D_r <= tau + 2·delta`` — a candidate.
        The k smallest recomputed values are therefore the scan's k
        smallest, and ``sqrt`` is monotone, so the prefix is the scan's.
        Every intermediate is at most ``4·(max_r ‖a_r‖² + ‖b‖²)`` in
        magnitude; a query for which that overflows goes to the exact
        scan instead.

        Cost accounting matches the scan: one ``knn_queries`` and one
        scan of ``n`` distance computations per query.
        """
        queries = validate_query_matrix(queries, self.d)
        q_count, n, d = queries.shape[0], self.size, self.d
        excludes = normalize_excludes(excludes, q_count, n)
        require_k(k, n, excludes)
        dims = np.arange(d)
        out = np.empty((q_count, k))
        self.stats.knn_queries += q_count
        self.stats.distance_computations += q_count * n
        self.stats.node_accesses += q_count * -(-n // BLOCK_ROWS)
        settled = np.zeros(q_count, dtype=bool)
        if q_count > 1 and type(self.metric) is EuclideanMetric:
            settled = self._gram_screen(queries, k, excludes, dims, out)
        for i in np.flatnonzero(~settled):
            out[i] = _sorted_prefix(self.metric.pairwise(self._X, queries[i], dims), k, excludes[i])
        return out

    def _gram_screen(
        self,
        queries: np.ndarray,
        k: int,
        excludes: "list[int | None]",
        dims: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """The screen and exact refine of :meth:`knn_full_prefix_batch`.

        Writes the prefix of every query it settles into *out* and
        returns which queries those are; the rest need the exact scan.
        """
        X = self._X
        n, d = X.shape
        settled = np.zeros(queries.shape[0], dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            centre = np.full(n, 1.0 / n) @ X  # the mean, as one BLAS product
            data = X - centre
            norms = np.einsum("ij,ij->i", data, data)
            centred = queries - centre
            query_norms = np.einsum("ij,ij->i", centred, centred)
            reach = norms.max() + query_norms
            # Every intermediate stays below 4·reach in magnitude: a
            # finite 4·reach rules out overflow (and so NaN) in the screen.
            safe = np.isfinite(4.0 * reach)
            delta = _GRAM_SAFETY * ((4 * d + 12) * 2.0**-53 * reach + (4 * d + 4) * 2.0**-1074)
        if not safe.any():
            return settled
        block = max(1, FULL_SPACE_BLOCK_BYTES // (8 * n))
        chunk = max(1, FULL_SPACE_BLOCK_BYTES // (8 * d))
        ranks = np.arange(k)
        for lo in range(0, queries.shape[0], block):
            hi = min(lo + block, queries.shape[0])
            with np.errstate(over="ignore", invalid="ignore"):
                squared = centred[lo:hi] @ data.T
                squared *= -2.0
                squared += norms
                squared += query_norms[lo:hi, None]
            self.stats.record_peak("peak_intermediate_bytes", squared.nbytes)
            for row, exclude in enumerate(excludes[lo:hi]):
                if exclude is not None:
                    squared[row, exclude] = np.inf
            with np.errstate(over="ignore", invalid="ignore"):
                limit = topk_prefix(squared.copy(), k)[:, -1] + 2.0 * delta[lo:hi]
                candidates = squared <= limit[:, None]
            candidates[~safe[lo:hi]] = False
            rows, cols = np.nonzero(candidates)
            values = np.empty(cols.size)
            for start in range(0, cols.size, chunk):
                part = slice(start, start + chunk)
                values[part] = self.metric.pairwise(X[cols[part]], queries[lo + rows[part]], dims)
            counts = np.bincount(rows, minlength=hi - lo)
            # Always true for a safe query (k rows sit at or below tau);
            # checked so a short list can never read into the next one's.
            done = safe[lo:hi] & (counts >= k)
            starts = np.cumsum(counts) - counts
            ranked = values[np.lexsort((values, rows))]
            out[lo:hi][done] = ranked[starts[done, None] + ranks]
            settled[lo:hi] = done
        return settled

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
        dims = np.asarray(dims, dtype=np.intp)
        if dims.size == 0:
            raise ConfigurationError("a query subspace needs at least one dimension")
        if dims.min() < 0 or dims.max() >= self.d:
            raise ConfigurationError(f"dims {dims.tolist()} out of range for d={self.d}")
        return query, dims

    def _account_scan(self) -> None:
        self.stats.distance_computations += self.size
        self.stats.node_accesses += -(-self.size // BLOCK_ROWS)  # ceil division

    def __repr__(self) -> str:
        return f"LinearScanIndex(n={self.size}, d={self.d}, metric={self.metric.name})"


def _sorted_prefix(distances: np.ndarray, k: int, exclude: "int | None") -> np.ndarray:
    """The sorted k smallest of a fresh distance array, *exclude* dropped.

    In-place partition + sort of the k-prefix: the sorted k smallest
    match the sorted kNN result's value sequence exactly.
    """
    if exclude is not None:
        distances[exclude] = np.inf
    distances.partition(k - 1)
    smallest = distances[:k]
    smallest.sort()
    return smallest
