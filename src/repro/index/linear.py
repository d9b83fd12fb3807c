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

from repro.core.exceptions import ConfigurationError
from repro.core.metrics import EuclideanMetric, Metric, get_metric, resolve_kernel
from repro.core.precision import resolve_precision
from repro.index.base import (
    RowStore,
    components32_from,
    mask_matrix,
    normalize_excludes,
    require_k,
    validate_prefix_request,
    validate_query_dims,
    validate_query_matrix,
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
#: float64 squared-distance block lives in one resident workspace of
#: this size (or of one row, if a row is larger), and each slice of its
#: exact refine stays under it. Blocks never change values (every
#: reported distance is recomputed exactly). Measured on a 2-core x86
#: host at n=8000, d=12 and n=6400, d=8 (256 and 2048 queries): 2 MiB
#: blocks cost 34-46 us per query, 128 KiB blocks 117-215 us (per-block
#: overhead) and 8 MiB blocks 29-43 us for 6 MiB more held memory
#: (docs/tuning.md).
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
        Data matrix, shape ``(n, d)``, held as C-contiguous float64
        (without a copy when it already is) in a
        :class:`~repro.index.base.RowStore`, which owns insertion and
        sliding-window expiry.
    metric:
        Metric instance or registry name (default ``"euclidean"``).
    """

    def __init__(
        self,
        X: np.ndarray,
        metric: "Metric | str" = "euclidean",
    ) -> None:
        self._rows = RowStore(np.ascontiguousarray(X, dtype=np.float64))
        self.metric = get_metric(metric)
        self.stats = IndexStats()
        # The full-space screen's state: the resident operand is the
        # screen's centred data for one version of the rows, and the
        # workspace is its one block buffer. Both caches are rebuilt
        # lazily and never pickled.
        self._resident: "tuple | None" = None
        self._workspace: "np.ndarray | None" = None

    # -- KnnBackend interface ------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def d(self) -> int:
        return self._rows.data.shape[1]

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the indexed matrix."""
        return self._rows.data

    def knn(
        self,
        query: np.ndarray,
        k: int,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        query, dims = validate_query_dims(query, dims, self.d)
        require_k(k, self.size, [exclude])

        distances = self.metric.pairwise(self._rows.data, query, dims)
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
        query, _ = validate_query_dims(query, range(self.d), self.d)
        # Building the matrix is one full per-dimension pass over the
        # data — the same logical work as one full-space distance scan —
        # and is charged here, once; later component-reuse calls charge
        # only gathers (see knn_distance_prefix_batch).
        self._account_scan()
        return components_fn(self._rows.data, query)

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
        query, _ = validate_query_dims(query, range(self.d), self.d)
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
        the row-shard pool (:mod:`repro.core.shard`) merges these
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
        X = self._rows.data
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
                        distances = self.metric.pairwise(X, query, dims)
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
                components[i] = self.metric.pairwise_components(X, queries[i])
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
            # Free this product (and the selection scratch the prefix views)
            # before the next query's is allocated, so its pages are reused
            # rather than faulted in afresh; on a 2-core x86 host that took
            # E13's 4-query call from 3.0 to 2.2 ms per query at n=8000.
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
        lone query (one product, selection and refine cost more than one
        ``pairwise`` scan) and any query whose screen is not finite run
        the exact scan (``pairwise`` over every row). Queries are
        screened in blocks of :data:`FULL_SPACE_BLOCK_BYTES`.

        The screen keeps its operand resident: the centred rows, their
        squared norms and the largest norm are computed once per window
        version (every ``insert`` and ``expire`` moves the version), and
        each block's product is written into one reused workspace. A
        call owns that workspace while it runs, so the unit is not
        re-entrant on one index: threads that share an index must not
        call it concurrently.

        The screen
        ----------
        The data are centred on their mean ``c`` (any ``c`` is correct;
        the mean keeps the norms, hence the bound, small). With ``a_r =
        fl(x_r - c)`` and ``b = fl(q - c)`` the vectors actually used,
        each block computes

            D_r = fl(‖a_r‖² + ‖b‖² - 2·a_r·b)

        from one ``(B, d) @ (d, n)`` product of ``-2·b`` against the
        ``a_r`` (the factor ``-2`` is folded into the query operand;
        scaling by a power of two is exact, and the finite ``4·reach``
        check below rules out its overflow), takes ``tau``, the k-th
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
          doubled (the doubling is exact, folded into ``-2·b`` or not),
          ``2·gamma_d·√(A_r·B) <= gamma_d·(A_r + B)``; the two
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
            out[i] = _sorted_prefix(
                self.metric.pairwise(self._rows.data, queries[i], dims), k, excludes[i]
            )
        return out

    def _resident_operand(self) -> tuple:
        """``(centre, centred rows, their squared norms, the largest)``
        of the current window version, recomputed only when it moved."""
        resident = self._resident
        if resident is None or resident[0] != self._rows.version:
            X = self._rows.data
            with np.errstate(over="ignore", invalid="ignore"):
                centre = np.full(X.shape[0], 1.0 / X.shape[0]) @ X  # the mean, one product
                data = X - centre
                norms = np.einsum("ij,ij->i", data, data)
            resident = (self._rows.version, centre, data, norms, norms.max())
            self._resident = resident
        return resident[1:]

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
        X = self._rows.data
        n, d = X.shape
        settled = np.zeros(queries.shape[0], dtype=bool)
        centre, data, norms, max_norm = self._resident_operand()
        with np.errstate(over="ignore", invalid="ignore"):
            centred = queries - centre
            query_norms = np.einsum("ij,ij->i", centred, centred)
            reach = max_norm + query_norms
            # Every intermediate stays below 4·reach in magnitude: a
            # finite 4·reach rules out overflow (and so NaN) in the screen.
            safe = np.isfinite(4.0 * reach)
            delta = _GRAM_SAFETY * ((4 * d + 12) * 2.0**-53 * reach + (4 * d + 4) * 2.0**-1074)
            left = -2.0 * centred  # D_r's factor -2, folded in exactly
        if not safe.any():
            return settled
        block = max(1, FULL_SPACE_BLOCK_BYTES // (8 * n))
        if self._workspace is None or self._workspace.size < block * n:
            self._workspace = np.empty(max(FULL_SPACE_BLOCK_BYTES // 8, block * n))
        chunk = max(1, FULL_SPACE_BLOCK_BYTES // (8 * d))
        ranks = np.arange(k)
        # (query, row) pairs to exclude, as two index arrays.
        excluded = np.array([i for i, row in enumerate(excludes) if row is not None], dtype=np.intp)
        excluded_rows = np.array([excludes[i] for i in excluded], dtype=np.intp)
        for lo in range(0, queries.shape[0], block):
            hi = min(lo + block, queries.shape[0])
            squared = self._workspace[: (hi - lo) * n].reshape(hi - lo, n)
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(left[lo:hi], data.T, out=squared)
                squared += norms
                squared += query_norms[lo:hi, None]
            self.stats.record_peak("peak_intermediate_bytes", squared.nbytes)
            here = (excluded >= lo) & (excluded < hi)
            squared[excluded[here] - lo, excluded_rows[here]] = np.inf
            with np.errstate(over="ignore", invalid="ignore"):
                limit = topk_prefix(squared, k)[:, -1] + 2.0 * delta[lo:hi]
                candidates = squared <= limit[:, None]
            candidates[~safe[lo:hi]] = False
            rows, cols = np.divmod(np.flatnonzero(candidates), n)
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
        query, dims = validate_query_dims(query, dims, self.d)
        if radius < 0:
            raise ConfigurationError(f"radius must be non-negative, got {radius}")
        distances = self.metric.pairwise(self._rows.data, query, dims)
        self._account_scan()
        hits = distances <= radius
        if exclude is not None:
            hits[exclude] = False
        self.stats.range_queries += 1
        return np.flatnonzero(hits)

    def insert(self, point: np.ndarray) -> int:
        """Append a point to the scanned matrix; returns its row id,
        amortised O(d) (:meth:`~repro.index.base.RowStore.append`)."""
        return self._rows.append(point)

    def expire(self, count: int) -> np.ndarray:
        """Drop the ``count`` oldest rows; returns a copy of them. O(1)
        plus that copy (:meth:`~repro.index.base.RowStore.expire`); row
        ids shift down by ``count`` — window coordinates, matching
        :attr:`data`."""
        return self._rows.expire(count)

    # -- internals ------------------------------------------------------------
    def _account_scan(self) -> None:
        self.stats.distance_computations += self.size
        self.stats.node_accesses += -(-self.size // BLOCK_ROWS)  # ceil division

    def __getstate__(self) -> dict:
        # The screen's caches stay out of the pickle; they are rebuilt
        # lazily.
        state = self.__dict__.copy()
        state["_resident"] = state["_workspace"] = None
        return state

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
