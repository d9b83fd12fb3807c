"""VA-file: vector-approximation file (Weber, Schek & Blott, VLDB'98).

The third kNN substrate. Where the X-tree fights the curse of
dimensionality with supernodes, the VA-file embraces the sequential
scan: every point is approximated by ``bits`` quantisation bits per
dimension, and a query first scans the tiny approximation file to
derive a *lower* and *upper* bound of each point's distance, then
refines exact distances only for the survivors. In high dimensions this
filters out the vast majority of exact distance computations while
reading a file ~``64 / bits`` times smaller than the data.

Subspace queries come for free: bounds are combined only over the
queried dimensions.

Algorithm (the two-phase "VA-SSA" variant):

1. scan approximations: per point, a lower bound ``L_i`` (distance from
   the query to the point's cell box) and an upper bound ``U_i``
   (distance to the farthest cell corner);
2. ``tau`` = the k-th smallest upper bound — the true k-th neighbour
   distance cannot exceed it;
3. refine exactly the candidates with ``L_i <= tau``. Every pruned
   point has true distance ``>= L_i > tau >= d_k``, so the answer (and
   even its deterministic tie order) matches the linear scan exactly.

Bounds are metric-aware for every built-in L_p metric (per-dimension
gaps combined by the metric's own aggregation); custom metrics are
rejected at construction rather than silently mis-bounded.

Insertions append to the approximation file in place using the
quantisation grid frozen at build time; coordinates outside the
original data range clamp to the edge cells, which only loosens bounds
(never correctness). Rows and codes live in two
:class:`~repro.index.base.RowStore` instances that grow and expire
together (see :meth:`VAFile.expire`), so the streaming engine never
rebuilds the file.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.metrics import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    Metric,
    MinkowskiMetric,
    get_metric,
    resolve_kernel,
)
from repro.core.precision import resolve_precision, reverify_rtol
from repro.index.base import (
    RowStore,
    mask_matrix,
    normalize_excludes,
    require_k,
    validate_prefix_request,
    validate_query_dims,
    validate_query_matrix,
)
from repro.index.stats import IndexStats

__all__ = ["VAFile", "APPROX_BLOCK_ROWS"]

#: Approximation rows per simulated disk block for node-access
#: accounting. Approximation entries are `bits`-per-dimension instead of
#: 64, so a block holds proportionally more of them than raw vectors.
APPROX_BLOCK_ROWS = 512


def _metric_order(metric: Metric) -> float:
    """The L_p order used to combine per-dimension gap vectors."""
    if isinstance(metric, EuclideanMetric):
        return 2.0
    if isinstance(metric, ManhattanMetric):
        return 1.0
    if isinstance(metric, ChebyshevMetric):
        return float("inf")
    if isinstance(metric, MinkowskiMetric):
        return metric.p
    raise ConfigurationError(
        f"VAFile needs an L_p metric to derive bounds, got {metric!r}"
    )


def _combine(gaps: np.ndarray, order: float) -> np.ndarray:
    """Aggregate per-dimension gaps (n, |dims|) into distances (n,)."""
    if order == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", gaps, gaps))
    if order == 1.0:
        return gaps.sum(axis=1)
    if order == float("inf"):
        return gaps.max(axis=1)
    return np.power(np.power(gaps, order).sum(axis=1), 1.0 / order)


class VAFile:
    """Vector-approximation file over a (growable) data matrix.

    Parameters
    ----------
    X:
        Initial data matrix ``(n, d)``.
    metric:
        Any built-in L_p metric (instance or name).
    bits:
        Quantisation bits per dimension (``2**bits`` cells); the
        classic sweet spot is 4–8.
    partitioning:
        ``"equi_width"`` (default) or ``"equi_depth"`` cell boundaries.
        Equi-depth adapts to skew at the cost of a sort per dimension.
    """

    def __init__(
        self,
        X: np.ndarray,
        metric: "Metric | str" = "euclidean",
        bits: int = 6,
        partitioning: str = "equi_width",
    ) -> None:
        self._rows = RowStore(np.ascontiguousarray(X, dtype=np.float64))
        X = self._rows.data
        if not 1 <= bits <= 16:
            raise ConfigurationError(f"bits must be in [1, 16], got {bits}")
        if partitioning not in ("equi_width", "equi_depth"):
            raise ConfigurationError(
                f"partitioning must be 'equi_width' or 'equi_depth', got {partitioning!r}"
            )
        self.metric = get_metric(metric)
        self._order = _metric_order(self.metric)
        self.bits = bits
        self.partitioning = partitioning
        self.cells = 1 << bits
        self.stats = IndexStats()
        n, d = X.shape
        #: Cell boundaries, shape (d, cells + 1); cell c of dim j spans
        #: [boundaries[j, c], boundaries[j, c + 1]].
        self.boundaries = np.empty((d, self.cells + 1))
        for dim in range(d):
            column = X[:, dim]
            if partitioning == "equi_width":
                low, high = float(column.min()), float(column.max())
                if high <= low:
                    high = low + 1.0  # constant column: one fat cell
                self.boundaries[dim] = np.linspace(low, high, self.cells + 1)
            else:
                quantiles = np.linspace(0.0, 1.0, self.cells + 1)
                edges = np.quantile(column, quantiles)
                # Strictly increasing edges (ties collapse cells).
                edges = np.maximum.accumulate(edges)
                for i in range(1, edges.size):
                    if edges[i] <= edges[i - 1]:
                        edges[i] = edges[i - 1] + 1e-12
                self.boundaries[dim] = edges
        codes = np.empty((n, d), dtype=np.uint16)
        for dim in range(d):
            codes[:, dim] = self._quantise(X[:, dim], dim)
        #: The approximation file: row i's cell per dimension.
        self._codes = RowStore(codes)

    # ------------------------------------------------------------------
    # KnnBackend interface
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def d(self) -> int:
        return self._rows.data.shape[1]

    @property
    def data(self) -> np.ndarray:
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

        lower, upper = self._bounds(query, dims)
        if exclude is not None:
            lower[exclude] = np.inf
            upper[exclude] = np.inf
        tau = np.partition(upper, k - 1)[k - 1]
        candidates = np.flatnonzero(lower <= tau)
        self.stats.bump("candidates_refined", int(candidates.size))

        distances = self.metric.pairwise(self._rows.data[candidates], query, dims)
        self.stats.distance_computations += int(candidates.size)
        self.stats.node_accesses += int(candidates.size)  # one row read each
        order = np.lexsort((candidates, distances))[:k]
        self.stats.knn_queries += 1
        return candidates[order], distances[order]

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
        pair, shape ``(q, m, k)`` — the VA-file's one prefix kernel.

        *masks* is a 1-D integer array of subspace bitmasks, checked by
        :func:`~repro.index.base.validate_prefix_request`. Per query,
        subspace bounds come from the approximation file
        (:meth:`_mask_candidates`), the survivors are refined exactly
        (:meth:`_refine_prefix`), and the ``k`` smallest exact distances
        come back ascending — so every row is bit-identical to
        ``knn(...)[1]`` under **either** kernel (the kernels differ only
        in how the candidate prefilter is computed, and any superset of
        the true kNN refines to the same answer). The same holds for a
        shard-local view in the row-shard pool
        (:mod:`repro.core.shard`): refinement is exact per row and never
        crosses shard boundaries, so the cross-shard merge of the
        partials is the global exact prefix. Candidate refinement is
        query-local, so queries run one after another; each still gets
        the one-pass gap tables and two-GEMM bound derivation.

        ``kernel="gemm"`` builds per-dimension lower/upper gap component
        tables once per query (power-domain, one approximation-file
        pass) and derives every subspace's bounds with two ``M @ G.T``
        GEMMs; a tiny relative slack on the pruning comparison absorbs
        the BLAS accumulation-order difference, which can only *add*
        candidates, never lose a true neighbour. Under
        ``precision="float32"`` the two bound GEMMs inherit the float32
        tier: gap tables are cast once per query and the slack widens to
        the rigorous float32 rounding band
        (:func:`repro.core.precision.reverify_rtol`) on *both* sides of
        the comparison, so the candidate set can again only grow —
        refinement stays exact, hence values stay bit-identical at any
        precision (overflowing gap tables or a non-finite bound product
        silently fall back to float64). ``kernel="exact"`` computes
        bounds per mask exactly as :meth:`knn` does. The
        *components_list*/*components32_list* arguments are accepted for
        interface parity and ignored — refinement always gathers exact
        rows itself.
        """
        del components_list, components32_list  # interface parity
        queries = validate_query_matrix(queries, self.d)
        excludes = normalize_excludes(excludes, queries.shape[0], self.size)
        masks = validate_prefix_request(masks, self.d, k, self.size, excludes)
        kernel = resolve_kernel(kernel, self.metric)
        out = np.empty((queries.shape[0], masks.size, k))
        if not masks.size:
            return out
        selection = mask_matrix(masks, self.d, bool)
        dims_per_mask = [np.flatnonzero(row) for row in selection]
        for i, (query, exclude) in enumerate(zip(queries, excludes)):
            candidates = self._mask_candidates(
                query, k, selection, exclude, kernel, precision
            )
            for j, dims in enumerate(dims_per_mask):
                out[i, j] = self._refine_prefix(query, k, dims, candidates[j])
        self.stats.knn_queries += out.shape[0] * out.shape[1]
        return out

    def _mask_candidates(
        self,
        query: np.ndarray,
        k: int,
        selection: np.ndarray,
        exclude: int | None,
        kernel: str,
        precision: str,
    ) -> "list[np.ndarray]":
        """Per-mask candidate supersets of the true kNN (bounds prefilter).

        The front half of :meth:`knn_distance_prefix_batch` — see its
        docstring for the bound derivation and the float32 slack
        argument. *selection* is the masks' boolean
        :func:`~repro.index.base.mask_matrix`.
        """
        count = selection.shape[0]
        candidates_list: list[np.ndarray] = []
        if kernel == "gemm":
            lower_gaps, upper_gaps = self._gap_components(query)
            precision = resolve_precision(precision, kernel)
            # Power-domain bounds for every (point, subspace) pair in
            # two GEMMs; the L_p root is monotone, so candidate
            # selection can stay in the power domain.
            SL = SU = None
            rtol = 1e-9
            # Non-finite casts and products are handled below: overflow
            # drops the float32 tier, and the negated candidate test keeps
            # inf/NaN bounds as candidates for exact refinement.
            with np.errstate(over="ignore", invalid="ignore"):
                if precision == "float32":
                    L32 = np.ascontiguousarray(lower_gaps.T, dtype=np.float32)
                    U32 = np.ascontiguousarray(upper_gaps.T, dtype=np.float32)
                    if np.isfinite(L32).all() and np.isfinite(U32).all():
                        M32 = selection.astype(np.float32)
                        SL = M32 @ L32
                        SU = M32 @ U32
                        if np.isfinite(SL).all() and np.isfinite(SU).all():
                            rtol = reverify_rtol(precision, self.d)
                        else:
                            SL = SU = None  # accumulation overflow: use float64
                if SL is None:
                    M = selection.astype(np.float64)
                    SL = M @ lower_gaps.T
                    SU = M @ upper_gaps.T
            self.stats.record_peak(
                "peak_intermediate_bytes", SL.nbytes + SU.nbytes
            )
            if exclude is not None:
                SL[:, exclude] = np.inf
                SU[:, exclude] = np.inf
            SU.partition(k - 1, axis=1)
            taus = SU[:, k - 1]
            self.stats.mindist_computations += count * self.size
            self.stats.bump("gemm_flops", 2 * 2 * self.size * self.d * count)
            self.stats.bump("gemm_masks", count)
            for j in range(count):
                # Slack absorbs GEMM-vs-exact bound noise (and, at
                # float32, the full rounding band on both comparison
                # sides): loosening the filter only adds refinements,
                # never drops a neighbour. The negated comparison keeps
                # non-finite bounds (gap overflow to inf can make the
                # product NaN) on the candidate side — refinement is
                # exact, so pathological rows cost time, never answers.
                slack = rtol * (float(taus[j]) + 1.0)
                candidates_list.append(
                    np.flatnonzero(~(SL[j] > taus[j] + slack))
                )
        else:
            for row in selection:
                lower, upper = self._bounds(query, np.flatnonzero(row))
                if exclude is not None:
                    lower[exclude] = np.inf
                    upper[exclude] = np.inf
                tau = np.partition(upper, k - 1)[k - 1]
                candidates_list.append(np.flatnonzero(lower <= tau))
        return candidates_list

    def _refine_prefix(
        self, query: np.ndarray, k: int, dims: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Exact sorted k-nearest distances over a candidate superset."""
        self.stats.bump("candidates_refined", int(candidates.size))
        distances = self.metric.pairwise(self._rows.data[candidates], query, dims)
        self.stats.distance_computations += int(candidates.size)
        self.stats.node_accesses += int(candidates.size)
        distances.partition(k - 1)
        smallest = distances[:k]
        smallest.sort()
        return smallest

    def _gap_components(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension power-domain gap tables, each ``(n, d)``.

        One approximation-file pass builds the lower-bound (cell gap)
        and upper-bound (farthest corner) contribution of every
        ``(point, dim)`` pair; any subspace's bounds are then plain sums
        of columns — exactly the shape the mask-matrix GEMM consumes.
        Chebyshev never reaches here (``resolve_kernel`` routes its
        max-reduction to the exact kernel).
        """
        n, d = self.size, self.d
        lower_gaps = np.empty((n, d))
        upper_gaps = np.empty((n, d))
        for dim in range(d):
            edges = self.boundaries[dim]
            q = query[dim]
            cell_lower = edges[:-1]
            cell_upper = edges[1:]
            low_gap = np.maximum(0.0, np.maximum(cell_lower - q, q - cell_upper))
            up_gap = np.maximum(np.abs(q - cell_lower), np.abs(q - cell_upper))
            # Gaps too large to raise to the power become inf; the bound
            # GEMMs in _mask_candidates keep such rows as candidates.
            with np.errstate(over="ignore"):
                if self._order == 2.0:
                    low_gap = low_gap * low_gap
                    up_gap = up_gap * up_gap
                elif self._order != 1.0:
                    low_gap = np.power(low_gap, self._order)
                    up_gap = np.power(up_gap, self._order)
            codes = self._codes.data[:, dim]
            lower_gaps[:, dim] = low_gap[codes]
            upper_gaps[:, dim] = up_gap[codes]
        self.stats.node_accesses += -(-n // APPROX_BLOCK_ROWS)
        return lower_gaps, upper_gaps

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
        lower, _ = self._bounds(query, dims)
        candidates = np.flatnonzero(lower <= radius)
        self.stats.bump("candidates_refined", int(candidates.size))
        distances = self.metric.pairwise(self._rows.data[candidates], query, dims)
        self.stats.distance_computations += int(candidates.size)
        self.stats.node_accesses += int(candidates.size)
        hits = candidates[distances <= radius]
        if exclude is not None:
            hits = hits[hits != exclude]
        self.stats.range_queries += 1
        return np.sort(hits)

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray) -> int:
        """Append a point; returns its row id.

        Amortised O(d): the point and its approximation cells are
        appended to their row stores. The *interior* grid
        boundaries are frozen, but an out-of-range coordinate stretches
        the outermost edge to cover it: the point lands in an edge cell
        whose interval genuinely contains it, so its bounds stay valid.
        Widening an edge cell never invalidates existing codes — points
        already in that cell remain inside the wider interval, their
        bounds only loosen, and refinement is exact either way. (Merely
        *clamping* an outside point into an unstretched edge cell would
        be wrong: the cell-gap lower bound could exceed the point's true
        distance and prune it off a k-NN set it belongs to.)
        """
        row = self._rows.append(point)
        point = self._rows.data[row]
        for dim in range(self.d):
            edges = self.boundaries[dim]
            if point[dim] < edges[0]:
                edges[0] = point[dim]
            elif point[dim] > edges[-1]:
                edges[-1] = point[dim]
        self._codes.append(
            [self._quantise(point[dim : dim + 1], dim)[0] for dim in range(self.d)]
        )
        return row

    def expire(self, count: int) -> np.ndarray:
        """Drop the ``count`` oldest rows; returns a copy of them.

        O(1) per call (plus the O(count·d) copy handed back for delta
        cache invalidation): both row stores advance their head
        (:meth:`~repro.index.base.RowStore.expire`). The quantisation
        grid stays frozen — bounds remain valid for any grid and
        refinement is exact, so answers match a freshly built VA-file
        element-wise even though candidate-set sizes may differ.
        """
        removed = self._rows.expire(count)
        self._codes.expire(count)
        return removed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _quantise(self, values: np.ndarray, dim: int) -> np.ndarray:
        cells = np.searchsorted(self.boundaries[dim][1:-1], values, side="right")
        return np.clip(cells, 0, self.cells - 1).astype(np.uint16)

    def _bounds(self, query: np.ndarray, dims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-point lower/upper distance bounds over *dims*."""
        n = self.size
        gaps_lower = np.empty((n, dims.size))
        gaps_upper = np.empty((n, dims.size))
        for j, dim in enumerate(dims):
            edges = self.boundaries[dim]
            q = query[dim]
            cell_lower = edges[:-1]
            cell_upper = edges[1:]
            # Distance from q to each cell interval (0 inside) and to the
            # farthest end of each interval — precomputed per cell, then
            # gathered through the approximation column.
            low_gap = np.maximum(0.0, np.maximum(cell_lower - q, q - cell_upper))
            up_gap = np.maximum(np.abs(q - cell_lower), np.abs(q - cell_upper))
            codes = self._codes.data[:, dim]
            gaps_lower[:, j] = low_gap[codes]
            gaps_upper[:, j] = up_gap[codes]
        self.stats.node_accesses += -(-n // APPROX_BLOCK_ROWS)
        self.stats.mindist_computations += n
        return _combine(gaps_lower, self._order), _combine(gaps_upper, self._order)

    def candidate_fraction(self) -> float:
        """Average fraction of points refined exactly per query so far —
        the VA-file's headline selectivity figure."""
        queries = self.stats.knn_queries + self.stats.range_queries
        if queries == 0:
            return 0.0
        return self.stats.extra.get("candidates_refined", 0) / (queries * self.size)

    def __repr__(self) -> str:
        return (
            f"VAFile(n={self.size}, d={self.d}, bits={self.bits}, "
            f"partitioning={self.partitioning!r})"
        )
