"""The HOS-Miner facade — Figure 2's four modules wired together.

``fit`` builds the index (X-tree Indexing module), calibrates the
threshold if asked, and runs the Sample-based Learning module;
``query*`` run the Dynamic Subspace Search for a point and push the
answer through the Filtering module. A fitted miner is reusable across
any number of query points, which is the intended demo workflow.

Typical use::

    from repro import HOSMiner
    miner = HOSMiner(k=5, threshold=12.0, sample_size=10).fit(X)
    result = miner.query_row(42)          # a dataset member
    result = miner.query_point(vector)    # an external point
    print(result.explain())
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.batch import BatchQueryEngine
from repro.core.config import HOSMinerConfig, require_integer
from repro.core.exceptions import (
    ConfigurationError,
    DataShapeError,
    DimensionalityError,
    NotFittedError,
)
from repro.core.filtering import minimal_masks
from repro.core.lattice import MAX_LATTICE_DIM
from repro.core.learning import LearningReport, learn_priors
from repro.core.metrics import resolve_kernel
from repro.core.od import ODEvaluator, SharedODCache, full_space_ods
from repro.core.precision import resolve_precision
from repro.core.priors import PruningPriors
from repro.core.result import BatchResult, OutlyingSubspaceResult
from repro.core.search import (
    ADAPTIVE_PRIOR_WEIGHT,
    DynamicSubspaceSearch,
    SearchOutcome,
    SearchStats,
)
from repro.core.subspace import Subspace, full_mask, ordered_masks
from repro.index import make_backend
from repro.index.base import KnnBackend, as_float64, require_finite

if TYPE_CHECKING:
    from repro.core.shard import ShardPool

__all__ = ["HOSMiner", "calibrate_threshold"]


def calibrate_threshold(
    backend: KnnBackend,
    X: np.ndarray,
    k: int,
    quantile: float = 0.995,
    sample: int = 256,
    seed: int | None = 0,
    shared_cache: SharedODCache | None = None,
) -> float:
    """Pick ``T`` as a quantile of *full-space* ODs over sampled rows.

    Under OD monotonicity the full space maximises OD over all
    subspaces, so a point has *some* outlying subspace iff its
    full-space OD reaches ``T``. Setting ``T`` at, say, the 0.995
    full-space quantile therefore flags roughly the top 0.5% of points
    as outliers-somewhere — a practical way to anchor the paper's
    otherwise user-supplied threshold.

    The sampled ODs come from one settle step on the full space
    (:func:`~repro.core.od.full_space_ods`), so every value is exact
    and ``T`` is the quantile of exact values. When *shared_cache* is
    given, every computed full-space OD is published under its row and
    the full mask with its exact kth distance as the delta bound, so
    later batched queries of the same rows replay the value instead of
    redoing kNN.
    """
    if not 0.0 < quantile < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {quantile}")
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    rows = (
        np.arange(n)
        if sample >= n
        else np.sort(rng.choice(n, size=sample, replace=False))
    )
    values, bounds = full_space_ods(backend, X[rows], k, rows.tolist())
    if shared_cache is not None:
        mask = full_mask(backend.d)
        for row, value, bound in zip(rows.tolist(), values.tolist(), bounds.tolist()):
            shared_cache.put(shared_cache.point_key(X[row], row), mask, value, kth=bound)
    return float(np.quantile(values, quantile))


class HOSMiner:
    """Detect the outlying subspaces of query points (the paper's system).

    Parameters may be given as a prebuilt :class:`HOSMinerConfig` or as
    keyword overrides of the defaults::

        HOSMiner(k=8, threshold=30.0, index="xtree", sample_size=20)
    """

    def __init__(self, config: HOSMinerConfig | None = None, **overrides) -> None:
        if config is not None and overrides:
            raise ConfigurationError("pass either a config object or keyword overrides")
        self.config = config if config is not None else HOSMinerConfig(**overrides)
        self._fitted = False
        self._backend: KnnBackend | None = None
        self._threshold: float | None = None
        self._priors: PruningPriors | None = None
        self._learning_report: LearningReport | None = None
        self._feature_names: list[str] | None = None
        self._od_cache: SharedODCache | None = None
        self._kernel: str | None = None
        self._precision: str | None = None
        self._shard_pool: "ShardPool | None" = None
        self.fit_time_s: float = 0.0

    # ------------------------------------------------------------------
    # Fit
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, feature_names: list[str] | None = None) -> "HOSMiner":
        """Index the dataset, calibrate ``T`` if needed, learn the priors."""
        start = time.perf_counter()
        # A refit invalidates the shard pool's shards; the next
        # multi-worker batch rebuilds it.
        self.close()
        # A private copy: as_float64 hands back the caller's own array when
        # it is already C-contiguous float64, and the fitted index (and its
        # full-space screen's resident operand) must not see later writes.
        X = as_float64(X, "data").copy()
        if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 1:
            raise DataShapeError(
                f"expected an (n >= 2, d >= 1) matrix, got shape {X.shape}"
            )
        require_finite(X, "data row")
        if X.shape[1] > MAX_LATTICE_DIM:
            # Checked before anything is built: no search could run.
            raise DimensionalityError(
                f"d={X.shape[1]} exceeds the materialised-lattice cap of "
                f"{MAX_LATTICE_DIM}; reduce the dimensionality (e.g. by feature selection)"
            )
        if self.config.k > X.shape[0] - 1:
            raise ConfigurationError(
                f"k={self.config.k} needs at least k+1={self.config.k + 1} rows, "
                f"got {X.shape[0]}"
            )
        if feature_names is not None and len(feature_names) != X.shape[1]:
            raise ConfigurationError(
                f"{len(feature_names)} feature names for {X.shape[1]} columns"
            )

        # From here on the previous fit's state is being replaced; a fit
        # that fails part-way leaves the miner unfitted. The backend holds
        # the one copy of the window (its data).
        self._fitted = False
        self._feature_names = list(feature_names) if feature_names else None
        self._backend = make_backend(
            self.config.index, X, metric=self.config.metric, **self.config.index_options
        )
        # Resolve the OD-kernel selector against the *actual* metric and
        # backend before any search runs: an explicit kernel="gemm" that
        # cannot be served must fail here, loudly, not deep inside a
        # query — and "auto" must report the kernel that will really run.
        self._kernel = resolve_kernel(self.config.kernel, self._backend.metric)
        if self._kernel == "gemm" and not hasattr(
            self._backend, "knn_distance_prefix_batch"
        ):
            if self.config.kernel == "gemm":
                raise ConfigurationError(
                    f"kernel='gemm' requires a backend with the level-wide "
                    f"knn_distance_prefix_batch kernel; index {self.config.index!r} "
                    f"answers kNN per subspace — use kernel='auto' or 'exact'"
                )
            self._kernel = "exact"
        # The precision tier resolves against the kernel that will
        # really run: float32 only ever rides the GEMM product.
        self._precision = resolve_precision(self.config.precision, self._kernel)
        # Per-fit shared OD cache: calibration and learning publish every
        # OD they compute, so batched queries of already-touched rows
        # replay fit-time work instead of redoing it.
        self._od_cache = SharedODCache()

        if self.config.threshold is not None:
            self._threshold = float(self.config.threshold)
        else:
            self._threshold = self._calibrate()

        self._learning_report = learn_priors(
            self._backend,
            X,
            self.config.k,
            self._threshold,
            self.config.sample_size,
            seed=self.config.seed,
            reselect=self.config.reselect,
            adaptive=self.config.adaptive,
            shared_cache=self._od_cache,
            kernel=self._kernel,
            precision=self._precision,
        )
        self._priors = self._learning_report.priors
        self._fitted = True
        self._od_cache.trim()
        self.fit_time_s = time.perf_counter() - start
        return self

    # ------------------------------------------------------------------
    # Fitted state accessors
    # ------------------------------------------------------------------
    @property
    def threshold_(self) -> float:
        """The operative distance threshold ``T`` (set or calibrated)."""
        self._require_fitted()
        return self._threshold  # type: ignore[return-value]

    @property
    def priors_(self) -> PruningPriors:
        """Learned (or uniform, when ``sample_size=0``) pruning priors."""
        self._require_fitted()
        return self._priors  # type: ignore[return-value]

    @property
    def learning_report_(self) -> LearningReport:
        self._require_fitted()
        return self._learning_report  # type: ignore[return-value]

    @property
    def backend_(self) -> KnnBackend:
        self._require_fitted()
        return self._backend  # type: ignore[return-value]

    @property
    def od_cache_(self) -> SharedODCache:
        """The per-fit shared OD cache (populated by calibration, the
        learning pass and batched queries; invalidated on refit/extend)."""
        self._require_fitted()
        return self._od_cache  # type: ignore[return-value]

    @property
    def kernel_(self) -> str:
        """The resolved OD kernel (``"gemm"`` or ``"exact"``) — the
        config's ``"auto"`` resolved against the fitted metric."""
        self._require_fitted()
        return self._kernel  # type: ignore[return-value]

    @property
    def precision_(self) -> str:
        """The resolved GEMM precision tier (``"float32"`` or
        ``"float64"``) — the config's ``"auto"`` resolved against the
        fitted kernel."""
        self._require_fitted()
        return self._precision  # type: ignore[return-value]

    @property
    def d_(self) -> int:
        self._require_fitted()
        return self._backend.d  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def extend(self, rows: np.ndarray, refresh: str = "none") -> "HOSMiner":
        """Append new dataset rows to a fitted miner.

        All four backends support insertion (the trees run their full
        split/supernode machinery). ``refresh`` controls how much of the
        fitted state is recomputed afterwards:

        * ``"none"`` (default) — keep the current ``T`` and priors;
          right for a trickle of new points.
        * ``"threshold"`` — recalibrate ``T`` (only when it was
          auto-calibrated; an explicit ``threshold`` is never touched).
        * ``"full"`` — recalibrate ``T`` and rerun the learning pass.

        A recalibrated ``T`` of 0 raises
        :class:`~repro.core.exceptions.ConfigurationError`, as in
        :meth:`fit`, before ``T`` is replaced. The miner then stays
        fitted as after ``refresh="none"``: the rows are inserted, the
        OD cache holds only the calibration's values for the grown
        data, and ``T`` and the priors are the previous ones.

        Zero rows do not change the window, so ``extend`` returns after
        validating them and keeps the OD cache, the shard pool, ``T``
        and the priors, whatever ``refresh`` says.
        """
        self._require_fitted()
        if refresh not in ("none", "threshold", "full"):
            raise ConfigurationError(
                f"refresh must be 'none', 'threshold' or 'full', got {refresh!r}"
            )
        if self._insert_rows(rows).shape[0] == 0:
            return self
        # New rows can change any point's neighbour set in any subspace,
        # so every cached OD value is stale from here on. The shard pool
        # holds pre-extend shards, equally stale.
        self._od_cache.invalidate()  # type: ignore[union-attr]
        self.close()

        if refresh in ("threshold", "full") and self.config.threshold is None:
            self._threshold = self._calibrate()
        if refresh == "full":
            self._learning_report = learn_priors(
                self._backend,
                self._backend.data,  # type: ignore[union-attr]
                self.config.k,
                self._threshold,
                min(self.config.sample_size, self._backend.size),  # type: ignore[union-attr]
                seed=self.config.seed,
                reselect=self.config.reselect,
                adaptive=self.config.adaptive,
                shared_cache=self._od_cache,
                kernel=self._kernel,
                precision=self._precision,
            )
            self._priors = self._learning_report.priors
        self._od_cache.trim()  # type: ignore[union-attr]
        return self

    # ------------------------------------------------------------------
    # Streaming (incremental window updates)
    # ------------------------------------------------------------------
    def insert(self, X_new: np.ndarray) -> "HOSMiner":
        """Insert rows incrementally: in-place index growth, delta cache
        invalidation, live shard-pool propagation.

        The streaming counterpart of :meth:`extend`: instead of dropping
        every cached OD and the shard pool, only cache entries whose
        kNN k-prefix *could* contain an inserted row are evicted
        (:meth:`~repro.core.od.SharedODCache.delta_insert`), and a live
        row-shard pool absorbs the rows into its tail shard instead of
        being torn down. ``T`` and the priors are kept — the threshold is
        part of the window's query contract (see docs/streaming.md), and
        priors only steer search order, never answers. Answers after any
        insert are element-wise identical to a fresh fit on the grown
        window with the same explicit threshold.
        """
        self._require_fitted()
        X_new = self._insert_rows(X_new)
        if X_new.shape[0] == 0:
            return self
        self._od_cache.delta_insert(  # type: ignore[union-attr]
            X_new, self._backend.data, self._backend.metric  # type: ignore[union-attr]
        )
        self._propagate_update(X_new, 0)
        return self

    def expire(self, n_oldest: int) -> "HOSMiner":
        """Expire the ``n_oldest`` rows from the window's head.

        Only the windowed backends (``linear``, ``vafile``) support
        expiry — the trees would need deletion machinery the paper's
        system never had. Row ids shift down by ``n_oldest`` (window
        coordinates); cached ODs survive when their kth-distance bound
        proves no expired row was among their k neighbours, and keep
        their keys (the cache numbers rows absolutely).
        """
        self._require_fitted()
        n_oldest = require_integer("n_oldest", n_oldest)
        if n_oldest < 1:
            raise ConfigurationError(f"n_oldest must be >= 1, got {n_oldest}")
        if not hasattr(self._backend, "expire"):
            raise ConfigurationError(
                f"index {self.config.index!r} does not support windowed expiry; "
                f"use index='linear' or 'vafile' for streaming"
            )
        remaining = self._backend.size - n_oldest  # type: ignore[union-attr]
        if remaining < self.config.k + 1:
            raise ConfigurationError(
                f"expiring {n_oldest} rows would leave {remaining} < k+1="
                f"{self.config.k + 1} rows in the window"
            )
        expired = self._backend.expire(n_oldest)  # type: ignore[union-attr]
        self._od_cache.delta_expire(  # type: ignore[union-attr]
            expired, n_oldest, self._backend.data, self._backend.metric  # type: ignore[union-attr]
        )
        self._propagate_update(None, n_oldest)
        return self

    def _insert_rows(self, rows) -> np.ndarray:
        """The one row intake of :meth:`extend` and :meth:`insert`.

        *rows* (one row or a matrix) are checked at the API boundary —
        float64-convertible, ``d`` columns, every coordinate finite —
        before any is inserted, then inserted into the backend one by
        one. Returns them as a float64 matrix.
        """
        rows = np.atleast_2d(as_float64(rows, "new rows"))
        if rows.ndim != 2 or rows.shape[1] != self.d_:
            raise DataShapeError(
                f"new rows have shape {rows.shape}, the miner was fitted on d={self.d_}"
            )
        require_finite(rows, "new row")
        for row in rows:
            self._backend.insert(row)  # type: ignore[union-attr]
        return rows

    def _propagate_update(self, rows: "np.ndarray | None", expired: int) -> None:
        """Follow a window update in the live shard pool, in place
        (:meth:`~repro.core.shard.ShardPool.apply_update`); a closed
        pool is left for the next batch to rebuild."""
        pool = self._shard_pool
        if pool is not None and not pool.closed:
            pool.apply_update(rows, expired)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, target: "int | np.ndarray") -> OutlyingSubspaceResult:
        """Dispatch: an integer is a dataset row, a vector an external point."""
        if isinstance(target, (int, np.integer)):
            return self.query_row(target)
        return self.query_point(target)

    def query_row(self, row: int) -> OutlyingSubspaceResult:
        """Outlying subspaces of dataset member *row* (self excluded from
        its own neighbour sets)."""
        return self._run_query(*self._resolve_target(row, is_row=True))

    def query_point(self, point: np.ndarray) -> OutlyingSubspaceResult:
        """Outlying subspaces of an external point."""
        return self._run_query(*self._resolve_target(point, is_row=False))

    def query_batch(
        self,
        targets: "np.ndarray | Sequence[int | np.ndarray]",
        workers: "int | None" = None,
    ) -> BatchResult:
        """Answer many queries at once through the batched engine.

        Accepts a ``(m, d)`` matrix of external points, a sequence of
        dataset row ids, a single vector, or a mixed sequence of rows
        and vectors. Per-point answers are element-wise identical to
        sequential :meth:`query_row`/:meth:`query_point` calls; the
        engine only restructures the work — vectorised multi-query kNN
        across concurrent searches, OD reuse through the per-fit shared
        cache (see :attr:`od_cache_`), and with ``workers > 1`` (default
        ``config.workers``) the persistent row-shard pool on threads
        (:mod:`repro.core.batch`). The pool persists on the miner across
        calls; :meth:`close` (or the context-manager protocol) stops its
        threads eagerly. Returns a :class:`~repro.core.result.BatchResult`.
        """
        self._require_fitted()
        return BatchQueryEngine(self, workers=workers).run(targets)

    def detect_outliers(
        self, max_results: int | None = None
    ) -> list[tuple[int, OutlyingSubspaceResult]]:
        """Mine the whole dataset: rows with any outlying subspace.

        Under OD monotonicity, a row has an outlying subspace iff its
        *full-space* OD reaches ``T``, so the screening pass is one
        settle step on the full space for every row
        (:func:`~repro.core.od.full_space_ods`: exact values, many rows
        per Gram product on the linear scan); only the survivors pay a
        subspace search, one :meth:`query_row` each. Returns ``(row,
        result)`` pairs sorted by descending full-space OD (strongest
        outliers first, ties by row), truncated to ``max_results``.
        """
        self._require_fitted()
        if max_results is not None and require_integer("max_results", max_results) < 1:
            raise ConfigurationError(
                f"max_results must be >= 1, got {max_results}"
            )
        data = self._backend.data  # type: ignore[union-attr]
        values, _ = full_space_ods(self._backend, data, self.config.k, list(range(data.shape[0])))
        rows = np.flatnonzero(values >= self._threshold)
        flagged = rows[np.lexsort((rows, -values[rows]))].tolist()
        if max_results is not None:
            flagged = flagged[:max_results]
        return [(row, self.query_row(row)) for row in flagged]

    def search_outcome(
        self, target: "int | np.ndarray"
    ) -> tuple[SearchOutcome, ODEvaluator]:
        """Lower-level access: the raw (unfiltered) search outcome and the
        OD evaluator, for experiments that need the full lattice."""
        query, exclude = self._resolve_target(
            target, is_row=isinstance(target, (int, np.integer))
        )
        evaluator = ODEvaluator(
            self._backend,
            query,
            self.config.k,
            exclude=exclude,
            kernel=self._kernel,
            precision=self._precision,
        )
        return self._make_search(evaluator).run(), evaluator

    # ------------------------------------------------------------------
    def _calibrate(self) -> float:
        """:func:`calibrate_threshold` over the current data with this
        miner's settings, rejecting a calibrated ``T`` of 0 — the one
        zero check of :meth:`fit` and :meth:`extend`."""
        threshold = calibrate_threshold(
            self._backend,
            self._backend.data,  # type: ignore[union-attr]
            self.config.k,
            quantile=self.config.threshold_quantile,
            sample=self.config.threshold_sample,
            seed=self.config.seed,
            shared_cache=self._od_cache,
        )
        if threshold == 0.0:
            raise ConfigurationError(
                f"the calibrated threshold is 0: about a "
                f"threshold_quantile={self.config.threshold_quantile} share or more "
                f"of the sampled rows have k={self.config.k} exact duplicates "
                "(full-space OD 0), so every subspace of every point would be "
                "outlying; pass an explicit threshold= instead"
            )
        return threshold

    def _resolve_target(
        self, target: "int | np.ndarray", is_row: bool
    ) -> "tuple[np.ndarray, int | None]":
        """The ``(query, exclude)`` pair of a query target, checked at the
        API boundary: a dataset row id must be in range (the row is then
        excluded from its own neighbour sets), an external point must be
        a finite length-``d`` vector."""
        self._require_fitted()
        if is_row:
            row = require_integer("row", target)
            data = self._backend.data  # type: ignore[union-attr]
            if not 0 <= row < data.shape[0]:
                raise ConfigurationError(f"row {row} out of range for n={data.shape[0]}")
            return data[row], row
        point = ODEvaluator._validate_query(target, self.d_)
        require_finite(point, "query point")
        return point, None

    def _search_settings(self) -> tuple:
        """``(threshold, priors, reselect, adaptive,
        adaptive_prior_weight)`` of this miner's searches.

        With the OD values a search reads, they decide its outcome, so
        the batch engine replays a stored outcome only under equal
        settings (:class:`~repro.core.od.StoredOutcome`).
        """
        return (
            self._threshold,
            self._priors,
            self.config.reselect,
            self.config.adaptive,
            ADAPTIVE_PRIOR_WEIGHT,
        )

    def _make_search(self, evaluator: ODEvaluator) -> DynamicSubspaceSearch:
        """A search over *evaluator* with this miner's fitted parameters.

        Single factory for the sequential and batched paths, so both run
        the exact same decision process.
        """
        return DynamicSubspaceSearch(evaluator, *self._search_settings())

    def _build_result(
        self, outcome: SearchOutcome, evaluator: ODEvaluator
    ) -> OutlyingSubspaceResult:
        """Filter a finished search into the user-facing result."""
        masks = ordered_masks(minimal_masks(outcome.outlying_masks), outcome.d)
        # Minimal subspaces are always concretely evaluated (an inferred-
        # outlying subspace has an outlying subset, so it cannot be
        # minimal) — their ODs are cache hits, never new kNN work.
        return self._result(
            evaluator.query,
            masks,
            [evaluator.od(mask) for mask in masks],
            len(outcome.outlying_masks),
            outcome.stats,
        )

    def _result(
        self,
        query: np.ndarray,
        masks: "Sequence[int]",
        od_values: "Sequence[float]",
        total_outlying: int,
        stats: SearchStats,
    ) -> OutlyingSubspaceResult:
        """The user-facing result of one of this miner's searches:
        minimal *masks* in output order, with their OD values."""
        d = self._backend.d  # type: ignore[union-attr]
        minimal = [Subspace(mask, d) for mask in masks]
        return OutlyingSubspaceResult(
            query=query,
            d=d,
            k=self.config.k,
            threshold=self._threshold,  # type: ignore[arg-type]
            minimal=minimal,
            total_outlying=total_outlying,
            od_values=dict(zip(minimal, od_values)),
            stats=stats,
            feature_names=self._feature_names,
        )

    def _run_query(self, query: np.ndarray, exclude: int | None) -> OutlyingSubspaceResult:
        evaluator = ODEvaluator(
            self._backend,
            query,
            self.config.k,
            exclude=exclude,
            kernel=self._kernel,
            precision=self._precision,
        )
        outcome = self._make_search(evaluator).run()
        return self._build_result(outcome, evaluator)

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("call fit(X) before querying")

    # ------------------------------------------------------------------
    # Shard-pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_shard_pool(self, workers: int) -> "ShardPool":
        """The persistent row-shard pool, built on first use and
        reused by every subsequent batch; rebuilt when closed or when
        a different worker count is requested."""
        from repro.core.shard import ShardPool

        pool = self._shard_pool
        if pool is not None and (pool.closed or pool.workers_requested != workers):
            pool.close()
            pool = None
        if pool is None:
            pool = ShardPool(
                self.backend_.data,
                workers,
                index=self.config.index,
                metric=self.config.metric,
                index_options=self.config.index_options,
            )
            self._shard_pool = pool
        return pool

    def close(self) -> None:
        """Release the shard pool: stop its threads and drop its shards.

        Idempotent and safe on an unfitted miner. The miner itself stays
        fully usable — a later multi-worker ``query_batch`` simply
        builds a fresh pool. Garbage collection and interpreter exit
        stop the pool's threads too (``weakref.finalize``), so ``close``
        is about promptness, not correctness.
        """
        if self._shard_pool is not None:
            self._shard_pool.close()
            self._shard_pool = None

    def __enter__(self) -> "HOSMiner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # The shard pool holds threads — never picklable. A pickled miner
        # arrives poolless and builds its own if ever asked.
        state = self.__dict__.copy()
        state["_shard_pool"] = None
        return state

    def __repr__(self) -> str:
        state = "fitted" if self._fitted else "unfitted"
        return f"HOSMiner({state}, k={self.config.k}, index={self.config.index!r})"
