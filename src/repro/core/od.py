"""The Outlying Degree (OD) measure — Section 2 of the paper.

``OD(p, s)`` is the sum of the distances from ``p`` to its ``k`` nearest
neighbours inside subspace ``s``:

    OD(p, s) = Σ_{i=1..k} Dist_s(p, p_i),   p_i ∈ KNNSet(p, s)

The measure is deliberately distribution-free (feature (1) of the
paper) and monotone under subspace inclusion, which Section 3.1 turns
into the two pruning rules. The monotonicity argument, for any metric
with ``Dist_s1 >= Dist_s2`` when ``s1 ⊇ s2``:

    OD_s1(p) = Σ Dist_s1(p, kNN_s1)      (definition)
             ≥ Σ Dist_s2(p, kNN_s1)      (per-pair monotonicity)
             ≥ Σ Dist_s2(p, kNN_s2)      (kNN_s2 minimises the s2 sum)
             = OD_s2(p)

Every OD value the searches decide on comes out of one evaluation path:

    work unit  (queries × masks) → sorted k-prefixes, shape (q, m, k)
               served in process by :func:`knn_prefixes`, or by
               :meth:`repro.core.shard.ShardPool.scatter_prefixes`
    settle     :func:`evaluate` sums each prefix into an OD, re-verifies
               near-threshold GEMM cells with the exact kernel through
               the same executor, and inflates the kth-distance bounds
    prime      :func:`settle` runs that step for a group of evaluators
               and records each row in its :class:`ODEvaluator` and the
               per-fit :class:`SharedODCache`

The full space is the one subspace settled on the exact kernel under
every kernel setting. Monotonicity makes its OD the value computed most
(threshold calibration, the ``detect_outliers`` screen and the first
step of nearly every search), and it is always requested alone — the
only mask at level ``d``. The linear scan serves it with one exact
Gram-screened unit for many queries at once
(:meth:`~repro.index.linear.LinearScanIndex.knn_full_prefix_batch`), so
full-space cells need no component matrix, no re-verification and no
band on their kth bounds (:func:`full_space_ods`).

:class:`ODEvaluator` wraps a kNN backend with a per-``(query, subspace)``
cache, because the dynamic search and the learning pass revisit
subspaces for the same point (e.g. when ablation baselines replay a
search) and because evaluation counting must distinguish cached hits
from real work.

:class:`SharedODCache` extends that idea across queries: one per-fit
cache keyed by ``(point key, subspace mask)`` that every evaluator of
the same fitted miner can consult, so overlapping searches — the
fit-time learning pass, repeated queries of the same row, duplicate
points inside one batch — reuse OD values instead of redoing kNN work.
A cached OD is the exact value the backend would return (not an
approximation), so sharing never changes answers, only cost.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.core.metrics import resolve_kernel
from repro.core.precision import resolve_precision, reverify_rtol
from repro.core.subspace import Subspace, dims_of_mask, full_mask
from repro.index.base import KnnBackend, components32_from, mask_matrix, validate_masks

__all__ = [
    "GEMM_REVERIFY_RTOL",
    "ODEvaluator",
    "SharedODCache",
    "component_entry",
    "evaluate",
    "full_space_ods",
    "is_full_space",
    "knn_prefixes",
    "kth_bound",
    "near_threshold",
    "outlying_degree",
    "settle",
]

#: Relative half-width of the band around the threshold inside which a
#: GEMM-computed OD is re-verified with the exact kernel. BLAS-vs-exact
#: accumulation differences are ~1e-13 relative at realistic d, so 1e-9
#: leaves four orders of magnitude of margin while re-verifying almost
#: nothing: outside the band the two kernels provably agree on the
#: ``OD >= T`` decision, inside it the exact kernel decides.
GEMM_REVERIFY_RTOL = 1e-9

def near_threshold(value, threshold: float, rtol: float = GEMM_REVERIFY_RTOL):
    """Whether GEMM OD values are too close to ``T`` to decide alone.

    Element-wise over arrays (a scalar gives a numpy bool). *rtol*
    widens with the kernel precision — the float32 tier passes its
    rigorous rounding band from :func:`repro.core.precision.reverify_rtol`.
    Non-finite values (a float32 or float64 accumulation that
    overflowed) are always in-band: no bound certifies them, so the
    exact kernel decides.
    """
    value = np.asarray(value, dtype=np.float64)
    band = rtol * (np.abs(value) + abs(threshold) + 1.0)
    return ~np.isfinite(value) | (np.abs(value - threshold) <= band)


def kth_bound(kth, rtol):
    """Safe upper bound on the true kth-neighbour distance, element-wise.

    *kth* is the kth-smallest distance as computed by some kernel whose
    relative error band is *rtol* (0 for the exact float64 kernel, the
    rigorous rounding band for GEMM/float32 tiers; an array gives one
    band per cell). Inflating by the band makes the bound conservative
    in the only direction that matters for delta invalidation: a
    too-large bound can only cause extra eviction, never a wrong
    retention. Non-finite values get an infinite bound, i.e. the entry
    is always evicted.
    """
    kth = np.asarray(kth, dtype=np.float64)
    finite = np.isfinite(kth)
    safe = np.where(finite, kth, 0.0)
    return np.where(finite, safe + rtol * (np.abs(safe) + 1.0), np.inf)


def outlying_degree(
    backend: KnnBackend,
    query: np.ndarray,
    k: int,
    dims: Sequence[int],
    exclude: int | None = None,
) -> float:
    """One-shot OD computation against a backend (no caching)."""
    _, distances = backend.knn(query, k, dims, exclude=exclude)
    return float(distances.sum())


def is_full_space(masks: np.ndarray, d: int) -> bool:
    """Whether a mask request is the full space alone — the only mask
    at level ``d``."""
    return masks.shape == (1,) and masks[0] == (1 << d) - 1


def component_entry(backend, query: np.ndarray, precision: str) -> "tuple | None":
    """One query's component entry ``(components, components32, finite)``.

    The ``(n, d)`` distance-component matrix, its float32 transpose
    (``None`` outside the float32 tier or on float32 overflow), and
    whether every component is finite — i.e. whether the GEMM may use
    it. ``None`` when the backend (or its metric) has no component
    decomposition. Callers own the entry's lifetime: the search driver
    keeps one per search under a memory budget, a shard worker a few in
    a small FIFO. A float32 copy that survived
    the cast proves the float64 matrix finite, so the full finiteness
    scan only runs outside the float32 tier.
    """
    components_fn = getattr(backend, "distance_components", None)
    components = None if components_fn is None else components_fn(query)
    if components is None:
        return None
    components32 = components32_from(components) if precision == "float32" else None
    finite = components32 is not None or bool(np.isfinite(components).all())
    return components, components32, finite


def knn_prefixes(
    backend,
    queries: np.ndarray,
    masks: np.ndarray,
    k: int,
    excludes: "Sequence[int | None]",
    kernel: str,
    precision: str,
    entries: "Sequence[tuple | None] | None" = None,
) -> np.ndarray:
    """The work unit in process: sorted k-nearest distance prefixes.

    Returns ``(q, m, k)`` — row ``[i, j]`` is query ``i``'s ``k``
    smallest distances in the subspace of bitmask ``masks[j]`` (a 1-D
    integer array, checked by :func:`~repro.index.base.validate_masks`),
    ascending. Rows are
    inf-padded when the backend holds fewer than ``k`` candidates (a
    small shard; the coordinator's merge drowns the padding).

    * Backends with the level kernel (``knn_distance_prefix_batch``)
      answer all masks at once: one kernel call per group of rows that
      share a row kernel and a ``k``, under the kernel's memory ceiling
      at any group size.
    * Backends without it (the trees) answer one exact ``knn`` per
      ``(query, mask)`` over the mask's dims.
    * An exact full-space request goes, for all its queries at once, to
      the backend's full-space unit when it has one
      (``knn_full_prefix_batch``, the linear scan); no component entry
      is built or used for it.
    * Under the GEMM kernel a query whose component matrix has a
      non-finite entry runs the exact kernel instead: a masked-out
      ``inf`` component would turn into ``0 * inf = NaN`` inside the
      product, and top-k selection would silently drop a true neighbour.

    *entries* are the callers' cached :func:`component_entry` values per
    query (``None`` entries are built here when the GEMM needs them and
    dropped afterwards). Shard workers, the degraded-shard fallback and
    the search driver's in-process executor all run this function.
    """
    masks = validate_masks(masks, backend.d)
    q_count, m = queries.shape[0], masks.size
    out = np.full((q_count, m, k), np.inf)
    if q_count == 0 or m == 0:
        return out
    k_local = [min(k, backend.size - (ex is not None)) for ex in excludes]
    full_unit = getattr(backend, "knn_full_prefix_batch", None)
    if kernel == "exact" and full_unit is not None and is_full_space(masks, backend.d):
        for k_row in sorted(set(k_local) - {0}):
            rows = [i for i in range(q_count) if k_local[i] == k_row]
            out[rows, 0, :k_row] = full_unit(queries[rows], k_row, [excludes[i] for i in rows])
        return out
    if not hasattr(backend, "knn_distance_prefix_batch"):
        dims_per_mask = [np.flatnonzero(row) for row in mask_matrix(masks, backend.d, bool)]
        for i, (query, exclude) in enumerate(zip(queries, excludes)):
            if k_local[i] < 1:
                continue
            for j, dims in enumerate(dims_per_mask):
                _, distances = backend.knn(query, k_local[i], dims, exclude=exclude)
                out[i, j, : distances.size] = distances
        return out
    entries = [None] * q_count if entries is None else list(entries)
    groups: dict[tuple[str, int], list[int]] = {}
    for i in range(q_count):
        if k_local[i] < 1:
            continue
        row_kernel = kernel
        if kernel == "gemm":
            if entries[i] is None:
                entries[i] = component_entry(backend, queries[i], precision)
            if entries[i] is not None and not entries[i][2]:
                row_kernel = "exact"
        groups.setdefault((row_kernel, k_local[i]), []).append(i)
    for (row_kernel, k_row), rows in groups.items():
        parts = [entries[i] or (None, None, True) for i in rows]
        out[rows, :, :k_row] = backend.knn_distance_prefix_batch(
            queries[rows],
            k_row,
            masks,
            excludes=[excludes[i] for i in rows],
            components_list=[part[0] for part in parts],
            kernel=row_kernel,
            precision=precision,
            components32_list=[part[1] for part in parts],
        )
    return out


def evaluate(
    execute: "Callable[..., np.ndarray]",
    queries: np.ndarray,
    masks: np.ndarray,
    k: int,
    excludes: "Sequence[int | None]",
    kernel: str,
    precision: str,
    threshold: "float | None",
    rtol: float,
    entries: "Sequence[tuple | None] | None" = None,
    stats=None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Run one work unit through *execute* and settle it.

    *execute* takes ``(queries, masks, k, excludes, kernel, precision,
    entries)`` and returns the ``(q, m, k)`` prefixes — it is
    :func:`knn_prefixes` bound to a backend, or a shard pool's scatter.
    Returns ``(values, bounds, reverified)``: the ``(q, m)`` OD values,
    their safe kth-distance bounds (:func:`kth_bound`) for the delta
    cache, and per query the number of cells re-verified. The settle
    step is the single place that keeps the kernel knob's contract:

    1. each OD is its prefix summed ascending — the accumulation order
       of the sorted kNN result, so exact-kernel values are bit-identical
       to ``knn(...)[1].sum()``;
    2. under the GEMM kernel and a *threshold*, every cell inside the
       :func:`near_threshold` band is recomputed with the exact float64
       kernel through the same *execute* (one request per query), so
       every ``OD >= T`` decision matches the exact kernel's;
    3. the last prefix column becomes the cell's kth bound, inflated by
       *rtol* wherever a GEMM value stands (re-verified and exact cells
       need no slack).

    A full-space request (the full space alone, see the module
    docstring) runs on the exact kernel whatever *kernel* says, without
    *entries*: its values are exact, so it needs neither step 2 nor a
    band in step 3.

    *stats* (the coordinator backend's counters) records
    ``reverified_masks``.
    """
    if is_full_space(masks, queries.shape[1]):
        kernel, precision, entries = "exact", "float64", None
    prefixes = execute(queries, masks, k, excludes, kernel, precision, entries)
    values = prefixes.sum(axis=-1)
    kths = prefixes[..., -1].copy()
    reverified = np.zeros(queries.shape[0], dtype=np.intp)
    if kernel != "gemm":
        return values, kth_bound(kths, 0.0), reverified
    band = np.full(values.shape, rtol)
    if threshold is not None:
        near = near_threshold(values, threshold, rtol)
        for row in np.flatnonzero(near.any(axis=1)):
            cols = np.flatnonzero(near[row])
            exact = execute(
                queries[row : row + 1],
                masks[cols],
                k,
                excludes[row : row + 1],
                "exact",
                "float64",
                None if entries is None else entries[row : row + 1],
            )[0]
            values[row, cols] = exact.sum(axis=-1)
            kths[row, cols] = exact[:, -1]
            band[row, cols] = 0.0
            reverified[row] = cols.size
        if stats is not None and reverified.any():
            stats.bump("reverified_masks", int(reverified.sum()))
    return values, kth_bound(kths, band), reverified


def full_space_ods(
    backend, queries: np.ndarray, k: int, excludes: "Sequence[int | None]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Full-space ODs of many queries and their exact kth bounds.

    The settle step on a full-space request, in process — shared by
    threshold calibration and the ``detect_outliers`` screen. Every
    backend and metric reaches its exact kernel through
    :func:`knn_prefixes` (the linear scan's Gram-screened unit, a tree's
    ``knn``), so each value equals ``knn(query, k, range(d),
    exclude)[1].sum()`` bit for bit.
    """
    values, bounds, _ = evaluate(
        partial(knn_prefixes, backend),
        queries,
        validate_masks([full_mask(backend.d)], backend.d),
        k,
        excludes,
        "exact",
        "float64",
        None,
        0.0,
    )
    return values[:, 0], bounds[:, 0]


def settle(
    execute: "Callable[..., np.ndarray]",
    evaluators: "Sequence[ODEvaluator]",
    masks: "Sequence[int]",
    threshold: "float | None",
    entries: "Sequence[tuple | None] | None" = None,
) -> "list[list[float]]":
    """Settle one work unit for a group of evaluators and prime each.

    The evaluators' queries × *masks* run through *execute* and
    :func:`evaluate` under the evaluators' shared ``k``, kernel,
    precision and band; each evaluator then records its row with
    :meth:`ODEvaluator.prime` and counts its re-verified cells. Returns
    every evaluator's values in *masks* order. *entries* are the
    evaluators' component entries, as for :func:`knn_prefixes`.
    """
    lead = evaluators[0]
    values, bounds, reverified = evaluate(
        execute,
        np.array([evaluator.query for evaluator in evaluators]),
        np.array(masks, dtype=np.int64),
        lead.k,
        [evaluator.exclude for evaluator in evaluators],
        lead.kernel,
        lead.precision,
        threshold,
        lead.reverify_rtol,
        entries=entries,
        stats=getattr(lead.backend, "stats", None),
    )
    rows = values.tolist()
    for evaluator, row, kths, count in zip(
        evaluators, rows, bounds.tolist(), reverified.tolist()
    ):
        evaluator.reverifications += count
        evaluator.prime(masks, row, kths)
    return rows


class SharedODCache:
    """Per-fit OD cache shared by every evaluator of one fitted miner.

    Keys are ``(point key, mask)`` pairs where the point key identifies
    a query point *together with its exclusion semantics*: dataset
    members queried with self-exclusion key by row id, external points
    by their coordinate bytes. Two queries with the same key are
    guaranteed to produce the same OD in every subspace of the current
    fit, so a stored value can be replayed verbatim.

    The cache is owned by the miner and must be kept consistent whenever
    the indexed dataset changes: ``extend``/refit drop everything via
    :meth:`invalidate`, while the streaming path uses the delta
    invalidation of :meth:`delta_insert` / :meth:`delta_expire` — an
    entry survives a window update only when its cached kth-distance
    bound *proves* the update cannot have changed its kNN k-prefix, so a
    retained value is still exactly what a fresh fit on the new window
    would compute (see docs/streaming.md for the argument).
    """

    __slots__ = ("_values", "_kth", "hits", "stores", "delta_evicted", "delta_retained")

    def __init__(self) -> None:
        self._values: dict[tuple[object, int], float] = {}
        #: Per-entry safe upper bound on the true kth-neighbour distance
        #: (:func:`kth_bound`).
        self._kth: dict[tuple[object, int], float] = {}
        #: Number of lookups served from the cache.
        self.hits = 0
        #: Number of values recorded.
        self.stores = 0
        #: Entries evicted by delta invalidation (lifetime total).
        self.delta_evicted = 0
        #: Entries proven unaffected and kept across window updates.
        self.delta_retained = 0

    @staticmethod
    def point_key(query: np.ndarray, exclude: int | None) -> tuple[str, object]:
        """Canonical key of one ``(query, exclude)`` pair."""
        if exclude is not None:
            return ("row", exclude)
        return ("ext", query.tobytes())

    def get(self, point_key: tuple[str, object], mask: int) -> float | None:
        value = self._values.get((point_key, mask))
        if value is not None:
            self.hits += 1
        return value

    def put(
        self, point_key: tuple[str, object], mask: int, value: float, kth: float
    ) -> None:
        """Record a value with its safe kth-distance bound.

        *kth* must come from :func:`kth_bound` (or be exact): every
        producer of an OD value sees the whole k-prefix, so every entry
        carries the bound its delta invalidation needs.
        """
        key = (point_key, mask)
        if key not in self._values:
            self.stores += 1
        self._values[key] = value
        self._kth[key] = kth

    def kth_of(self, point_key: tuple[str, object], mask: int) -> float | None:
        """The recorded kth-distance bound for an entry, if any."""
        return self._kth.get((point_key, mask))

    def invalidate(self) -> None:
        """Drop every cached value (dataset changed)."""
        self._values.clear()
        self._kth.clear()

    # -- delta invalidation ------------------------------------------------
    def _entry_query(self, point_key: tuple[str, object], data: np.ndarray, shift: int):
        """Current coordinates of a cached entry's query point.

        Row keys index the *current* window ``data`` after shifting down
        by *shift* (0 on insert, the expired count on expiry); external
        keys decode their coordinate bytes. ``None`` means the point
        cannot be resolved and the entry must be evicted.
        """
        kind, ident = point_key
        if kind == "row":
            row = ident - shift
            if not 0 <= row < data.shape[0]:
                return None
            return data[row]
        point = np.frombuffer(ident, dtype=np.float64)
        if point.shape[0] != data.shape[1]:
            return None
        return point

    def delta_insert(self, rows: np.ndarray, data: np.ndarray, metric) -> tuple[int, int]:
        """Evict only entries an inserted batch could have changed.

        An entry's OD is the sum of the k smallest subspace distances.
        Inserting rows can only change that sum if some new row lands
        strictly inside the cached kth-distance bound in the entry's
        subspace — a new distance ``>=`` the true kth leaves the
        k-smallest multiset (hence the sum, bit for bit) unchanged. The
        stored bound over-approximates the true kth, so comparing the
        inserted rows' subspace distances against it errs only toward
        eviction.

        *data* is the post-insert window matrix (row keys are unshifted
        by inserts). Returns ``(evicted, retained)``.
        """
        return self._delta_scan(rows, data, metric, shift=0, keep_ties=True)

    def delta_expire(
        self, expired_rows: np.ndarray, count: int, data: np.ndarray, metric
    ) -> tuple[int, int]:
        """Evict entries an expiry could have changed; re-key the rest.

        Entries *for* an expired query row are dropped. For every other
        entry, removing a row changes the k-smallest multiset only if
        that row's subspace distance was ``<=`` the true kth distance
        (it could have been one of the k neighbours, or tied with one);
        distances strictly above the cached bound prove it was not.
        Surviving row keys shift down by *count* to the new window
        coordinates — same point, same subspace, so the value and bound
        carry over verbatim.

        *data* is the post-expiry window matrix. Returns
        ``(evicted, retained)``.
        """
        return self._delta_scan(
            expired_rows, data, metric, shift=count, keep_ties=False
        )

    def _delta_scan(
        self,
        batch: np.ndarray,
        data: np.ndarray,
        metric,
        shift: int,
        keep_ties: bool,
    ) -> tuple[int, int]:
        """Shared delta pass: evict entries the batch's rows can reach.

        Entries are grouped by subspace mask so each group's survival
        test is one broadcasted ``pairwise_many`` call over all its
        query points and the whole batch at once (``len(batch)``
        ``pairwise`` calls for metrics without the batched view), not
        one call per entry — the scan has to be cheaper than the refit
        it replaces. ``keep_ties`` selects the
        insert rule (a new distance *equal* to the bound keeps the
        k-smallest multiset) versus the expire rule (a removed row tied
        with the kth could have been a neighbour, so ties evict).
        """
        if not self._values:
            return (0, 0)
        by_mask: dict[int, tuple[list, list, list]] = {}
        evicted = 0
        for (point_key, mask), value in self._values.items():
            kind, ident = point_key
            if shift and kind == "row" and ident < shift:
                evicted += 1
                continue
            query = self._entry_query(point_key, data, shift)
            if query is None:
                evicted += 1
                continue
            keys, queries, bounds = by_mask.setdefault(mask, ([], [], []))
            keys.append((point_key, value))
            queries.append(query)
            bounds.append(self._kth[(point_key, mask)])
        survivors: dict[tuple[object, int], float] = {}
        kths: dict[tuple[object, int], float] = {}
        batch_arr = np.asarray(batch, dtype=np.float64)
        many = getattr(metric, "pairwise_many", None)
        for mask, (keys, queries, bounds) in by_mask.items():
            dims = np.asarray(dims_of_mask(mask), dtype=np.intp)
            points = np.asarray(queries)
            if many is not None:
                mins = many(batch_arr, points, dims).min(axis=1)
            else:
                mins = np.full(len(keys), np.inf)
                for row in batch_arr:
                    np.minimum(mins, metric.pairwise(points, row, dims), out=mins)
            bounds_arr = np.asarray(bounds)
            kept = mins >= bounds_arr if keep_ties else mins > bounds_arr
            for j, (point_key, value) in enumerate(keys):
                if not kept[j]:
                    evicted += 1
                    continue
                kind, ident = point_key
                if shift and kind == "row":
                    point_key = ("row", ident - shift)
                survivors[(point_key, mask)] = value
                kths[(point_key, mask)] = bounds[j]
        self._values = survivors
        self._kth = kths
        self.delta_evicted += evicted
        self.delta_retained += len(survivors)
        return (evicted, len(survivors))

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"SharedODCache(entries={len(self)}, hits={self.hits})"


class ODEvaluator:
    """Cached outlying-degree oracle for one query point.

    Parameters
    ----------
    backend:
        Any :class:`~repro.index.base.KnnBackend` over the dataset.
    query:
        The point whose outlying subspaces are being searched.
    k:
        Neighbour count of the OD definition.
    exclude:
        Row index of ``query`` inside the backend's dataset, or ``None``
        when the query is external. Self-matches are excluded by row
        identity so duplicate points stay legal neighbours.
    shared_cache:
        Optional per-fit :class:`SharedODCache`; when given, OD values
        are looked up there after the local cache misses and every
        computed value is published for other evaluators to reuse.
    kernel:
        OD-kernel selector for :func:`settle` — ``"exact"`` (default),
        ``"gemm"`` or ``"auto"``; resolved once against the backend's
        metric (an explicit ``"gemm"`` with an incapable metric fails
        here, loudly). A backend without the level kernel (the trees)
        answers exactly whatever the selector says. Single-mask
        :meth:`od` always runs exact.
    precision:
        GEMM precision tier, resolved once against the resolved kernel
        (:func:`~repro.core.precision.resolve_precision`; ``"auto"``
        default picks float32 under the GEMM kernel, float64 anywhere
        else). The tier moves only *where* time goes: the exact
        re-verification band (:attr:`reverify_rtol`) widens to the
        rigorous float32 rounding bound, so threshold decisions always
        match the float64 kernel.

    Notes
    -----
    ``evaluations`` counts *real* kNN searches; ``cache_hits`` counts
    repeats served from the evaluator's own memory and ``shared_hits``
    those served from the shared per-fit cache. The search-cost tables
    of experiments E1–E5 and E10 report ``evaluations``.
    ``reverifications`` counts near-threshold exact re-computations —
    the honesty counter of the precision tier.
    """

    def __init__(
        self,
        backend: KnnBackend,
        query: np.ndarray,
        k: int,
        exclude: int | None = None,
        shared_cache: SharedODCache | None = None,
        kernel: str = "exact",
        precision: str = "auto",
    ) -> None:
        query = self._validate_query(query, backend.d)
        available = backend.size - (1 if exclude is not None else 0)
        if k < 1 or k > available:
            raise ConfigurationError(
                f"k must be in [1, {available}] for this dataset, got {k}"
            )
        self.backend = backend
        self.query = query
        self.k = k
        self.exclude = exclude
        metric = getattr(backend, "metric", None)
        self.kernel = "exact" if metric is None else resolve_kernel(kernel, metric)
        if not hasattr(backend, "knn_distance_prefix_batch"):
            self.kernel = "exact"
        self.precision = resolve_precision(precision, self.kernel)
        #: Half-width of the near-threshold exact re-verification band.
        self.reverify_rtol = reverify_rtol(self.precision, backend.d)
        self.evaluations = 0
        self.cache_hits = 0
        self.shared_hits = 0
        self.reverifications = 0
        self._cache: dict[int, float] = {}
        self.shared_cache = shared_cache
        #: Shared-cache key of the point; ``None`` without a shared cache.
        self.point_key = (
            SharedODCache.point_key(query, exclude) if shared_cache is not None else None
        )

    @staticmethod
    def _validate_query(query: np.ndarray, d: int) -> np.ndarray:
        """Coerce and shape-check the query vector once, up front.

        Every later ``od`` call trusts the stored vector, so a malformed
        query fails here with the expected/actual shapes spelled out
        instead of surfacing as an opaque error deep inside a backend.
        """
        try:
            query = np.ascontiguousarray(query, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataShapeError(
                f"query could not be converted to a float vector: {exc}"
            ) from exc
        if query.ndim != 1 or query.shape[0] != d:
            raise DataShapeError(
                f"expected a query of shape ({d},), got shape {query.shape}"
            )
        return query

    def od(self, mask: int) -> float:
        """OD of the query point in the subspace encoded by *mask*."""
        cached = self.cached_od(mask)
        if cached is not None:
            return cached
        dims = dims_of_mask(mask)
        _, distances = self.backend.knn(self.query, self.k, dims, exclude=self.exclude)
        value = float(distances.sum())
        # Exact kernel: the kth distance itself is a safe bound.
        self._store(mask, value, kth=float(distances[-1]))
        self.evaluations += 1
        return value

    def od_many(self, masks: Sequence[int], threshold: float | None = None) -> dict[int, float]:
        """OD of the query point in every subspace of *masks* at once.

        A one-request view of :func:`settle` in process: cache replays
        are split off (:meth:`split_cached`) and the remaining subspaces
        are settled as one work unit. When *threshold* is given, GEMM
        values inside the :func:`near_threshold` band are re-computed
        with the exact kernel, so the caller's ``OD >= threshold``
        decisions match what the exact kernel would have decided — the
        pruning contract of the kernel knob.
        """
        values, misses = self.split_cached(masks)
        if misses:
            (row,) = settle(partial(knn_prefixes, self.backend), [self], misses, threshold)
            values.update(zip(misses, row))
        return values

    def split_cached(self, masks: Sequence[int]) -> "tuple[dict[int, float], list[int]]":
        """Split *masks* into cache replays ``{mask: od}`` and misses.

        The replays go through :meth:`cached_od`, so each counts as a
        hit; no kNN work is done.
        """
        cached_od = self.cached_od
        values: dict[int, float] = {}
        misses: list[int] = []
        for mask in masks:
            value = cached_od(mask)
            if value is None:
                misses.append(mask)
            else:
                values[mask] = value
        return values, misses

    def cached_od(self, mask: int) -> float | None:
        """Cached OD for *mask* (local, then shared), or ``None``.

        Counts the hit on the matching counter; performs no kNN work.
        """
        cached = self._cache.get(mask)
        if cached is not None:
            self.cache_hits += 1
            return cached
        if self.shared_cache is not None:
            shared = self.shared_cache.get(self.point_key, mask)
            if shared is not None:
                self.shared_hits += 1
                self._cache[mask] = shared
                return shared
        return None

    def prime(
        self, masks: Sequence[int], values: Sequence[float], kths: Sequence[float]
    ) -> None:
        """Record OD values computed on this point's behalf (by
        :func:`settle`); each counts as one real evaluation. *kths* must
        already be safe bounds (:func:`kth_bound`)."""
        for mask, value, kth in zip(masks, values, kths):
            self._store(mask, value, kth)
        self.evaluations += len(masks)

    def _store(self, mask: int, value: float, kth: float) -> None:
        self._cache[mask] = value
        if self.shared_cache is not None:
            self.shared_cache.put(self.point_key, mask, value, kth=kth)

    def od_subspace(self, subspace: Subspace) -> float:
        """OD in a :class:`~repro.core.subspace.Subspace` (wrapper API)."""
        if subspace.d != self.backend.d:
            raise DataShapeError(
                f"subspace lives in d={subspace.d} but the data has d={self.backend.d}"
            )
        return self.od(subspace.mask)

    def knn_set(self, mask: int) -> tuple[np.ndarray, np.ndarray]:
        """The KNNSet itself — ``(row indices, distances)`` in subspace
        *mask*; useful for explanation output and examples."""
        dims = dims_of_mask(mask)
        return self.backend.knn(self.query, self.k, dims, exclude=self.exclude)

    def reset_counters(self) -> None:
        """Zero the evaluation counters (the cache is kept)."""
        self.evaluations = 0
        self.cache_hits = 0
        self.shared_hits = 0
        self.reverifications = 0
