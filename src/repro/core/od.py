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
cache keyed by point slot and subspace mask that every evaluator of
the same fitted miner can consult, so overlapping searches — the
fit-time learning pass, repeated queries of the same row, duplicate
points inside one batch — reuse OD values instead of redoing kNN work.
A cached OD is the exact value the backend would return (not an
approximation), so sharing never changes answers, only cost.
"""

from __future__ import annotations

from functools import partial
from itertools import compress
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.core.lattice import MAX_LATTICE_DIM
from repro.core.metrics import resolve_kernel
from repro.core.precision import resolve_precision, reverify_rtol
from repro.core.subspace import dims_of_mask, full_mask
from repro.index.base import (
    KnnBackend,
    as_float64,
    components32_from,
    mask_matrix,
    validate_masks,
)

__all__ = [
    "CACHE_BUDGET_BYTES",
    "DELTA_BLOCK_BYTES",
    "GEMM_REVERIFY_RTOL",
    "ODEvaluator",
    "SharedODCache",
    "StoredOutcome",
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

#: Ceiling on each ``(entries × batch rows)`` float64 temporary of the
#: streaming delta pass (:func:`_subspace_minima`). At stream-window's
#: shape (about 1,400 entries × 32 rows, d = 8) 256 KiB blocks ran about
#: 10% faster than one 1 MiB block.
DELTA_BLOCK_BYTES = 1 << 18

#: Byte budget of a :class:`SharedODCache` between calls: its entries,
#: slots and stored outcomes, as :meth:`SharedODCache.footprint` counts
#: them. batch-traffic's 24 hot targets hold about 54,000 entries after
#: warm-up. 12 MiB at 130 bytes an entry admits more entries than
#: 18 MiB did at the former 220 (96,800 against 85,800 alone) while
#: slots and stored outcomes are charged less than 3.5 MB, as
#: batch-traffic's are (1.9-3.2 MB); over 1,200 of its batches (seeds 7
#: and 223) 2-3% more targets replayed. CPython resizes a dict to the
#: smallest power of two cells at least three times its live entries,
#: so the table stays at 2**18 cells (5.2 MB) while at most 87,381 are
#: live, which the budget keeps beside batch-traffic's slots; entries of
#: a few large lattices alone can pass it, and the next resize then
#: doubles the table (5.2 MB more than counted).
CACHE_BUDGET_BYTES = 12 * 2**20

# Budget accounting, measured with tracemalloc on CPython 3.11 over
# batch-traffic's steady state (1,200 steps in process, seeds 7 and
# 223; the entry table dropped at the end freed 137.6 and 140.7 bytes an
# entry, and sys.getsizeof read 126-140 at every 100th step). An entry
# is its key int and one complex (64 bytes) plus its share of the one
# dict table, which never shrinks on deletion and sits at 2**18 cells
# (5.2 MB) under churn; 130 is that cost at about 80,000 entries, where
# a full budget holds them. A slot is a dict cell, its identity (an
# int, or an external point's bytes), its stamp, its slot int and three
# list cells.
_ENTRY_BYTES = 130
_SLOT_BYTES = 300

# A cache key is ``slot << _MASK_BITS | mask``: every searchable mask
# fits, since ``fit`` rejects ``d > MAX_LATTICE_DIM``.
_MASK_BITS = MAX_LATTICE_DIM
_MASK_LIMIT = (1 << _MASK_BITS) - 1
# Slot-table row markers (absolute rows are >= 0).
_EXTERNAL = -1
_FREE = -2

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
    keeps one per search under a memory budget, and a row shard reads
    its rows of it. A float32 copy that survived the cast proves the
    float64 matrix finite, so the full finiteness scan only runs
    outside the float32 tier.
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
    dropped afterwards). Every row shard and the search driver's
    in-process executor run this function.
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


class StoredOutcome(NamedTuple):
    """The finished, filtered answer of one ``query_batch`` search, kept
    in its point's slot (:meth:`SharedODCache.outcome`).

    Plain ints and floats only — no lattice, query array or
    :class:`~repro.core.subspace.Subspace` objects — so a replay builds
    fresh result objects and costs a few hundred bytes of budget.
    """

    #: ``(threshold, priors, reselect, adaptive, adaptive_prior_weight)``
    #: of the search; an outcome replays only under equal settings, the
    #: priors compared by identity.
    settings: tuple
    #: Minimal outlying masks in output order, and their OD values.
    minimal: tuple
    od_values: tuple
    total_outlying: int
    od_evaluations: int
    upward_pruned: int
    downward_pruned: int
    level_schedule: tuple
    #: ``(level, evaluations)`` pairs in first-evaluation order.
    evaluations_by_level: tuple

    def matches(self, settings: tuple) -> bool:
        """Whether this outcome was found under *settings*."""
        mine = self.settings
        return mine is settings or (mine[1] is settings[1] and mine == settings)

    def nbytes(self) -> int:
        """Budget charge: the record, its tuples and their numbers (a
        fit to their allocation sizes on CPython 3.11), plus its cell in
        the cache's outcome dict; an inlier's outcome is about 430
        bytes."""
        return (
            336
            + 80 * len(self.minimal)
            + 8 * len(self.level_schedule)
            + 88 * len(self.evaluations_by_level)
        )


class SharedODCache:
    """Per-fit OD cache shared by every evaluator of one fitted miner.

    An entry is keyed by one int, ``slot << MAX_LATTICE_DIM | mask``.
    The slot names a query point *together with its exclusion
    semantics*: dataset members queried with self-exclusion map to a
    slot by absolute row — window row plus the rows expired so far, so
    expiry moves no key — and external points by their coordinate bytes,
    which the slot table keeps as their coordinates. Two queries with the
    same slot are guaranteed to produce the same OD in every subspace of
    the current fit, so a stored value can be replayed verbatim. An
    evaluator resolves its slot once (:meth:`point_key`), so a replay
    hashes one int.

    One dict maps each key to ``complex(value, kth bound)``: the two
    doubles, stored exactly, in one 32-byte object.

    The cache is owned by the miner and must be kept consistent whenever
    the indexed dataset changes: ``extend``/refit drop everything via
    :meth:`invalidate`, while the streaming path uses the delta
    invalidation of :meth:`delta_insert` / :meth:`delta_expire` — an
    entry survives a window update only when its cached kth-distance
    bound *proves* the update cannot have changed its kNN k-prefix, so a
    retained value is still exactly what a fresh fit on the new window
    would compute (see docs/streaming.md for the argument). A delta pass
    frees every slot left without an entry, so rows that have left the
    window leave the slot table too.

    A slot also keeps the :class:`StoredOutcome` of its point's last
    ``query_batch`` search. A search is a pure function of its point,
    its settings and the OD values it reads, and it reads only its own
    slot's entries; so while the slot has lost none of them, the stored
    outcome is the outcome a new search would find. Every path that
    drops entries drops outcomes with them: the delta pass drops the
    outcome of each slot that loses an entry, :meth:`invalidate` drops
    all, and :meth:`trim` evicts whole slots.

    :meth:`trim` holds the cache to :data:`CACHE_BUDGET_BYTES`, evicting
    the least recently used slots first (a slot is used when
    :meth:`point_key` resolves it). The miner trims when ``fit``,
    ``extend`` and ``query_batch`` return, never during a call: a call
    in flight reads values back from the cache after its rounds.
    """

    __slots__ = (
        "_entries", "_slots", "_slot_ident", "_slot_row", "_slot_used", "_clock",
        "_free", "_expired", "_outcomes", "_outcome_bytes",
        "hits", "stores", "delta_evicted", "delta_retained", "outcome_hits", "evicted",
    )

    def __init__(self) -> None:
        #: Key -> ``complex(OD value, safe upper bound on the true
        #: kth-neighbour distance)`` (:func:`kth_bound`).
        self._entries: dict[int, complex] = {}
        # The slot table: point identity (absolute row or external
        # coordinate bytes) -> slot, and per slot its identity and its
        # absolute row (_EXTERNAL for an external point, _FREE when
        # unused). Freed slots are reused.
        self._slots: dict[int | bytes, int] = {}
        self._slot_ident: list[int | bytes | None] = []
        self._slot_row: list[int] = []
        # Per slot, the stamp of its last point_key resolution.
        self._slot_used: list[int] = []
        self._clock = 0
        self._free: list[int] = []
        #: Rows expired so far: window row + this = absolute row.
        self._expired = 0
        # Slot -> StoredOutcome, and their summed nbytes().
        self._outcomes: dict[int, StoredOutcome] = {}
        self._outcome_bytes = 0
        #: Number of lookups served from the cache (a replayed outcome
        #: counts every value its search read).
        self.hits = 0
        #: Number of values recorded.
        self.stores = 0
        #: Entries evicted by delta invalidation (lifetime total).
        self.delta_evicted = 0
        #: Entries proven unaffected and kept across window updates.
        self.delta_retained = 0
        #: Searches answered from a stored outcome (lifetime total).
        self.outcome_hits = 0
        #: Entries evicted by :meth:`trim` to hold the budget (lifetime).
        self.evicted = 0

    def point_key(self, query: np.ndarray, exclude: int | None) -> int:
        """Key prefix ``slot << MAX_LATTICE_DIM`` of one ``(query,
        exclude)`` pair; the slot is allocated on first use.

        A dataset member (*exclude* its window row) is identified by its
        absolute row, an external point by ``query.tobytes()``. Stamps
        the slot's last use for :meth:`trim`.
        """
        ident = query.tobytes() if exclude is None else int(exclude) + self._expired
        slot = self._slots.get(ident)
        if slot is None:
            row = _EXTERNAL if exclude is None else ident
            if self._free:
                slot = self._free.pop()
                self._slot_ident[slot] = ident
                self._slot_row[slot] = row
            else:
                slot = len(self._slot_row)
                self._slot_ident.append(ident)
                self._slot_row.append(row)
                self._slot_used.append(0)
            self._slots[ident] = slot
        self._clock += 1
        self._slot_used[slot] = self._clock
        return slot << _MASK_BITS

    def get(self, point_key: int, mask: int) -> float | None:
        entry = self._entries.get(point_key | mask)
        if entry is None:
            return None
        self.hits += 1
        return entry.real

    def put(self, point_key: int, mask: int, value: float, kth: float) -> None:
        """Record a value with its safe kth-distance bound.

        *kth* must come from :func:`kth_bound` (or be exact): every
        producer of an OD value sees the whole k-prefix, so every entry
        carries the bound its delta invalidation needs.
        """
        key = point_key | mask
        if key not in self._entries:
            self.stores += 1
        self._entries[key] = complex(value, kth)

    def kth_of(self, point_key: int, mask: int) -> float | None:
        """The recorded kth-distance bound for an entry, if any."""
        entry = self._entries.get(point_key | mask)
        return None if entry is None else entry.imag

    def entries(self) -> "dict[tuple[int | bytes, int], tuple[float, float]]":
        """Every entry as ``{(point, mask): (value, kth bound)}``.

        *point* is a dataset member's window row or an external point's
        coordinate bytes — a view that does not depend on how slots were
        numbered, for comparing two caches.
        """
        out = {}
        for key, entry in self._entries.items():
            ident = self._slot_ident[key >> _MASK_BITS]
            point = ident if isinstance(ident, bytes) else ident - self._expired
            out[(point, key & _MASK_LIMIT)] = (entry.real, entry.imag)
        return out

    def invalidate(self) -> None:
        """Drop every cached value, stored outcome and the slot table
        (dataset changed)."""
        self._entries.clear()
        self._slots.clear()
        self._slot_ident.clear()
        self._slot_row.clear()
        self._slot_used.clear()
        self._free.clear()
        self._outcomes.clear()
        self._outcome_bytes = 0

    # -- stored outcomes -----------------------------------------------------
    def outcome(self, point_key: int, settings: tuple) -> "StoredOutcome | None":
        """The stored outcome of the point's last ``query_batch`` search,
        if it was found under *settings*.

        A replay counts as the fully cached search it stands for: one
        hit per OD value that search read.
        """
        outcome = self._outcomes.get(point_key >> _MASK_BITS)
        if outcome is None or not outcome.matches(settings):
            return None
        self.outcome_hits += 1
        self.hits += outcome.od_evaluations
        return outcome

    def keep_outcome(self, point_key: int, outcome: StoredOutcome) -> None:
        """Store *outcome* as the point's last ``query_batch`` answer."""
        slot = point_key >> _MASK_BITS
        self._drop_outcome(slot)
        self._outcomes[slot] = outcome
        self._outcome_bytes += outcome.nbytes()

    def _drop_outcome(self, slot: int) -> None:
        outcome = self._outcomes.pop(slot, None)
        if outcome is not None:
            self._outcome_bytes -= outcome.nbytes()

    # -- the budget ----------------------------------------------------------
    def footprint(self) -> int:
        """Bytes the budget counts: entries, live slots and stored
        outcomes, at their measured per-object costs."""
        return (
            len(self._entries) * _ENTRY_BYTES
            + len(self._slots) * _SLOT_BYTES
            + self._outcome_bytes
        )

    def trim(self) -> int:
        """Hold the cache to :data:`CACHE_BUDGET_BYTES`; returns the
        entries evicted.

        Over budget, whole slots go — entries, outcome and slot-table
        row together — least recently used first, until the footprint
        is at most seven eighths of the budget, so the scan over the
        keys runs once per many calls rather than on every call. Keys
        are deleted one by one, so eviction never holds a second copy
        of the cache.
        """
        excess = self.footprint() - CACHE_BUDGET_BYTES
        if excess <= 0:
            return 0
        excess += CACHE_BUDGET_BYTES // 8
        entries = self._entries
        keys = np.fromiter(entries, dtype=np.int64, count=len(entries))
        slots = keys >> _MASK_BITS
        table = len(self._slot_row)
        cost = np.bincount(slots, minlength=table) * _ENTRY_BYTES + _SLOT_BYTES
        for slot, outcome in self._outcomes.items():
            cost[slot] += outcome.nbytes()
        live = np.flatnonzero(np.array(self._slot_row, dtype=np.int64) != _FREE)
        used = np.array(self._slot_used, dtype=np.int64)
        order = live[np.argsort(used[live], kind="stable")]
        cut = int(np.searchsorted(np.cumsum(cost[order]), excess)) + 1
        drop = np.zeros(table, dtype=bool)
        drop[order[:cut]] = True
        gone = keys[drop[slots]].tolist()
        for key in gone:
            del entries[key]
        for slot in order[:cut].tolist():
            self._free_slot(slot)
        self.evicted += len(gone)
        return len(gone)

    def _free_slot(self, slot: int) -> None:
        """Return an emptied slot, and its outcome, to the free list."""
        del self._slots[self._slot_ident[slot]]
        self._slot_ident[slot] = None
        self._slot_row[slot] = _FREE
        self._drop_outcome(slot)
        self._free.append(slot)

    # -- delta invalidation ------------------------------------------------
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

        *data* is the post-insert window matrix. Returns ``(evicted,
        retained)``.
        """
        return self._delta_scan(rows, data, metric, keep_ties=True)

    def delta_expire(
        self, expired_rows: np.ndarray, count: int, data: np.ndarray, metric
    ) -> tuple[int, int]:
        """Evict entries an expiry could have changed.

        Entries *for* an expired query row are dropped. For every other
        entry, removing a row changes the k-smallest multiset only if
        that row's subspace distance was ``<=`` the true kth distance
        (it could have been one of the k neighbours, or tied with one);
        distances strictly above the cached bound prove it was not.
        Keys hold absolute rows, so the survivors keep theirs: the
        window rows shift down by *count*, the expired count rises by
        it.

        *data* is the post-expiry window matrix. Returns ``(evicted,
        retained)``.
        """
        self._expired += count
        return self._delta_scan(expired_rows, data, metric, keep_ties=False)

    def _delta_scan(
        self, batch: np.ndarray, data: np.ndarray, metric, keep_ties: bool
    ) -> tuple[int, int]:
        """Shared delta pass: evict entries the batch's rows can reach.

        Reads every entry's key and ``complex(value, bound)`` as arrays,
        resolves each slot to its point once (:meth:`_slot_points`; an
        unresolvable point — a row outside the window, an external point
        of the wrong width — evicts its entries), measures every resolved
        entry against the whole batch in its own subspace with
        :func:`_subspace_minima`, and rebuilds the entry dict from the
        kept ones. ``keep_ties`` selects the insert rule (a new distance
        *equal* to the bound keeps the k-smallest multiset) versus the
        expire rule (a removed row tied with the kth could have been a
        neighbour, so ties evict). Every slot that loses an entry loses
        its stored outcome, and slots left without an entry are freed.
        """
        count = len(self._entries)
        keys = np.fromiter(self._entries, dtype=np.int64, count=count)
        entries = np.fromiter(self._entries.values(), dtype=np.complex128, count=count)
        bounds = entries.imag
        slots = keys >> _MASK_BITS
        rows = np.array(self._slot_row, dtype=np.int64)
        points, resolved = self._slot_points(rows, data)
        live = np.flatnonzero(resolved[slots])
        mins = _subspace_minima(
            np.asarray(batch, dtype=np.float64),
            points[slots[live]],
            keys[live] & _MASK_LIMIT,
            metric,
        )
        kept = live[mins >= bounds[live] if keep_ties else mins > bounds[live]]
        self._entries = dict(zip(keys[kept].tolist(), entries[kept].tolist()))
        if self._outcomes:
            # One mark per slot that lost an entry drops its outcome.
            gone = np.ones(count, dtype=bool)
            gone[kept] = False
            lost = np.zeros(rows.size, dtype=bool)
            lost[slots[gone]] = True
            stored = np.fromiter(self._outcomes, dtype=np.int64, count=len(self._outcomes))
            for slot in stored[lost[stored]].tolist():
                self._drop_outcome(slot)
        held = np.zeros(rows.size, dtype=bool)
        held[slots[kept]] = True
        for slot in np.flatnonzero(~held & (rows != _FREE)).tolist():
            self._free_slot(slot)
        evicted, retained = count - kept.size, int(kept.size)
        self.delta_evicted += evicted
        self.delta_retained += retained
        return (evicted, retained)

    def _slot_points(
        self, rows: np.ndarray, data: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Every slot's current coordinates and whether it resolves.

        *rows* is the slot table's row column. A row slot resolves while
        its absolute row is in the window *data* and reads its
        coordinates there; an external slot resolves when its coordinate
        bytes have the window's width.
        """
        n, d = data.shape
        points = np.zeros((rows.size, d))
        window = rows - self._expired
        resolved = (rows >= self._expired) & (window < n)
        points[resolved] = data[window[resolved]]
        external = np.flatnonzero(rows == _EXTERNAL)
        if external.size:
            idents = [self._slot_ident[slot] for slot in external.tolist()]
            fits = np.fromiter(map(len, idents), dtype=np.int64, count=len(idents)) == 8 * d
            joined = b"".join(compress(idents, fits.tolist()))
            points[external[fits]] = np.frombuffer(joined, dtype=np.float64).reshape(-1, d)
            resolved[external[fits]] = True
        return points, resolved

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"SharedODCache(entries={len(self)}, hits={self.hits})"


def _subspace_minima(
    batch: np.ndarray, points: np.ndarray, masks: np.ndarray, metric
) -> np.ndarray:
    """Per entry, the smallest distance from ``points[i]`` to any row of
    *batch* in the subspace of ``masks[i]`` — the delta pass's test.

    Metrics with the masked view (``pairwise_masked``, every built-in
    metric) measure all entries at once, whatever their masks, in blocks
    whose ``(entries × batch rows)`` temporaries stay under
    :data:`DELTA_BLOCK_BYTES`. Other metrics keep the per-mask
    arithmetic: entries are grouped by mask with one argsort, and each
    group costs one ``pairwise`` call per batch row. Both paths measure
    a distance with the kernel's own arithmetic (``repro.core.metrics``),
    so an expired kth neighbour reads exactly its bound.
    """
    out = np.full(points.shape[0], np.inf)
    if batch.shape[0] == 0 or points.shape[0] == 0:
        return out
    d = points.shape[1]
    select = mask_matrix(masks, d, bool)
    masked = getattr(metric, "pairwise_masked", None)
    if masked is not None:
        step = max(1, DELTA_BLOCK_BYTES // (8 * batch.shape[0]))
        for start in range(0, points.shape[0], step):
            block = slice(start, start + step)
            out[block] = masked(batch, points[block], select[block]).min(axis=1)
        return out
    order = np.argsort(masks, kind="stable")
    cuts = np.flatnonzero(np.diff(masks[order])) + 1
    for group in np.split(order, cuts):
        dims = np.flatnonzero(select[group[0]])
        mins = np.full(group.size, np.inf)
        for row in batch:
            np.minimum(mins, metric.pairwise(points[group], row, dims), out=mins)
        out[group] = mins
    return out


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
            shared_cache.point_key(query, exclude) if shared_cache is not None else None
        )

    @staticmethod
    def _validate_query(query: np.ndarray, d: int) -> np.ndarray:
        """Coerce and shape-check the query vector once, up front.

        Every later ``od`` call trusts the stored vector, so a malformed
        query fails here with the expected/actual shapes spelled out
        instead of surfacing as an opaque error deep inside a backend.
        """
        query = as_float64(query, "query")
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
