"""Row-sharded scatter-gather on threads.

OD scores are additive over data points: the sum of a query's ``k``
smallest subspace distances depends only on the *multiset* of per-point
distances, and the k smallest of a union of per-shard sorted k-prefixes
is exactly the global k smallest (the same argument that makes the
column-blocked level GEMM of
:meth:`~repro.index.linear.LinearScanIndex.knn_distance_prefix_batch`
value-identical to the unblocked product — the reduction axis ``d`` is
never split, so every per-shard distance equals the corresponding
full-scan distance). Row sharding is therefore exact whatever runs the
shards, and this module runs them on threads of one process:

:class:`ShardPool`
    Built once per fitted miner and reused across every ``query_batch``
    call. The window is split into contiguous row shards, each served
    by its own backend over a view of its rows (no copy). A scatter
    runs the work unit of :func:`repro.core.od.knn_prefixes` on every
    shard at once — the calling thread takes shard 0, one thread of a
    persistent :class:`~concurrent.futures.ThreadPoolExecutor` each
    other shard — and :func:`merge_prefixes` joins the per-shard
    k-prefixes exactly, so every OD value is element-wise identical to
    the in-process work unit. numpy releases the GIL inside the
    products, partitions and reductions that dominate a work unit, so
    the shards overlap on separate cores; OpenBLAS is held at one
    thread while a scatter runs (:func:`_pin_blas_threads`) so the
    shards do not oversubscribe them.

A shard's work unit reads row slices of the caller's component entries
(:func:`repro.core.od.component_entry`), so components are built once
per search, on the caller's full backend, under the search driver's
budget. An exception raised in any shard is re-raised once the scatter
has gathered every shard, with each sibling shard's failure attached
as a PEP 678 note; the pool keeps serving. Window updates reach the
live shards in place (:meth:`ShardPool.apply_update`).

Lifecycle: ``close()`` (idempotent; also the context-manager exit)
stops the pool threads and joins them; garbage collection and
interpreter exit stop them too (``weakref.finalize``). Using a closed
pool raises a :class:`~repro.core.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import ctypes
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cache
from typing import Sequence

import numpy as np

from repro.core.config import require_integer
from repro.core.exceptions import ConfigurationError
from repro.core.od import knn_prefixes
from repro.index import make_backend
from repro.index.topk import topk_prefix

__all__ = ["ShardPool", "merge_prefixes", "shard_bounds"]

#: Name prefix of the pool threads (for leak checks).
THREAD_NAME_PREFIX = "repro-shard"


def shard_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges for up to *workers* shards.

    Mirrors ``np.array_split`` sizing; shards are never empty, so fewer
    than *workers* shards come back when ``n < workers``.
    """
    shards = max(1, min(workers, n))
    base, extra = divmod(n, shards)
    bounds = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def merge_prefixes(parts: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Exact k-way merge of per-shard sorted distance prefixes.

    *parts* are ``(q, m, k)`` blocks, each row sorted ascending and
    inf-padded where a shard holds fewer than ``k`` candidates. The k
    smallest of the union of per-shard k-prefixes is the global
    k-prefix, so the merged result equals what one scan of the full
    dataset would have produced — value-identical, because every shard
    distance equals the corresponding full-scan distance (per-row
    arithmetic never crosses shard boundaries).
    """
    merged = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    q, m, width = merged.shape
    if width > k:
        flat = topk_prefix(merged.reshape(q * m, width), k)
        merged = flat.reshape(q, m, k)
    return merged


@cache
def _openblas_threads():
    """``(get, set)`` of the loaded OpenBLAS's thread count, or ``None``.

    numpy's bundled OpenBLAS exports ``scipy_openblas_get_num_threads64_``
    and ``scipy_openblas_set_num_threads64_``; the loaded library is
    found through ``/proc/self/maps`` (Linux) and called through
    ``ctypes``. Elsewhere, or when no loaded library exports both
    symbols, there is nothing to pin.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(library, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(library, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            return get, set_
    return None


_pin_lock = threading.Lock()
_pins = 0
_unpinned_threads = 1


@contextmanager
def _pin_blas_threads():
    """Hold OpenBLAS at one thread while the block runs, then restore it.

    The shards already occupy the cores, so BLAS threads on top of them
    only oversubscribe; outside a scatter (the in-process path, the
    full-space Gram screen) BLAS keeps its own thread count. Concurrent
    scatters share one pin: the first sets it, the last restores the
    count the first one found. A no-op without OpenBLAS. Thread count
    never changes a value here: every full-space value is recomputed
    exactly, and other cells are settled against their rounding band as
    usual.
    """
    global _pins, _unpinned_threads
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _pin_lock:
        if _pins == 0:
            _unpinned_threads = get()
            set_(ctypes.c_int(1))
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                set_(ctypes.c_int(_unpinned_threads))


def _entry_rows(entry: "tuple | None", lo: int, hi: int) -> "tuple | None":
    """Rows ``[lo, hi)`` of a component entry, as views.

    The components are per-row terms, so a row slice of the full entry
    is the entry a shard would build over its own rows; ``finite`` holds
    for any slice of a finite matrix.
    """
    if entry is None:
        return None
    components, components32, finite = entry
    return (
        components[lo:hi],
        None if components32 is None else components32[:, lo:hi],
        finite,
    )


class ShardPool:
    """Row shards of one window, served on threads.

    Parameters
    ----------
    X:
        The fitted ``(n, d)`` window. Each shard's backend is built over
        a view of its rows; its row store
        (:class:`~repro.index.base.RowStore`) grows into a fresh array
        before its first write, so the view is never written.
    workers:
        Requested shard count; capped at ``n`` (shards are never empty).
        :attr:`workers` reports the actual count. The pool holds
        ``workers - 1`` threads; the caller runs shard 0.
    index, metric, index_options:
        Shard-local backend construction, mirroring the miner's fit.

    The pool is kernel-agnostic: every scatter carries its own
    ``kernel``/``precision`` pair, so the engine runs GEMM rounds and
    exact re-verification rounds through the same shards.
    """

    def __init__(
        self,
        X: np.ndarray,
        workers: int,
        *,
        index: str = "linear",
        metric: object = "euclidean",
        index_options: "dict | None" = None,
    ) -> None:
        if require_integer("workers", workers) < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise ConfigurationError(
                f"expected a non-empty (n, d) matrix, got shape {X.shape}"
            )
        self.workers_requested = workers
        self.d = X.shape[1]
        self._index = index
        self._metric = metric
        self._index_options = dict(index_options or {})
        #: Scatter rounds served (one per :meth:`scatter_prefixes` call).
        self.round_trips = 0
        self._executor = None
        if workers > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=workers - 1, thread_name_prefix=THREAD_NAME_PREFIX
            )
            # A pool dropped without close() stops its threads too.
            weakref.finalize(self, self._executor.shutdown, wait=False)
        self._closed = False
        self._build(X)

    def _build(self, X: np.ndarray) -> None:
        """(Re)build the shards over the window *X*."""
        self.n = X.shape[0]
        self._bounds = shard_bounds(self.n, self.workers_requested)
        self._backends = [
            make_backend(self._index, X[lo:hi], metric=self._metric, **self._index_options)
            for lo, hi in self._bounds
        ]

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Actual shard count (``min(workers_requested, n)``)."""
        return len(self._bounds)

    @property
    def closed(self) -> bool:
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "ShardPool is closed — create a new pool (HOSMiner builds "
                "one automatically on the next query_batch call)"
            )

    @staticmethod
    def _attach_failure_notes(errors: "list[BaseException]") -> BaseException:
        """Aggregate multi-shard failures onto one raisable exception.

        The first error is raised; every sibling shard's failure is
        attached as a PEP 678 note (``add_note`` on 3.11+, a hand-set
        ``__notes__`` on 3.10) so a multi-shard failure is diagnosable
        from the one traceback instead of silently dropping all but the
        first shard's exception.
        """
        primary = errors[0]
        for extra in errors[1:]:
            note = f"also raised in a sibling shard: {extra!r}"
            if hasattr(primary, "add_note"):
                primary.add_note(note)
            else:  # python 3.10: attach the PEP 678 attribute by hand
                notes = list(getattr(primary, "__notes__", []))
                notes.append(note)
                primary.__notes__ = notes
        return primary

    # ------------------------------------------------------------------
    # Live window updates
    # ------------------------------------------------------------------
    def apply_update(self, rows: "np.ndarray | None", expired: int = 0) -> None:
        """Follow a window update in place.

        Inserted *rows* go to the tail shard's backend and *expired*
        rows leave the head shard's backend, so the middle shards never
        hear about the update. An expiry that would drain the head shard
        rebuilds every shard over the updated window instead (once every
        ``n / workers`` expired rows with a steady window).
        """
        self._require_open()
        expired = require_integer("expired", expired)
        if expired < 0:
            raise ConfigurationError(f"expired must be >= 0, got {expired}")
        if rows is None:
            rows = np.empty((0, self.d))
        rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.float64)
        if rows.size and rows.shape[1] != self.d:
            raise ConfigurationError(
                f"update rows have {rows.shape[1]} columns, the pool holds d={self.d}"
            )
        head, tail = self._backends[0], self._backends[-1]
        if expired >= head.size:
            window = np.concatenate([backend.data for backend in self._backends] + [rows])
            self._build(window[expired:])
            return
        for row in rows:
            tail.insert(row)
        if expired:
            head.expire(expired)
        lo = 0
        self._bounds = []
        for backend in self._backends:
            self._bounds.append((lo, lo + backend.size))
            lo += backend.size
        self.n = lo

    # ------------------------------------------------------------------
    def scatter_prefixes(
        self,
        queries: np.ndarray,
        masks: np.ndarray,
        k: int,
        excludes: "Sequence[int | None]",
        kernel: str,
        precision: str,
        entries: "Sequence[tuple | None] | None" = None,
    ) -> np.ndarray:
        """One scatter-gather round: merged ``(q, m, k)`` global prefixes.

        *masks* is a 1-D integer array of subspace bitmasks (each shard
        checks it with :func:`~repro.index.base.validate_masks`).
        *entries* are the callers' component entries over the whole
        window, as for :func:`~repro.core.od.knn_prefixes`; each shard
        reads its rows of them. Every shard answers its rows' sorted
        k-nearest partials and :func:`merge_prefixes` joins them
        exactly; each call counts one :attr:`round_trips`. A shard's
        exception is re-raised after every shard has finished, with its
        siblings' failures attached as notes, and the pool keeps
        serving.
        """
        self._require_open()
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        masks = np.asarray(masks)
        excludes = list(excludes)
        requests = []
        for backend, (lo, hi) in zip(self._backends, self._bounds):
            local = [ex - lo if ex is not None and lo <= ex < hi else None for ex in excludes]
            rows = None if entries is None else [_entry_rows(entry, lo, hi) for entry in entries]
            requests.append((backend, queries, masks, k, local, kernel, precision, rows))
        parts, errors = [], []
        with _pin_blas_threads():
            futures = [self._executor.submit(knn_prefixes, *request) for request in requests[1:]]
            try:
                parts.append(knn_prefixes(*requests[0]))
            except Exception as exc:
                errors.append(exc)
            for future in futures:
                error = future.exception()
                if error is None:
                    parts.append(future.result())
                else:
                    errors.append(error)
        self.round_trips += 1
        if errors:
            raise self._attach_failure_notes(errors)
        return merge_prefixes(parts, k)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent teardown: stop the pool threads and join them."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        self._backends = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ShardPool({state}, workers={self.workers}, n={self.n}, "
            f"d={self.d}, round_trips={self.round_trips})"
        )
