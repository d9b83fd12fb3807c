"""Persistent sharded scatter-gather execution engine, fault-tolerant.

OD scores are additive over data points: the sum of a query's ``k``
smallest subspace distances depends only on the *multiset* of per-point
distances, and the k smallest of a union of per-shard sorted k-prefixes
is exactly the global k smallest (the same argument that makes the
column-blocked level GEMM of
:meth:`~repro.index.linear.LinearScanIndex.knn_distance_prefix_batch`
value-identical to the unblocked product — the reduction axis ``d`` is
never split, so every per-shard distance equals the corresponding
full-scan distance).
That makes row sharding an *exact* scale-out axis, and this module is
its runtime:

:class:`ShardPool`
    Spawned once per fitted miner and reused across every
    ``query_batch`` call. The dataset is split into contiguous row
    shards, each copied once into a ``multiprocessing.shared_memory``
    segment; one long-lived worker process attaches to each segment and
    builds a shard-local backend over the mapped rows (zero-copy for the
    linear scan — ``np.ascontiguousarray`` of an aligned float64 view is
    the view itself). Per round, only masks + query rows cross the pipe
    (never data rows — ``bytes_shipped`` is counter-asserted independent
    of ``n`` in the tests), each shard answers with its local sorted
    k-nearest distance prefixes — the work unit of
    :func:`repro.core.od.knn_prefixes` under the miner's ``kernel``/
    ``precision`` knobs — and the coordinator performs an exact k-way
    streaming merge (:func:`merge_prefixes`) so every OD value is
    element-wise identical to the in-process work unit.

Fault tolerance (the supervision triad)
---------------------------------------
A production pool cannot let one bad process take down every in-flight
query, so the coordinator supervises its workers:

*Supervision & respawn.* A dead worker is detected three ways — a send
on a broken pipe, an ``EOFError``/``OSError`` on the reply read, or a
failed health :meth:`~ShardPool.ping` — and is respawned attached to
the *existing* shared-memory segment for its row slice (the data never
moves twice). The in-flight round is replayed to the fresh worker, so
the caller never sees the crash; answers are identical because every
round is a pure function of its request.

*Deadlines & retries.* Replies are awaited with ``poll()``-based
deadlines (``timeout_s``; ``None`` disables them) instead of a blocking
``recv()``, so a *hung* worker is killed and respawned rather than
wedging the coordinator forever. Each respawn-and-replay attempt backs
off exponentially from ``backoff_s`` up to ``max_retries`` attempts per
shard per round.

*Graceful degradation.* A shard that exhausts its retry budget is
marked irrecoverable: the coordinator attaches its own view of that
shard's segment and serves the slice in-process through the same
work unit the worker would have run (:func:`_shard_prefixes` —
literally the same function), so answers stay element-wise identical
while throughput, not correctness, absorbs the loss. Every such round
is recorded as a degraded-round event.

All of it is observable: :attr:`~ShardPool.respawns`,
:attr:`~ShardPool.timeouts`, :attr:`~ShardPool.retries` and
:attr:`~ShardPool.degraded_rounds` accumulate on the pool, are mirrored
per batch into ``SearchStats`` and show up in
``BatchResult.summary()``. Failures are injectable deterministically
via :mod:`repro.testing.faults` (``HOSMINER_FAULTS``), which drives the
chaos test suite and the E16 robustness benchmark.

Lifecycle: the pool exposes explicit ``close()`` and the context-manager
protocol; teardown also runs via ``weakref.finalize`` (which covers both
garbage collection and ``atexit``), guarded by the owning PID so forked
children can never unlink a parent's live segments. ``close()`` is
idempotent, escalates ``terminate()`` → ``kill()`` on workers that
ignore the shutdown sentinel (logging, not swallowing, any process that
survives even that), and therefore has a bounded worst-case latency.
Using a closed pool raises a loud
:class:`~repro.core.exceptions.ConfigurationError`. A worker-side
*exception* (as opposed to a worker death) is caught in the worker,
shipped back, and re-raised at the coordinator with every sibling
shard's failure attached as ``__notes__`` — the pool itself survives
and keeps serving.
"""

from __future__ import annotations

import ctypes
import logging
import os
import time
import weakref
from multiprocessing import Pipe, Process
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.core.config import require_integer
from repro.core.exceptions import ConfigurationError
from repro.core.od import component_entry, is_full_space, knn_prefixes
from repro.index import make_backend
from repro.index.topk import topk_prefix
from repro.testing.faults import FaultPlan, parse_faults

__all__ = ["ShardPool", "merge_prefixes", "shard_bounds"]

_LOGGER = logging.getLogger(__name__)

#: Worker-side cap on cached per-query component matrices (an ``(n_s, d)``
#: float64 block per distinct query point; hot traffic repeats points, so
#: a small FIFO covers the working set without unbounded growth).
COMPONENT_CACHE_ENTRIES = 64

#: Per-stage grace inside the ``close()`` escalation ladder (sentinel →
#: ``terminate()`` → ``kill()``); worst case is three stages per worker,
#: so teardown latency is bounded at a few seconds even when a worker
#: ignores everything short of SIGKILL.
CLOSE_GRACE_S = 1.0

#: Ceiling on one exponential-backoff sleep between respawn attempts.
BACKOFF_CAP_S = 2.0


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


def _attach_segment(name: str, n: int, d: int):
    """Map a shard segment as an ``(n, d)`` float64 array."""
    # Workers are forked, so they share the coordinator's resource
    # tracker: this attach re-registers a name the tracker already
    # holds (a set — idempotent), and the coordinator's unlink
    # unregisters it exactly once. No worker-side bookkeeping needed.
    segment = shared_memory.SharedMemory(name=name)
    rows = np.ndarray((n, d), dtype=np.float64, buffer=segment.buf)
    return segment, rows


def _shard_prefixes(
    backend,
    queries: np.ndarray,
    masks: np.ndarray,
    k: int,
    excludes: "list[int | None]",
    kernel: str,
    precision: str,
    cache: dict,
) -> np.ndarray:
    """One shard's sorted k-nearest distance prefixes, ``(q, m, k)``.

    The work unit of :func:`repro.core.od.knn_prefixes` over the shard's
    rows, with each query's component entry kept in a small FIFO keyed
    by the query's bytes (hot traffic repeats points). Runs identically
    in a shard worker and, for a degraded shard, in the coordinator's
    in-process fallback — one code path is what keeps degraded answers
    element-wise identical to healthy ones. A full-space request is
    settled exactly and needs no component entry; it goes to the
    shard's full-space unit (one Gram product per block of queries —
    workers pin BLAS to one thread, see :func:`_pin_blas_threads`).
    """
    entries = None
    if not (kernel == "exact" and is_full_space(masks, backend.d)):
        entries = []
        for query in queries:
            key = query.tobytes()
            if key not in cache:
                if len(cache) >= COMPONENT_CACHE_ENTRIES:
                    cache.pop(next(iter(cache)))
                cache[key] = component_entry(backend, query, precision)
            entries.append(cache[key])
    return knn_prefixes(backend, queries, masks, k, excludes, kernel, precision, entries)


def _pin_blas_threads() -> None:
    """Limit this process's OpenBLAS to one thread; a no-op without one.

    Shard workers already occupy the cores, so BLAS threads on top of
    them only oversubscribe. numpy's bundled OpenBLAS exports
    ``scipy_openblas_set_num_threads64_``; the loaded library is found
    through ``/proc/self/maps`` (Linux) and called through ``ctypes``.
    Elsewhere, or when no loaded library exports the symbol, nothing
    changes. Thread count never changes a value here: every full-space
    value is recomputed exactly, and other cells are settled against
    their rounding band as usual.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return
    for path in paths:
        try:
            set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if set_threads is not None:
            set_threads(ctypes.c_int(1))
            return


def _shard_worker(
    conn,
    segment_name: str,
    capacity: int,
    d: int,
    start: int,
    count: int,
    shard_id: int,
    gen: int,
    spec: dict,
) -> None:
    """Long-lived shard worker: attach, build the local backend, serve.

    The worker maps its segment at full *capacity* and serves the
    ``[start, start + count)`` row slice — the coordinator owns the
    spare capacity and may write fresh rows into it (shared memory makes
    them visible here immediately), then move the slice with a
    ``("sync", name, capacity, start, count)`` message. A same-segment
    sync that only trims the head and/or extends the tail is applied
    *incrementally* (``backend.expire`` / per-row ``backend.insert`` —
    already-served rows are never re-indexed); anything else (a regrown
    segment, a non-windowed backend) rebuilds the local backend over the
    new slice. Either way the per-query component cache is dropped: its
    ``(n_s, d)`` matrices baked in the old slice.

    Any exception inside a work unit is shipped back as an ``("err",
    exc)`` reply instead of killing the process, so the pool survives
    malformed requests. A ``None`` message is the shutdown sentinel; a
    ``"ping"`` message is the health probe (answered only once the
    segment attach and backend build have succeeded, which is what
    makes the probe meaningful). The configured fault plan is consulted
    at the attach/recv/send/sync points — inert unless a spec names this
    shard and incarnation.
    """
    _pin_blas_threads()
    plan = FaultPlan.from_spec(spec.get("faults"), shard=shard_id, gen=gen)
    plan.fire("attach")
    segment, rows = _attach_segment(segment_name, capacity, d)
    backend = make_backend(
        spec["index"],
        rows[start : start + count],
        metric=spec["metric"],
        **spec["index_options"],
    )
    cache: dict = {}
    rounds = 0
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            if message == "ping":
                conn.send(("ok", "pong"))
                continue
            # A work unit is also a tuple, but leads with the query
            # array — only a sync message leads with the string tag.
            if isinstance(message, tuple) and message and isinstance(message[0], str):
                plan.fire("sync", rounds)
                try:
                    _, new_name, new_capacity, new_start, new_count = message
                    incremental = (
                        new_name == segment.name
                        and new_start >= start
                        and new_start + new_count >= start + count
                        and hasattr(backend, "expire")
                    )
                    if incremental:
                        for row in range(start + count, new_start + new_count):
                            backend.insert(rows[row])
                        if new_start > start:
                            backend.expire(new_start - start)
                    else:
                        if new_name != segment.name:
                            old_segment = segment
                            segment, rows = _attach_segment(new_name, new_capacity, d)
                            try:
                                old_segment.close()
                            except BufferError:
                                pass  # stale views die with the rebuild below
                        backend = make_backend(
                            spec["index"],
                            rows[new_start : new_start + new_count],
                            metric=spec["metric"],
                            **spec["index_options"],
                        )
                    start, count, capacity = new_start, new_count, new_capacity
                    cache.clear()
                    reply = ("ok", "synced")
                except Exception as exc:
                    reply = ("err", exc)
                conn.send(reply)
                continue
            rounds += 1
            plan.fire("recv", rounds)
            try:
                queries, masks, k, excludes, kernel, precision = message
                reply = (
                    "ok",
                    _shard_prefixes(
                        backend, queries, masks, k, excludes, kernel, precision, cache
                    ),
                )
            except Exception as exc:  # ship it back; the pool survives
                reply = ("err", exc)
            plan.fire("send", rounds)
            try:
                conn.send(reply)
            except Exception:
                # Unpicklable payload (exotic exception): degrade to a
                # picklable stand-in rather than desynchronise the pipe.
                conn.send(("err", ConfigurationError(repr(reply[1]))))
    finally:
        conn.close()
        backend = None
        rows = None
        cache.clear()
        try:
            segment.close()
        except BufferError:
            # A lingering view keeps the mapping alive; process exit
            # releases it either way.
            pass


def _reap_process(proc: Process, grace: float = CLOSE_GRACE_S) -> None:
    """Bounded-latency worker teardown: ``terminate()`` → ``kill()``.

    Never waits more than two *grace* windows; a process that survives
    SIGKILL (unkillable D-state) is logged loudly instead of being
    silently abandoned, so operators see the leak.
    """
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=grace)
    if proc.is_alive():
        proc.kill()
        proc.join(timeout=grace)
    if proc.is_alive():
        _LOGGER.warning(
            "shard worker pid=%s ignored terminate() and kill(); abandoning "
            "the process (its shared-memory segment is unlinked regardless)",
            proc.pid,
        )


def _release_shards(owner_pid, conns, procs, segments, fallback) -> None:
    """Tear down workers and unlink segments (coordinator side only).

    Runs at most once per pool via ``weakref.finalize`` — explicit
    ``close()``, garbage collection and ``atexit`` all funnel here. The
    PID guard keeps forked children (which inherit the parent's pool
    handles) from unlinking segments they do not own.

    Worst-case latency is bounded: the graceful sentinel gets one grace
    window per worker, then :func:`_reap_process` escalates
    ``terminate()`` → ``kill()`` with one window each and *logs* any
    worker that still refuses to die.
    """
    if os.getpid() != owner_pid:
        return
    # Degraded-shard fallback backends hold coordinator-side views into
    # the segments; drop them first so segment.close() can release.
    fallback.clear()
    for conn in conns:
        try:
            conn.send(None)
        except Exception:
            pass
    for proc in procs:
        proc.join(timeout=CLOSE_GRACE_S)
        _reap_process(proc)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for segment in segments:
        try:
            segment.close()
        except Exception:
            pass
        try:
            segment.unlink()
        except Exception:
            pass


class _ShardFailure(Exception):
    """Internal: shard *s* failed to deliver a reply (dead or deadline)."""

    def __init__(self, shard: int, cause: BaseException) -> None:
        super().__init__(f"shard {shard}: {cause!r}")
        self.shard = shard
        self.cause = cause


class ShardPool:
    """Persistent row-sharded worker pool with shared-memory shards.

    Parameters
    ----------
    X:
        The fitted ``(n, d)`` dataset; rows are copied once into one
        shared-memory segment per shard (the only time data moves).
    workers:
        Requested shard count; capped at ``n`` (shards are never empty).
        :attr:`workers` reports the actual count.
    index, metric, index_options:
        Shard-local backend construction, mirroring the miner's fit.
    timeout_s:
        Deadline for one worker reply (and for the post-respawn health
        ping). ``None`` disables deadlines — a hung worker then blocks
        its round forever, exactly the pre-supervision behaviour.
    max_retries:
        Respawn-and-replay attempts per shard per round before the
        shard is declared irrecoverable and served in-process.
    backoff_s:
        First inter-attempt backoff sleep; doubles per attempt, capped
        at :data:`BACKOFF_CAP_S`.
    faults:
        Deterministic fault-injection spec for the workers
        (:mod:`repro.testing.faults`); ``None`` reads the
        ``HOSMINER_FAULTS`` environment variable. Validated here,
        eagerly, so a typo fails at pool construction.

    The pool is kernel-agnostic: every scatter carries its own
    ``kernel``/``precision`` pair, so the engine can run GEMM rounds and
    exact re-verification rounds through the same workers.
    """

    def __init__(
        self,
        X: np.ndarray,
        workers: int,
        *,
        index: str = "linear",
        metric: object = "euclidean",
        index_options: "dict | None" = None,
        timeout_s: "float | None" = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
        faults: "str | None" = None,
    ) -> None:
        if require_integer("workers", workers) < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if timeout_s is not None and not timeout_s > 0:
            raise ConfigurationError(
                f"timeout_s must be positive (or None to disable), got {timeout_s}"
            )
        if require_integer("max_retries", max_retries) < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {max_retries}")
        if not backoff_s >= 0:
            raise ConfigurationError(f"backoff_s must be >= 0, got {backoff_s}")
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
            raise ConfigurationError(
                f"expected a non-empty (n, d) matrix, got shape {X.shape}"
            )
        self.workers_requested = workers
        self.n, self.d = X.shape
        self._bounds = shard_bounds(self.n, workers)
        # Per-shard segment geometry for live window updates: shard s
        # serves rows [_starts[s], _starts[s] + _counts[s]) of a segment
        # sized _caps[s] rows. apply_update() writes inserts into the
        # tail shard's spare capacity, trims the head shard by bumping
        # its start, and recomputes _bounds (window coordinates).
        self._starts = [0 for _ in self._bounds]
        self._counts = [hi - lo for lo, hi in self._bounds]
        self._caps = [hi - lo for lo, hi in self._bounds]
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._backoff_s = backoff_s
        self.round_trips = 0
        self.bytes_shipped = 0
        #: Live window updates propagated into worker segments.
        self.syncs = 0
        #: Tail-shard segments regrown (doubled) to absorb inserts.
        self.tail_regrows = 0
        #: Dead or hung workers respawned onto their existing segment.
        self.respawns = 0
        #: Respawn-and-replay attempts (each one replays the in-flight
        #: round to a fresh worker).
        self.retries = 0
        #: Reply deadlines that expired (hung worker killed + respawned).
        self.timeouts = 0
        #: Shard-rounds served in-process after a shard became
        #: irrecoverable (one event per degraded shard per round).
        self.degraded_rounds = 0
        if faults is None:
            faults = os.environ.get("HOSMINER_FAULTS")
        parse_faults(faults)  # eager validation: typos fail loudly here
        spec = {
            "index": index,
            "metric": metric,
            "index_options": dict(index_options or {}),
            "faults": faults,
        }
        self._spec = spec

        segments: list[shared_memory.SharedMemory] = []
        conns = []
        procs: list[Process] = []
        fallback: dict = {}
        try:
            for s, (lo, hi) in enumerate(self._bounds):
                block = X[lo:hi]
                segment = shared_memory.SharedMemory(
                    create=True, size=block.nbytes
                )
                view = np.ndarray(block.shape, dtype=np.float64, buffer=segment.buf)
                view[:] = block
                del view
                parent_conn, child_conn = Pipe()
                proc = Process(
                    target=_shard_worker,
                    args=(
                        child_conn, segment.name, hi - lo, self.d, 0, hi - lo,
                        s, 0, spec,
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                segments.append(segment)
                conns.append(parent_conn)
                procs.append(proc)
        except Exception:
            _release_shards(os.getpid(), conns, procs, segments, fallback)
            raise
        self._segments = segments
        self._conns = conns
        self._procs = procs
        #: Worker incarnation per shard (0 = original spawn).
        self._gen = [0] * len(self._bounds)
        #: Shards whose pipe is known unusable (failed ping); the next
        #: scatter routes them straight through the respawn path.
        self._dead = [False] * len(self._bounds)
        #: Irrecoverable shards, permanently served in-process.
        self._degraded = [False] * len(self._bounds)
        #: Per-shard coordinator-side fallback backend + component cache
        #: (built lazily on first degraded round, cleared at teardown).
        self._fallback = fallback
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _release_shards, os.getpid(), conns, procs, segments, fallback
        )

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Actual shard count (``min(workers_requested, n)``)."""
        return len(self._bounds)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def degraded_shards(self) -> list[int]:
        """Shards currently served in-process (irrecoverable workers)."""
        return [s for s, flag in enumerate(self._degraded) if flag]

    @property
    def segment_names(self) -> list[str]:
        """Names of the shared-memory segments (for leak assertions)."""
        return [segment.name for segment in self._segments]

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "ShardPool is closed — create a new pool (HOSMiner spawns "
                "one automatically on the next query_batch call)"
            )

    # ------------------------------------------------------------------
    # Supervision primitives
    # ------------------------------------------------------------------
    def _recv_reply(self, s: int):
        """One shard's reply, bounded by the pool deadline.

        ``poll()`` also wakes on EOF, so a worker that died after the
        request was sent surfaces here as :class:`_ShardFailure` (cause
        ``EOFError``) rather than blocking; a worker that is merely hung
        surfaces as a deadline expiry (cause ``TimeoutError``). Either
        way the pipe is abandoned afterwards — the caller respawns
        before reusing the shard, so a late reply can never desync a
        following round.
        """
        conn = self._conns[s]
        if self._timeout_s is not None and not conn.poll(self._timeout_s):
            self.timeouts += 1
            raise _ShardFailure(
                s, TimeoutError(f"no reply within timeout_s={self._timeout_s}")
            )
        try:
            return conn.recv()
        except (EOFError, OSError) as exc:
            raise _ShardFailure(s, exc) from exc

    def _respawn(self, s: int) -> None:
        """Replace shard *s*'s worker, reattached to its existing segment.

        The dead/hung incumbent is reaped (``terminate()`` → ``kill()``,
        bounded), a fresh process is forked against the *same*
        shared-memory segment — the shard's rows never move — and health
        -pinged before the caller replays any work, so a worker that
        dies during segment attach is caught here, not mid-round.
        Raises :class:`_ShardFailure` when the fresh worker fails the
        ping (the caller's retry loop decides what happens next).
        """
        self._reap_worker(s)
        self._gen[s] += 1
        parent_conn, child_conn = Pipe()
        # The fresh worker gets the *current* geometry, so respawning is
        # also how a failed sync converges: no replayed sync needed.
        proc = Process(
            target=_shard_worker,
            args=(
                child_conn,
                self._segments[s].name,
                self._caps[s],
                self.d,
                self._starts[s],
                self._counts[s],
                s,
                self._gen[s],
                self._spec,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        # In-place assignment: the finalizer captured these lists at
        # construction, so replacing elements (never the lists) keeps
        # GC/atexit teardown aware of the current incarnation.
        self._conns[s] = parent_conn
        self._procs[s] = proc
        self._dead[s] = False
        self.respawns += 1
        # Health ping: the worker only answers once attach + backend
        # build succeeded, so "pong" certifies a servable shard.
        try:
            parent_conn.send("ping")
            status, payload = self._recv_reply(s)
        except (BrokenPipeError, OSError) as exc:
            raise _ShardFailure(s, exc) from exc
        if (status, payload) != ("ok", "pong"):
            raise _ShardFailure(
                s, ConfigurationError(f"bad ping reply: {(status, payload)!r}")
            )

    def _reap_worker(self, s: int) -> None:
        """Close shard *s*'s pipe and take its process down, bounded."""
        try:
            self._conns[s].close()
        except Exception:
            pass
        _reap_process(self._procs[s])

    def _degrade(self, s: int) -> None:
        """Mark shard *s* irrecoverable; its slice is served in-process
        from here on (the segment outlives the workers, so the rows are
        still one attach away)."""
        self._degraded[s] = True
        self._reap_worker(s)
        _LOGGER.warning(
            "shard %d irrecoverable after %d respawn attempt(s); serving its "
            "%d-row slice in-process from now on (answers unchanged, "
            "throughput degraded)",
            s,
            self._max_retries,
            self._bounds[s][1] - self._bounds[s][0],
        )

    def _replay_with_retries(self, s: int, request: tuple, request_bytes: int):
        """Respawn-and-replay shard *s* until it answers or the budget is
        out; returns ``(status, payload, shipped_bytes)`` or ``None``
        when the shard was degraded instead."""
        shipped = 0
        delay = self._backoff_s
        for _ in range(self._max_retries):
            # A close() racing this round must not respawn workers onto
            # segments that are being unlinked under us.
            self._require_open()
            self.retries += 1
            if delay > 0:
                time.sleep(min(delay, BACKOFF_CAP_S))
                delay *= 2
            try:
                self._respawn(s)
                self._conns[s].send(request)
                shipped += request_bytes
                status, payload = self._recv_reply(s)
            except (_ShardFailure, BrokenPipeError, OSError):
                continue
            if status == "ok":
                shipped += payload.nbytes
            return status, payload, shipped
        self._degrade(s)
        return None

    def _fallback_prefixes(self, s: int, request: tuple) -> np.ndarray:
        """Serve a degraded shard's slice in-process.

        The coordinator maps its own view of the shard's segment and
        runs :func:`_shard_prefixes` — the exact function the worker
        runs — over a backend built the same way, so the values are
        element-wise identical to what the healthy worker would have
        returned. Backend and component cache persist across rounds.
        """
        self._require_open()  # the segment view below needs live segments
        entry = self._fallback.get(s)
        if entry is None:
            rows = np.ndarray(
                (self._caps[s], self.d), dtype=np.float64, buffer=self._segments[s].buf
            )[self._starts[s] : self._starts[s] + self._counts[s]]
            backend = make_backend(
                self._spec["index"],
                rows,
                metric=self._spec["metric"],
                **self._spec["index_options"],
            )
            entry = (backend, {})
            self._fallback[s] = entry
        backend, cache = entry
        queries, masks, k, excludes, kernel, precision = request
        return _shard_prefixes(
            backend, queries, masks, k, excludes, kernel, precision, cache
        )

    def ping(self, timeout: "float | None" = None) -> list[bool]:
        """Health-probe every shard; returns per-shard liveness.

        Degraded shards report ``False`` without a probe (they have no
        worker). A shard that fails the probe is marked dead and its
        pipe abandoned — the next scatter routes it through the respawn
        path — so a late pong can never be mistaken for a work reply.
        """
        self._require_open()
        if timeout is None:
            timeout = self._timeout_s
        health: list[bool] = []
        for s in range(len(self._bounds)):
            if self._degraded[s] or self._dead[s]:
                health.append(False)
                continue
            alive = False
            try:
                self._conns[s].send("ping")
                if timeout is not None and not self._conns[s].poll(timeout):
                    raise TimeoutError(f"no pong within {timeout}s")
                alive = self._conns[s].recv() == ("ok", "pong")
            except Exception:
                alive = False
            if not alive:
                # Abandon the pipe: a reply arriving after the deadline
                # must never be read as the next round's payload.
                self._reap_worker(s)
                self._dead[s] = True
            health.append(alive)
        return health

    @staticmethod
    def _attach_failure_notes(errors: "list[Exception]") -> Exception:
        """Aggregate multi-shard failures onto one raisable exception.

        The first error is raised; every sibling shard's failure is
        attached as a PEP 678 note (``add_note`` on 3.11+, a hand-set
        ``__notes__`` on 3.10) so a multi-shard failure is diagnosable
        from the one traceback instead of silently dropping all but the
        first worker's exception.
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
    def apply_update(self, rows: "np.ndarray | None", expired: int = 0) -> bool:
        """Propagate a window update into the live shards, in place.

        Inserted *rows* are written by the coordinator into the tail
        shard's spare segment capacity (shared memory makes them visible
        to the worker instantly; when the capacity is exhausted the tail
        segment is regrown with doubled headroom and its worker is moved
        over by the respawn machinery's sync path). *expired* rows leave
        by bumping the head shard's start offset. Only the affected
        shards are then re-synced — middle shards never hear about the
        update, which is what makes sustained streaming cheap.

        Returns ``False`` — without touching anything — when the update
        cannot be applied incrementally: an expiry that would drain the
        head shard entirely. The caller (the miner) closes the pool and
        lets the next batch respawn it over the re-balanced window; with
        a steady window this happens once every ~``n/(workers·batch)``
        pushes, so its cost amortises away.

        A shard whose sync ultimately fails (even across respawn
        retries) is degraded exactly like a failed scatter — served
        in-process over the updated geometry — so answers never depend
        on sync delivery.
        """
        self._require_open()
        if expired < 0:
            raise ConfigurationError(f"expired must be >= 0, got {expired}")
        if rows is None:
            rows = np.empty((0, self.d))
        rows = np.ascontiguousarray(np.atleast_2d(rows), dtype=np.float64)
        if rows.size and rows.shape[1] != self.d:
            raise ConfigurationError(
                f"update rows have {rows.shape[1]} columns, the pool holds d={self.d}"
            )
        fresh = rows.shape[0]
        if expired and expired >= self._counts[0]:
            # Draining the head shard would leave an empty worker; the
            # pool is rebuilt (rebalanced) by the owner instead.
            return False
        if not fresh and not expired:
            return True

        affected: set[int] = set()
        retired = None
        if fresh:
            tail = len(self._bounds) - 1
            start_t, count_t, cap_t = self._starts[tail], self._counts[tail], self._caps[tail]
            if start_t + count_t + fresh > cap_t:
                # Regrow: a new segment with doubled headroom, live tail
                # rows + fresh rows copied once, swapped in place (the
                # finalizer holds the list, so element assignment keeps
                # teardown accurate), old segment retired.
                new_cap = 2 * (count_t + fresh)
                new_segment = shared_memory.SharedMemory(
                    create=True, size=new_cap * self.d * 8
                )
                view = np.ndarray((new_cap, self.d), dtype=np.float64, buffer=new_segment.buf)
                old_view = np.ndarray(
                    (cap_t, self.d), dtype=np.float64, buffer=self._segments[tail].buf
                )
                view[:count_t] = old_view[start_t : start_t + count_t]
                view[count_t : count_t + fresh] = rows
                del view, old_view
                retired = self._segments[tail]
                self._fallback.pop(tail, None)  # held views into the old segment
                self._segments[tail] = new_segment
                self._starts[tail] = 0
                self._counts[tail] = count_t + fresh
                self._caps[tail] = new_cap
                self.tail_regrows += 1
            else:
                view = np.ndarray(
                    (cap_t, self.d), dtype=np.float64, buffer=self._segments[tail].buf
                )
                view[start_t + count_t : start_t + count_t + fresh] = rows
                del view
                self._counts[tail] += fresh
            affected.add(tail)
        if expired:
            self._starts[0] += expired
            self._counts[0] -= expired
            affected.add(0)

        self.n = sum(self._counts)
        bounds, lo = [], 0
        for count in self._counts:
            bounds.append((lo, lo + count))
            lo += count
        self._bounds = bounds

        try:
            for s in sorted(affected):
                self._sync_shard(s)
        finally:
            if retired is not None:
                # Only after the sync: a worker spawned with the old
                # segment's name may not have attached it yet.
                try:
                    retired.close()
                    retired.unlink()
                except Exception:
                    pass
        return True

    def _sync_shard(self, s: int) -> None:
        """Deliver shard *s*'s current geometry to its worker.

        Degraded shards just drop their in-process fallback (rebuilt
        lazily over the new geometry). A dead-pipe shard is left for the
        next scatter's respawn path — a respawned worker attaches with
        the current geometry anyway. A live worker gets the ``sync``
        message; on any failure (deadline, crash, error reply) the shard
        goes through the same respawn-with-retries ladder as a failed
        scatter round, degrading as the last resort.
        """
        self.syncs += 1
        if self._degraded[s]:
            self._fallback.pop(s, None)
            return
        if self._dead[s]:
            return
        message = (
            "sync",
            self._segments[s].name,
            self._caps[s],
            self._starts[s],
            self._counts[s],
        )
        try:
            self._conns[s].send(message)
            status, payload = self._recv_reply(s)
            if (status, payload) == ("ok", "synced"):
                return
        except (_ShardFailure, BrokenPipeError, OSError):
            pass
        # Respawn-with-retries: a fresh worker attaches straight to the
        # updated geometry, so no sync replay is needed.
        delay = self._backoff_s
        for _ in range(self._max_retries):
            self._require_open()
            self.retries += 1
            if delay > 0:
                time.sleep(min(delay, BACKOFF_CAP_S))
                delay *= 2
            try:
                self._respawn(s)
                return
            except _ShardFailure:
                continue
        self._degrade(s)
        self._fallback.pop(s, None)

    # ------------------------------------------------------------------
    def scatter_prefixes(
        self,
        queries: np.ndarray,
        masks: np.ndarray,
        k: int,
        excludes: "Sequence[int | None]",
        kernel: str,
        precision: str,
    ) -> np.ndarray:
        """One scatter-gather round: merged ``(q, m, k)`` global prefixes.

        *masks* is a 1-D integer array of subspace bitmasks (each worker
        checks it with :func:`~repro.index.base.validate_masks`). Ships
        ``(queries, masks)`` to every live shard, gathers per-shard
        sorted k-nearest partials and merges them exactly. Shipped bytes
        (request broadcast + replies, including replays) accumulate on
        :attr:`bytes_shipped`; each call counts one :attr:`round_trips`.

        Failure handling is per shard: a broken send, a dead pipe or an
        expired deadline routes that shard through respawn-and-replay
        (:attr:`retries`/:attr:`timeouts`/:attr:`respawns`), and a shard
        whose retry budget runs out is served in-process for this and
        every later round (:attr:`degraded_rounds`). Worker-side
        *exceptions* (bad requests) are still re-raised here after all
        replies are drained — with sibling failures attached as notes —
        and the pool keeps serving.
        """
        self._require_open()
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        masks = np.asarray(masks)
        excludes = list(excludes)
        request_bytes = queries.nbytes + masks.nbytes
        shipped = 0
        shards = len(self._bounds)

        requests: list[tuple] = []
        for lo, hi in self._bounds:
            local = [
                ex - lo if ex is not None and lo <= ex < hi else None
                for ex in excludes
            ]
            requests.append((queries, masks, k, local, kernel, precision))

        parts: "list[np.ndarray | None]" = [None] * shards
        errors: list[Exception] = []
        failed: list[int] = []

        # Bulk scatter to every live shard, then drain every pipe we
        # actually wrote to — pipes stay request/reply-synchronised.
        pending: list[int] = []
        for s in range(shards):
            if self._degraded[s]:
                continue
            if self._dead[s]:
                failed.append(s)
                continue
            try:
                self._conns[s].send(requests[s])
                shipped += request_bytes
                pending.append(s)
            except (BrokenPipeError, OSError):
                failed.append(s)
        for s in pending:
            try:
                status, payload = self._recv_reply(s)
            except _ShardFailure:
                failed.append(s)
                continue
            if status == "ok":
                parts[s] = payload
                shipped += payload.nbytes
            else:
                errors.append(payload)

        # Slow path: respawn-and-replay each failed shard; a shard that
        # exhausts its budget is degraded and handled below.
        for s in failed:
            outcome = self._replay_with_retries(s, requests[s], request_bytes)
            if outcome is None:
                continue
            status, payload, replay_bytes = outcome
            shipped += replay_bytes
            if status == "ok":
                parts[s] = payload
            else:
                errors.append(payload)

        # Graceful degradation: irrecoverable shards are served by the
        # coordinator itself, through the same kernels.
        for s in range(shards):
            if self._degraded[s] and parts[s] is None:
                parts[s] = self._fallback_prefixes(s, requests[s])
                self.degraded_rounds += 1

        self.round_trips += 1
        self.bytes_shipped += shipped
        if errors:
            raise self._attach_failure_notes(errors)
        return merge_prefixes([part for part in parts if part is not None], k)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent teardown: stop workers, close + unlink segments.

        Bounded worst case even against wedged workers — the finalizer
        escalates sentinel → ``terminate()`` → ``kill()`` with one grace
        window each and logs anything that survives.
        """
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        degraded = f", degraded={self.degraded_shards}" if any(self._degraded) else ""
        return (
            f"ShardPool({state}, workers={self.workers}, n={self.n}, "
            f"d={self.d}, round_trips={self.round_trips}, "
            f"respawns={self.respawns}{degraded})"
        )
