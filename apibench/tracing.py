"""Outside-in tracing: wrap each layer's public functions where they are looked up.

Nothing under ``src/`` changes. :class:`Tracer` replaces functions and
methods of the ``repro`` modules with timing wrappers while it is
installed, and restores the originals when it is removed, so a traced
step and an untraced step run the same program apart from the wrappers.

Every wrapped call feeds a per-name accumulator ``[calls, span_s,
self_s]``. A call's self time is its span minus the spans of the wrapped
calls it made, so a layer's ``*_s`` is time spent in that layer's own
code. Functions called per mask (``prune_supersets`` runs about 100k
times per 200 queries) only touch their accumulator; the public API
calls listed in :data:`SPAN_NAMES` also record one span each, with the
span that caused it and the request (root span) it belongs to.
"""

from __future__ import annotations

import functools
import time

#: The patch table: ``(module, attribute path, accumulator name)``.
#: Module-level functions are patched in the module that *calls* them
#: (``from x import f`` binds a second name that a patch of ``x.f``
#: would miss), methods on their class.
PATCHES = [
    # fit path
    ("repro.core.miner", "make_backend", "fit.index_build"),
    ("repro.core.miner", "calibrate_threshold", "fit.calibrate"),
    ("repro.core.miner", "learn_priors", "fit.learn"),
    # public API (root spans)
    ("repro.core.miner", "HOSMiner.fit", "api.fit"),
    ("repro.core.miner", "HOSMiner.query_row", "api.query_row"),
    ("repro.core.miner", "HOSMiner.query_point", "api.query_point"),
    ("repro.core.miner", "HOSMiner.query_batch", "api.query_batch"),
    ("repro.core.miner", "HOSMiner.detect_outliers", "api.detect_outliers"),
    ("repro.core.stream", "StreamEngine.push", "api.push"),
    # core.batch
    ("repro.core.batch", "BatchQueryEngine.run", "batch.run"),
    # core.search / core.lattice / core.savings
    ("repro.core.search", "DynamicSubspaceSearch.run", "search.run"),
    ("repro.core.lattice", "SubspaceLattice.prune_supersets", "lattice.prune"),
    ("repro.core.lattice", "SubspaceLattice.prune_subsets", "lattice.prune"),
    ("repro.core.lattice", "SubspaceLattice.mark_evaluated", "lattice.mark"),
    ("repro.core.search", "total_saving_factor", "savings.tsf"),
    # core.od
    ("repro.core.od", "SharedODCache.get", "od.cache_get"),
    ("repro.core.od", "ODEvaluator.od_many", "od.od_many"),
    ("repro.core.od", "SharedODCache.delta_insert", "od.delta"),
    ("repro.core.od", "SharedODCache.delta_expire", "od.delta"),
    # index.linear / index.topk
    ("repro.index.linear", "LinearScanIndex.knn", "index.knn"),
    ("repro.index.linear", "LinearScanIndex.knn_distance_prefix", "index.prefix"),
    ("repro.index.linear", "LinearScanIndex.knn_distance_prefix_batch", "index.prefix_batch"),
    ("repro.index.linear", "LinearScanIndex.distance_components", "index.components"),
    ("repro.index.linear", "LinearScanIndex.insert", "index.update"),
    ("repro.index.linear", "LinearScanIndex.expire", "index.update"),
    ("repro.index.linear", "topk_prefix", "topk"),
    ("repro.core.shard", "topk_prefix", "topk"),
    # core.filtering
    ("repro.core.miner", "minimal_masks", "filtering.minimal"),
    # core.shard (coordinator side; worker internals are not traced)
    ("repro.core.shard", "ShardPool.__init__", "shard.spawn"),
    ("repro.core.shard", "ShardPool.scatter_prefixes", "shard.scatter"),
    ("repro.core.shard", "merge_prefixes", "shard.merge"),
    # core.stream
    ("repro.core.miner", "HOSMiner.insert", "stream.insert"),
    ("repro.core.miner", "HOSMiner.expire", "stream.expire"),
]

#: Leaf functions called per mask, per row or per result: they call no
#: other wrapped function, so their wrapper skips the span stack.
LEAF_NAMES = frozenset({
    "lattice.prune", "lattice.mark", "savings.tsf", "od.cache_get", "topk",
    "filtering.minimal", "index.update",
})

#: Accumulators whose calls also record a span.
SPAN_NAMES = frozenset(
    name for _, _, name in PATCHES if name.startswith("api.")
) | {"stream.insert", "stream.expire", "shard.spawn", "shard.scatter"}


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` for a dotted attribute path in a module."""
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Self-time accumulators and in-memory spans for wrapped calls.

    ``install()`` patches every entry of :data:`PATCHES`; ``remove()``
    puts the originals back. Accumulate into a fresh :attr:`acc` by
    calling :meth:`reset`.
    """

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        #: name -> [calls, span seconds, self seconds]
        self.acc: dict[str, list] = {}
        #: Finished spans: (id, parent id, request id, name, start, end).
        self.spans: list[tuple] = []
        # One frame per open wrapped call: [child seconds, span id].
        self._stack: list[list] = []
        self._next_id = 0

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def reset(self) -> None:
        self.acc = {}

    def install(self) -> None:
        if self.installed:
            return
        for module_name, path, name in PATCHES:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()

    def _record(self, name: str) -> list:
        rec = self.acc.get(name)
        if rec is None:
            rec = self.acc[name] = [0, 0.0, 0.0]
        return rec

    def _wrap(self, name: str, fn):
        if name in LEAF_NAMES:
            return self._wrap_leaf(name, fn)
        stack = self._stack
        clock = time.perf_counter
        spanned = name in SPAN_NAMES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = None
            if spanned:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                rec = self._record(name)
                rec[0] += 1
                rec[1] += span
                rec[2] += span - frame[0]
                if spanned:
                    parents = [f[1] for f in stack if f[1] is not None]
                    parent = parents[-1] if parents else None
                    request = parents[0] if parents else span_id
                    self.spans.append((span_id, parent, request, name, start, end))

        return traced

    def _wrap_leaf(self, name: str, fn):
        """The cheap wrapper: two clock reads and three additions."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            span = clock() - start
            rec = self.acc.get(name) or self._record(name)
            rec[0] += 1
            rec[1] += span
            rec[2] += span
            if stack:
                stack[-1][0] += span
            return result

        return traced

    def snapshot(self) -> dict[str, list]:
        """A copy of the accumulators that later calls do not change."""
        return {name: list(rec) for name, rec in self.acc.items()}

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready dicts, in completion order."""
        return [
            {"id": sid, "parent": parent, "request": request, "name": name,
             "start": start, "end": end}
            for sid, parent, request, name, start, end in self.spans
        ]
