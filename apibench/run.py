#!/usr/bin/env python3
"""The repository benchmark: HOS-Miner's public API, end to end and per layer.

Run from the root of a checkout::

    python3 apibench/run.py --workload batch-traffic --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with nothing patched and reports the
end-to-end metrics. ``--trace 1`` runs the same steps alternately with
and without the layer wrappers of ``tracing.py`` installed and reports
the per-layer metrics plus the tracing overhead. Either way, a seeded
sample of the answers is checked against an oracle after the timed
region, and the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it print every metric by name and unit, the
workload-specific call timings, and the environment stamp. The full
record (environment, metrics, and in a traced run the spans) is also
written to ``.apibench/`` in the checkout. See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fits per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: End-to-end metrics (``--trace 0``): name -> unit. ``p90_ms`` is
#: printed as a ``call`` line but not gated: on a shared 2-core host its
#: ten-seed spread (0.13-0.30 of the median) exceeds the largest bound
#: the gate allows (0.25). See README.md, "Steadiness".
END_TO_END = {
    "setup_s": "s",
    "qps": "queries/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "fit.index_build_s": "s",
    "fit.calibrate_s": "s",
    "fit.learn_s": "s",
    "batch.self_s": "s",
    "search.self_s": "s",
    "lattice.prune_s": "s",
    "lattice.prune_calls": "count",
    "lattice.mark_s": "s",
    "savings.tsf_s": "s",
    "savings.tsf_calls": "count",
    "search.od_evaluations": "count",
    "search.pruned_per_eval": "ratio",
    "od.cache_hit_ratio": "ratio",
    "od.cache_get_s": "s",
    "od.od_many_s": "s",
    "od.delta_s": "s",
    "od.delta_retained_ratio": "ratio",
    "index.knn_s": "s",
    "index.knn_calls": "count",
    "index.prefix_s": "s",
    "index.prefix_batch_s": "s",
    "index.components_s": "s",
    "index.update_s": "s",
    "index.gemm_flops": "count",
    "index.distance_computations": "count",
    "index.reverify_ratio": "ratio",
    "index.peak_intermediate_bytes": "bytes",
    "topk.s": "s",
    "topk.calls": "count",
    "filtering.minimal_s": "s",
    "filtering.minimal_calls": "count",
    "shard.spawn_s": "s",
    "shard.scatter_s": "s",
    "shard.scatter_calls": "count",
    "shard.merge_s": "s",
    "shard.round_trips": "count",
    "shard.bytes_shipped": "bytes",
    "shard.faults": "count",
    "stream.insert_s": "s",
    "stream.expire_s": "s",
    "trace.slice_s": "s",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------
def _git_sha() -> str:
    """HEAD's sha read from ``.git`` (no subprocess); ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    """BLAS library name/version from numpy's build config, and its
    thread count from the loaded OpenBLAS library when it exposes one."""
    import ctypes

    import numpy

    info: dict = {"name": "unknown", "version": "unknown", "threads": "unknown"}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment(workload, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "setup_reps": SETUP_REPS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
        # Allocation history moves kernel timings (glibc's dynamic mmap
        # threshold), so the measured state is stated, and any malloc or
        # engine tuning from the environment is recorded, never set here.
        "measured_state": "fresh process; set-up fits, warm-up and prelude run first, in that order",
        "env": {key: value for key, value in os.environ.items()
                if key.startswith(("MALLOC_", "HOSMINER_", "OPENBLAS_", "OMP_", "MKL_"))},
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class _Slice:
    """Counters summed over the traced steps that form the per-layer slice."""

    def __init__(self) -> None:
        self.steps = 0
        self.seconds = 0.0
        self.index: dict[str, int] = {}
        self.peak_bytes = 0
        self.delta_retained = 0
        self.delta_evicted = 0
        self.od_evaluations = 0
        self.pruned = 0
        self.knn_evaluations = 0
        self.shared_hits = 0
        self.round_trips = 0
        self.bytes_shipped = 0
        self.faults = 0

    def add(self, step, index_before: dict, index_after: dict, cache_before, cache_after) -> None:
        self.steps += 1
        self.seconds += step.seconds
        for key, value in index_after.items():
            if key != "peak_intermediate_bytes":
                self.index[key] = self.index.get(key, 0) + value - index_before.get(key, 0)
        self.peak_bytes = max(self.peak_bytes, index_after.get("peak_intermediate_bytes", 0))
        self.delta_retained += cache_after[0] - cache_before[0]
        self.delta_evicted += cache_after[1] - cache_before[1]
        for stats in step.stats:
            self.od_evaluations += stats.od_evaluations
            self.pruned += stats.upward_pruned + stats.downward_pruned
            self.round_trips += stats.shard_round_trips
            self.bytes_shipped += stats.bytes_shipped
            self.faults += (stats.worker_respawns + stats.retries + stats.timeouts
                            + stats.degraded_rounds)
        self.knn_evaluations += step.knn_evaluations or 0
        self.shared_hits += step.shared_hits


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_counters(miner) -> tuple[int, int]:
    cache = miner.od_cache_
    return cache.delta_retained, cache.delta_evicted


def run(workload, seconds: float, tracer=None) -> dict:
    """Set up, warm, run the prelude and the closed loop, check answers."""
    setup_times = []
    for _ in range(SETUP_REPS):
        if tracer is not None:
            tracer.install()
        start = clock()
        try:
            workload.setup()
        finally:
            setup_times.append(clock() - start)
            if tracer is not None:
                tracer.remove()
    fit_acc = tracer.snapshot() if tracer is not None else {}
    if tracer is not None:
        tracer.reset()

    workload.warm()
    failures: list[tuple[int, str]] = []
    attempted = 0
    part_times: dict[str, list[float]] = {}
    the_slice = _Slice()

    def timed(fn, index, traced, in_slice):
        nonlocal attempted
        miner = workload.miner
        index_before = miner.backend_.stats.snapshot()
        cache_before = _cache_counters(miner)
        if traced:
            tracer.install()
        try:
            step = fn()
            if step is None:
                return None
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failures.append((index, f"raised {type(exc).__name__}: {exc}"))
            return None
        finally:
            if traced:
                tracer.remove()
        attempted += step.calls
        if not traced:
            for name, value in step.parts.items():
                part_times.setdefault(name, []).append(value)
        if in_slice:
            the_slice.add(step, index_before, miner.backend_.stats.snapshot(),
                          cache_before, _cache_counters(miner))
        return step

    timed(workload.prelude, -1, tracer is not None, True)

    untraced: list[float] = []
    traced: list[float] = []
    targets = 0
    busy = 0.0
    slice_acc = None
    start = clock()
    deadline = start + seconds
    hard_stop = start + 3 * seconds
    i = 0
    while not workload.exhausted(i):
        now = clock()
        short = tracer is not None and slice_acc is None
        if now >= hard_stop or (now >= deadline and not short):
            break
        on = tracer is not None and i % 2 == 1
        step = timed(lambda: workload.step(i), i, on, on and slice_acc is None)
        if step is not None:
            (traced if on else untraced).append(step.seconds)
            if not on:
                targets += step.targets
                busy += step.seconds
        if on and slice_acc is None and len(traced) >= workload.trace_steps:
            slice_acc = tracer.snapshot()
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and slice_acc is None:
        slice_acc = tracer.snapshot()

    failures += workload.check()
    failed_steps = {index for index, _ in failures}
    return {
        "setup_times": setup_times,
        "latencies": untraced,
        "targets": targets,
        "busy": busy,
        "peak_rss_mb": peak_rss_mb,
        "parts": part_times,
        "attempted": max(attempted, 1),
        "failed": min(len(failed_steps), max(attempted, 1)),
        "failures": failures,
        "traced": traced,
        "fit_acc": fit_acc,
        "slice_acc": slice_acc or {},
        "slice": the_slice,
    }


def _pct(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else float("nan")


def end_to_end(out: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(out["setup_times"]),
        "qps": _ratio(out["targets"], out["busy"]),
        "p50_ms": 1000.0 * _pct(out["latencies"], 50),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def per_layer(out: dict) -> dict[str, float]:
    fit, acc, sl = out["fit_acc"], out["slice_acc"], out["slice"]
    reps = len(out["setup_times"])

    def span(source, *names):
        return sum(source[name][1] for name in names if name in source)

    def self_s(*names):
        return sum(acc[name][2] for name in names if name in acc)

    def calls(*names):
        return sum(acc[name][0] for name in names if name in acc)

    untraced_p50 = _pct(out["latencies"], 50)
    overhead = _pct(out["traced"], 50) - untraced_p50
    return {
        "fit.index_build_s": span(fit, "fit.index_build") / reps,
        "fit.calibrate_s": span(fit, "fit.calibrate") / reps,
        "fit.learn_s": span(fit, "fit.learn") / reps,
        "batch.self_s": self_s("batch.run"),
        "search.self_s": self_s("search.run"),
        "lattice.prune_s": self_s("lattice.prune"),
        "lattice.prune_calls": calls("lattice.prune"),
        "lattice.mark_s": self_s("lattice.mark"),
        "savings.tsf_s": self_s("savings.tsf"),
        "savings.tsf_calls": calls("savings.tsf"),
        "search.od_evaluations": sl.od_evaluations,
        "search.pruned_per_eval": _ratio(sl.pruned, sl.od_evaluations),
        "od.cache_hit_ratio": _ratio(sl.shared_hits, sl.shared_hits + sl.knn_evaluations),
        "od.cache_get_s": self_s("od.cache_get"),
        "od.od_many_s": self_s("od.od_many"),
        "od.delta_s": self_s("od.delta"),
        "od.delta_retained_ratio": _ratio(sl.delta_retained, sl.delta_retained + sl.delta_evicted),
        "index.knn_s": self_s("index.knn"),
        "index.knn_calls": calls("index.knn"),
        "index.prefix_s": self_s("index.prefix"),
        "index.prefix_batch_s": self_s("index.prefix_batch"),
        "index.components_s": self_s("index.components"),
        "index.update_s": self_s("index.update"),
        "index.gemm_flops": sl.index.get("gemm_flops", 0),
        "index.distance_computations": sl.index.get("distance_computations", 0),
        "index.reverify_ratio": _ratio(sl.index.get("reverified_masks", 0),
                                       sl.index.get("gemm_masks", 0)),
        "index.peak_intermediate_bytes": sl.peak_bytes,
        "topk.s": self_s("topk"),
        "topk.calls": calls("topk"),
        "filtering.minimal_s": self_s("filtering.minimal"),
        "filtering.minimal_calls": calls("filtering.minimal"),
        "shard.spawn_s": span(fit, "shard.spawn") / reps,
        "shard.scatter_s": self_s("shard.scatter"),
        "shard.scatter_calls": calls("shard.scatter"),
        "shard.merge_s": self_s("shard.merge"),
        "shard.round_trips": sl.round_trips,
        "shard.bytes_shipped": sl.bytes_shipped,
        "shard.faults": sl.faults,
        "stream.insert_s": self_s("stream.insert"),
        "stream.expire_s": self_s("stream.expire"),
        "trace.slice_s": sl.seconds,
        "trace.overhead_ms": 1000.0 * overhead,
        "trace.overhead_ratio": _ratio(overhead, untraced_p50),
    }


def call_timings(out: dict) -> dict[str, tuple[float, str]]:
    """The workload's own API-call timings under their per-call names."""
    info: dict[str, tuple[float, str]] = {}
    for part, values in out["parts"].items():
        if part == "detect":
            info["detect_s"] = (values[0], "s")
            continue
        info[f"{part}_p50_ms"] = (1000.0 * _pct(values, 50), "ms")
        info[f"{part}_p90_ms"] = (1000.0 * _pct(values, 90), "ms")
        info[f"{part}_calls"] = (len(values), "count")
    info["p90_ms"] = (1000.0 * _pct(out["latencies"], 90), "ms")
    info["timed_steps"] = (len(out["latencies"]), "count")
    info["failed_frac"] = (_ratio(out["failed"], out["attempted"]), "ratio")
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: package source not found under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    try:
        out = run(workload, args.seconds, tracer)
    finally:
        workload.close()

    env = environment(workload, args)
    if args.trace:
        values, units = per_layer(out), PER_LAYER
    else:
        values, units = end_to_end(out), END_TO_END
    info = call_timings(out)
    for index, reason in out["failures"]:
        print(f"FAILED step {index}: {reason}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in info.items():
        print(f"call {name} {value:.6g} {unit}")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")

    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record = dict(result, env=env, calls={k: v[0] for k, v in info.items()},
                  failures=out["failures"])
    if tracer is not None:
        record["spans"] = tracer.span_records()
    out_dir = ROOT / ".apibench"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
