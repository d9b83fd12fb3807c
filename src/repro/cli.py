"""Command-line interface — the interactive part of the demo (Section 4).

Subcommands
-----------
``demo``
    The guided tour the paper's demo promised: the Figure 1 scenario
    plus the athlete and patient applications, with explanations.
``query``
    Fit HOS-Miner on a CSV file and print the outlying subspaces of one
    or more rows (``--profile`` adds the per-level OD profile).
``detect``
    Fit on a CSV file and list every row that is an outlier in *some*
    subspace, strongest first.
``batch``
    Fit on a CSV file and answer many queries at once through the
    batched multi-query engine — rows of the fitted dataset, the rows
    of a second query CSV, or both; ``--workers`` splits the batch's
    work across row shards served on threads.
``stream``
    Replay a synthetic drift or burst workload through the sliding-
    window streaming engine: fit once on a warm-up window, then push
    batches through the incremental ``insert``/``expire`` path and query
    every fresh row as it arrives, printing per-batch outliers, window
    occupancy and delta-cache retention. ``--workers`` streams through
    the live shard pool.
``experiment``
    Run one (or all) of the paper-table experiments (f1, e0–e11) and
    print its table; ``--full`` uses the complete parameter grids,
    ``--save`` writes the JSON artefact under ``results/``.
``bench``
    Run any benchmark spec by name through the declarative harness
    (``docs/benchmarking.md``): prints the table, writes the canonical
    ``BENCH_<name>.json`` snapshot, and with ``--check`` compares the
    fresh run against a committed baseline, exiting non-zero when a
    gated measure regresses beyond the tolerance (the CI perf gate).

The console script is installed under two names: ``hos-miner`` and
``repro`` (so ``repro bench e13`` reads naturally).

Examples::

    hos-miner demo
    hos-miner query data.csv --row 3 --k 5 --quantile 0.99 --profile
    hos-miner detect data.csv --normalize --top 10
    hos-miner batch data.csv --queries new_points.csv --workers 4
    hos-miner batch data.csv --all-rows --explain
    hos-miner stream --workload drift --batches 20 --window 256
    hos-miner stream --workload burst --workers 2 --index vafile
    hos-miner experiment e1 --full --save
    repro bench --list
    repro bench e13                      # smoke tier, writes BENCH_e13.json
    repro bench e12 --tier full
    repro bench e13 --check --out fresh.json   # CI regression gate
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import ALL_SPECS
from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.snapshot import DEFAULT_TOLERANCE
from repro.core.exceptions import HOSMinerError
from repro.core.miner import HOSMiner
from repro.data.loaders import load_athletes, load_csv, load_patients
from repro.data.normalize import zscore
from repro.data.synthetic import make_figure1_data

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hos-miner",
        description="HOS-Miner: detect the outlying subspaces of high-dimensional data",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("demo", help="run the guided demo scenarios")

    query = subparsers.add_parser("query", help="query rows of a CSV dataset")
    query.add_argument("csv", help="numeric CSV file with a header row")
    query.add_argument(
        "--row", type=int, action="append", required=True,
        help="dataset row to query (repeatable)",
    )
    query.add_argument("--k", type=int, default=5, help="neighbour count (default 5)")
    query.add_argument(
        "--threshold", type=float, default=None,
        help="distance threshold T (default: calibrated from --quantile)",
    )
    query.add_argument(
        "--quantile", type=float, default=0.995,
        help="full-space OD quantile for auto T (default 0.995)",
    )
    query.add_argument(
        "--index", choices=["linear", "rstar", "xtree"], default="linear",
        help="kNN backend (default linear)",
    )
    query.add_argument(
        "--kernel", choices=["auto", "gemm", "exact"], default="auto",
        help="OD kernel: auto (default) uses the level-wide GEMM kernel when "
        "the metric supports it, gemm demands it (errors otherwise), exact "
        "always runs the bit-exact per-mask kernel; answers are identical",
    )
    query.add_argument(
        "--precision", choices=["auto", "float64", "float32"], default="auto",
        help="GEMM precision tier: auto (default) runs the level product in "
        "float32 under the GEMM kernel with exact float64 re-verification "
        "near the threshold; answer sets are identical at any setting",
    )
    query.add_argument(
        "--sample-size", type=int, default=10, help="learning sample size S (default 10)"
    )
    query.add_argument(
        "--normalize", action="store_true", help="z-score the data before mining"
    )
    query.add_argument(
        "--profile", action="store_true",
        help="also print the per-level OD profile of each queried row",
    )

    detect = subparsers.add_parser(
        "detect", help="list every dataset row that has an outlying subspace"
    )
    detect.add_argument("csv", help="numeric CSV file with a header row")
    detect.add_argument("--k", type=int, default=5, help="neighbour count (default 5)")
    detect.add_argument(
        "--quantile", type=float, default=0.995,
        help="full-space OD quantile for auto T (default 0.995)",
    )
    detect.add_argument(
        "--top", type=int, default=None, help="report at most this many outliers"
    )
    detect.add_argument(
        "--sample-size", type=int, default=10, help="learning sample size S (default 10)"
    )
    detect.add_argument(
        "--normalize", action="store_true", help="z-score the data before mining"
    )

    batch = subparsers.add_parser(
        "batch", help="answer many queries at once via the batched engine"
    )
    batch.add_argument("csv", help="numeric CSV file with a header row (fit data)")
    batch.add_argument(
        "--queries", default=None,
        help="CSV of external query points (same columns as the fit data)",
    )
    batch.add_argument(
        "--rows", default=None,
        help="comma-separated dataset rows to query, e.g. 0,3,17",
    )
    batch.add_argument(
        "--all-rows", action="store_true", help="query every dataset row"
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="row shards for the batch, one thread each (default: the "
        "HOSMINER_WORKERS environment variable, else 1 = in-process)",
    )
    batch.add_argument("--k", type=int, default=5, help="neighbour count (default 5)")
    batch.add_argument(
        "--threshold", type=float, default=None,
        help="distance threshold T (default: calibrated from --quantile)",
    )
    batch.add_argument(
        "--quantile", type=float, default=0.995,
        help="full-space OD quantile for auto T (default 0.995)",
    )
    batch.add_argument(
        "--index", choices=["linear", "rstar", "xtree", "vafile"], default="linear",
        help="kNN backend (default linear)",
    )
    batch.add_argument(
        "--kernel", choices=["auto", "gemm", "exact"], default="auto",
        help="OD kernel: auto (default) uses the level-wide GEMM kernel when "
        "the metric supports it, gemm demands it (errors otherwise), exact "
        "always runs the bit-exact per-mask kernel; answers are identical",
    )
    batch.add_argument(
        "--precision", choices=["auto", "float64", "float32"], default="auto",
        help="GEMM precision tier: auto (default) runs the level product in "
        "float32 under the GEMM kernel with exact float64 re-verification "
        "near the threshold; answer sets are identical at any setting",
    )
    batch.add_argument(
        "--sample-size", type=int, default=10, help="learning sample size S (default 10)"
    )
    batch.add_argument(
        "--normalize", action="store_true",
        help="z-score the fit data (and map query points into the fitted scale)",
    )
    batch.add_argument(
        "--explain", action="store_true",
        help="print the per-point explanation for every outlier in the batch",
    )

    stream = subparsers.add_parser(
        "stream",
        help="replay a synthetic stream through the sliding-window engine",
    )
    stream.add_argument(
        "--workload", choices=["drift", "burst"], default="drift",
        help="stream shape: drift (cluster centres wander between batches) "
        "or burst (stationary background with periodic anomaly bursts)",
    )
    stream.add_argument(
        "--batches", type=int, default=20, help="number of pushed batches (default 20)"
    )
    stream.add_argument(
        "--batch-size", type=int, default=32, help="rows per pushed batch (default 32)"
    )
    stream.add_argument(
        "--window", type=int, default=256,
        help="sliding-window size; the warm-up fit has this many rows (default 256)",
    )
    stream.add_argument("--d", type=int, default=8, help="dimensionality (default 8)")
    stream.add_argument("--k", type=int, default=5, help="neighbour count (default 5)")
    stream.add_argument(
        "--threshold", type=float, default=None,
        help="distance threshold T, fixed for the whole stream (default: "
        "calibrated once on the warm-up window from --quantile)",
    )
    stream.add_argument(
        "--quantile", type=float, default=0.995,
        help="full-space OD quantile for auto T (default 0.995)",
    )
    stream.add_argument(
        "--index", choices=["linear", "vafile"], default="linear",
        help="kNN backend; only the windowed backends stream (default linear)",
    )
    stream.add_argument(
        "--kernel", choices=["auto", "gemm", "exact"], default="auto",
        help="OD kernel (answers are identical at any setting)",
    )
    stream.add_argument(
        "--precision", choices=["auto", "float64", "float32"], default="auto",
        help="GEMM precision tier (answer sets are identical at any setting)",
    )
    stream.add_argument(
        "--workers", type=int, default=None,
        help="row shards, one thread each; above 1 the window updates "
        "propagate into the live shard pool (default: HOSMINER_WORKERS, else 1)",
    )
    stream.add_argument(
        "--sample-size", type=int, default=10,
        help="learning sample size S (default 10)",
    )
    stream.add_argument(
        "--drift", type=float, default=0.2,
        help="drift workload: centre movement per batch in cluster sigmas "
        "(default 0.2)",
    )
    stream.add_argument(
        "--outlier-every", type=int, default=4,
        help="drift workload: plant one outlier every N batches (default 4; "
        "0 disables)",
    )
    stream.add_argument(
        "--burst-every", type=int, default=4,
        help="burst workload: burst period in batches (default 4)",
    )
    stream.add_argument(
        "--seed", type=int, default=0, help="workload seed (default 0)"
    )
    stream.add_argument(
        "--quiet", action="store_true", help="suppress the per-batch lines"
    )

    experiment = subparsers.add_parser(
        "experiment", help="run a paper-table experiment (f1, e0-e11)"
    )
    experiment.add_argument(
        "id", choices=sorted(ALL_EXPERIMENTS) + ["all"], help="experiment id, or 'all'"
    )
    experiment.add_argument(
        "--full", action="store_true", help="run the full (slow) parameter grid"
    )
    experiment.add_argument(
        "--save", action="store_true", help="write results/<id>.json"
    )

    bench = subparsers.add_parser(
        "bench", help="run a benchmark spec through the declarative harness"
    )
    bench.add_argument(
        "name",
        nargs="?",
        choices=sorted(ALL_SPECS) + ["all"],
        help="spec name (see --list), or 'all'",
    )
    bench.add_argument(
        "--list", action="store_true", help="list the available specs and exit"
    )
    bench.add_argument(
        "--tier", choices=["smoke", "full"], default="smoke",
        help="grid tier (default smoke — the CI-sized grids the committed "
        "baselines were recorded at)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="snapshot output path (default BENCH_<name>.json in the current "
        "directory; only valid with a single spec)",
    )
    bench.add_argument(
        "--no-save", action="store_true", help="do not write a snapshot"
    )
    bench.add_argument(
        "--check", action="store_true",
        help="compare the fresh run against the committed baseline and exit "
        "non-zero when a gated measure regresses beyond the tolerance",
    )
    bench.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline snapshot for --check (default BENCH_<name>.json in the "
        "current directory; only valid with a single spec)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=f"allowed relative regression for --check (default {DEFAULT_TOLERANCE})",
    )
    return parser


def _run_demo() -> int:
    print("=" * 72)
    print("Scenario 1 — Figure 1: a point outlying in exactly one 2-d view")
    print("=" * 72)
    dataset = make_figure1_data(seed=0)
    miner = HOSMiner(k=5, sample_size=5, threshold_quantile=0.99).fit(dataset.X)
    result = miner.query_row(0)
    print(result.explain())
    print()

    print("=" * 72)
    print("Scenario 2 — athlete training (which disciplines are weak?)")
    print("=" * 72)
    athletes = load_athletes()
    miner = HOSMiner(k=6, sample_size=8, threshold_quantile=0.99).fit(
        zscore(athletes.X), feature_names=athletes.feature_names
    )
    for row in athletes.outlier_rows:
        print(f"athlete #{row}: planted weakness "
              f"{athletes.true_subspaces[row].notation()}")
        print(miner.query_row(row).explain())
        print()

    print("=" * 72)
    print("Scenario 3 — medical screening (where is the patient abnormal?)")
    print("=" * 72)
    patients = load_patients()
    miner = HOSMiner(k=6, sample_size=8, threshold_quantile=0.99).fit(
        zscore(patients.X), feature_names=patients.feature_names
    )
    for row in patients.outlier_rows:
        print(f"patient #{row}: planted condition "
              f"{patients.true_subspaces[row].notation()}")
        print(miner.query_row(row).explain())
        print()
    return 0


def _run_query(args: argparse.Namespace) -> int:
    dataset = load_csv(args.csv)
    X = zscore(dataset.X) if args.normalize else dataset.X
    miner = HOSMiner(
        k=args.k,
        threshold=args.threshold,
        threshold_quantile=args.quantile,
        index=args.index,
        sample_size=args.sample_size,
        kernel=args.kernel,
        precision=args.precision,
    ).fit(X, feature_names=dataset.feature_names)
    print(f"fitted on {dataset.n} rows x {dataset.d} columns; T = {miner.threshold_:.4g}")
    for row in args.row:
        print(f"\nrow {row}:")
        print(miner.query_row(row).explain())
        if args.profile:
            from repro.core.od import ODEvaluator
            from repro.core.profile import compute_od_profile

            evaluator = ODEvaluator(miner.backend_, X[row], args.k, exclude=row)
            print(compute_od_profile(evaluator, miner.threshold_).render())
    return 0


def _run_detect(args: argparse.Namespace) -> int:
    dataset = load_csv(args.csv)
    X = zscore(dataset.X) if args.normalize else dataset.X
    miner = HOSMiner(
        k=args.k,
        threshold_quantile=args.quantile,
        sample_size=args.sample_size,
    ).fit(X, feature_names=dataset.feature_names)
    detections = miner.detect_outliers(max_results=args.top)
    print(
        f"{len(detections)} outlier(s) among {dataset.n} rows "
        f"(k={args.k}, T={miner.threshold_:.4g})"
    )
    for row, result in detections:
        print(f"\nrow {row}:")
        print(result.explain())
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.data.normalize import ZScoreScaler

    dataset = load_csv(args.csv)
    scaler = ZScoreScaler().fit(dataset.X) if args.normalize else None
    X = scaler.transform(dataset.X) if scaler is not None else dataset.X
    miner = HOSMiner(
        k=args.k,
        threshold=args.threshold,
        threshold_quantile=args.quantile,
        index=args.index,
        sample_size=args.sample_size,
        kernel=args.kernel,
        precision=args.precision,
    ).fit(X, feature_names=dataset.feature_names)
    print(
        f"fitted on {dataset.n} rows x {dataset.d} columns; "
        f"T = {miner.threshold_:.4g}; kernel = {miner.kernel_}"
    )

    targets: list = []
    if args.all_rows:
        targets.extend(range(dataset.n))
    elif args.rows is not None:
        try:
            targets.extend(int(row) for row in args.rows.split(","))
        except ValueError:
            raise HOSMinerError(
                f"--rows must be comma-separated integers, got {args.rows!r}"
            ) from None
    if args.queries is not None:
        query_set = load_csv(args.queries)
        if query_set.d != dataset.d:
            raise HOSMinerError(
                f"query CSV has {query_set.d} columns, the fit data has {dataset.d}"
            )
        Q = scaler.transform(query_set.X) if scaler is not None else query_set.X
        targets.extend(np.asarray(row, dtype=np.float64) for row in Q)
    if not targets:
        raise HOSMinerError("nothing to query: pass --queries, --rows or --all-rows")

    result = miner.query_batch(targets, workers=args.workers)
    miner.close()
    print(result.summary())
    if args.explain:
        for position, point_result in enumerate(result):
            if point_result.is_outlier:
                print(f"\ntarget {position}:")
                print(point_result.explain())
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    import time

    from repro.core.stream import StreamEngine
    from repro.data.synthetic import (
        make_burst_stream,
        make_drift_stream,
        make_gaussian_mixture,
    )

    warm = make_gaussian_mixture(args.window, args.d, seed=args.seed).X
    if args.workload == "drift":
        batches = make_drift_stream(
            args.batches,
            args.batch_size,
            args.d,
            drift_per_batch=args.drift,
            outlier_every=args.outlier_every,
            seed=None if args.seed is None else args.seed + 1,
        )
    else:
        batches = make_burst_stream(
            args.batches,
            args.batch_size,
            args.d,
            burst_every=args.burst_every,
            seed=None if args.seed is None else args.seed + 1,
        )
    miner = HOSMiner(
        k=args.k,
        threshold=args.threshold,
        threshold_quantile=args.quantile,
        index=args.index,
        sample_size=args.sample_size,
        kernel=args.kernel,
        precision=args.precision,
        stream_window=args.window,
        **({} if args.workers is None else {"workers": args.workers}),
    ).fit(warm)
    print(
        f"fitted warm-up window of {args.window} rows x {args.d}; "
        f"T = {miner.threshold_:.4g} (fixed for the stream); "
        f"kernel = {miner.kernel_}"
    )
    outliers = 0
    start = time.perf_counter()
    with StreamEngine(miner) as engine:
        for b, rows in enumerate(batches):
            expired = engine.push(rows)
            fresh = list(range(engine.occupancy - rows.shape[0], engine.occupancy))
            result = engine.query_batch(fresh)
            found = sum(1 for point in result if point.is_outlier)
            outliers += found
            if not args.quiet:
                cache = miner.od_cache_
                print(
                    f"batch {b:>3}: +{rows.shape[0]}/-{expired} rows, "
                    f"occupancy {engine.occupancy}, outliers {found}, "
                    f"cache retained {cache.delta_retained} "
                    f"evicted {cache.delta_evicted}"
                )
        wall = time.perf_counter() - start
        print(
            f"\n{engine.pushes} pushes: {engine.inserted} rows in, "
            f"{engine.expired} expired, {outliers} outlier(s) flagged, "
            f"{engine.inserted / wall:.0f} rows/s sustained (push + query)"
        )
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    ids = sorted(ALL_EXPERIMENTS) if args.id == "all" else [args.id]
    for experiment_id in ids:
        experiment = ALL_EXPERIMENTS[experiment_id](fast=not args.full)
        experiment.print()
        if args.save:
            path = experiment.save()
            print(f"saved {path}\n")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench.runner import run_spec
    from repro.bench.snapshot import (
        SnapshotError,
        compare_snapshots,
        load_snapshot,
        save_snapshot,
        snapshot_path,
    )

    if args.list:
        width = max(len(name) for name in ALL_SPECS)
        for name in sorted(ALL_SPECS):
            spec = ALL_SPECS[name]
            gated = ",".join(sorted(spec.regression)) or "-"
            print(f"{name:<{width}}  {spec.title}  [gated: {gated}]")
        return 0
    if args.name is None:
        print("error: pass a spec name (or --list)", file=sys.stderr)
        return 2
    names = sorted(ALL_SPECS) if args.name == "all" else [args.name]
    if len(names) > 1 and (args.out or args.baseline):
        print("error: --out/--baseline need a single spec name", file=sys.stderr)
        return 2

    failed = False
    for name in names:
        spec = ALL_SPECS[name]
        baseline = None
        if args.check:
            # Load before writing: --out may point at the baseline itself.
            baseline_path = args.baseline or snapshot_path(name)
            try:
                baseline = load_snapshot(baseline_path)
            except SnapshotError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        result = run_spec(spec, tier=args.tier)
        result.to_experiment(latency=True).print()
        snapshot = result.to_snapshot()
        if not args.no_save:
            path = save_snapshot(snapshot, args.out or snapshot_path(name))
            print(f"saved {path}")
        if baseline is not None:
            report = compare_snapshots(baseline, snapshot, tolerance=args.tolerance)
            print(report.render())
            if not report.passed:
                failed = True
    return 1 if failed else 0


def main(argv: "list[str] | None" = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _run_demo()
        if args.command == "query":
            return _run_query(args)
        if args.command == "detect":
            return _run_detect(args)
        if args.command == "batch":
            return _run_batch(args)
        if args.command == "stream":
            return _run_stream(args)
        if args.command == "experiment":
            return _run_experiment(args)
        if args.command == "bench":
            return _run_bench(args)
    except HOSMinerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
