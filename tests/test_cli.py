"""CLI surface: parser, query flow, experiment runner."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.data.loaders import dataset_to_csv, load_athletes


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "data.csv", "--row", "1", "--row", "2", "--k", "7"]
        )
        assert args.row == [1, 2]
        assert args.k == 7

    def test_experiment_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "e99"])


class TestCommands:
    def test_demo_runs_all_three_scenarios(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "athlete" in out
        assert "medical" in out
        # Every scenario must actually flag its planted subjects.
        assert out.count("is an outlier in") >= 7

    def test_experiment_e0(self, capsys):
        assert main(["experiment", "e0"]) == 0
        out = capsys.readouterr().out
        assert "Saving factors" in out

    def test_experiment_save(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "e0", "--save"]) == 0
        assert (tmp_path / "results" / "e0.json").exists()

    def test_query_roundtrip(self, tmp_path, capsys):
        dataset = load_athletes(n=60)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        code = main(
            [
                "query",
                str(path),
                "--row", "0",
                "--k", "4",
                "--sample-size", "2",
                "--normalize",
                "--quantile", "0.98",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "row 0:" in out
        assert "outlier" in out

    def test_query_reports_library_errors(self, tmp_path, capsys):
        dataset = load_athletes(n=30)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        code = main(["query", str(path), "--row", "0", "--k", "500"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_query_rejects_nan_threshold(self, tmp_path, capsys):
        dataset = load_athletes(n=30)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        code = main(["query", str(path), "--row", "0", "--threshold", "nan"])
        assert code == 2
        assert "threshold must be a non-negative number, got nan" in capsys.readouterr().err

    def test_query_with_profile(self, tmp_path, capsys):
        dataset = load_athletes(n=60)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        code = main(
            ["query", str(path), "--row", "0", "--k", "4",
             "--sample-size", "2", "--normalize", "--profile"]
        )
        assert code == 0
        assert "OD profile" in capsys.readouterr().out

    def test_detect_lists_outliers_strongest_first(self, tmp_path, capsys):
        dataset = load_athletes(n=80)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        code = main(
            ["detect", str(path), "--k", "4", "--sample-size", "2",
             "--normalize", "--quantile", "0.97", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outlier(s) among 80 rows" in out
        assert "row 0:" in out or "row 1:" in out or "row 2:" in out

    def test_batch_rows_and_queries(self, tmp_path, capsys):
        dataset = load_athletes(n=60)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        queries = tmp_path / "queries.csv"
        queries.write_text(dataset_to_csv(dataset))
        code = main(
            ["batch", str(path), "--rows", "0,1,2", "--queries", str(queries),
             "--k", "4", "--sample-size", "2", "--normalize",
             "--quantile", "0.97", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "63 queries" in out
        assert "shared-cache hits" in out

    def test_batch_all_rows_with_workers(self, tmp_path, capsys):
        dataset = load_athletes(n=40)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        code = main(
            ["batch", str(path), "--all-rows", "--workers", "2",
             "--k", "4", "--sample-size", "2", "--quantile", "0.97"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "40 queries" in out and "workers=2" in out

    def test_batch_requires_targets(self, tmp_path, capsys):
        dataset = load_athletes(n=30)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        assert main(["batch", str(path)]) == 2
        assert "nothing to query" in capsys.readouterr().err

    def test_batch_rejects_mismatched_query_csv(self, tmp_path, capsys):
        dataset = load_athletes(n=30)
        path = tmp_path / "athletes.csv"
        path.write_text(dataset_to_csv(dataset))
        queries = tmp_path / "queries.csv"
        queries.write_text("a,b\n1.0,2.0\n")
        assert main(["batch", str(path), "--queries", str(queries)]) == 2
        assert "columns" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("e0", "e11", "e12", "e13", "e14", "e15", "f1"):
            assert name in out
        assert "[gated: f32_speedup,fused_speedup,speedup]" in out  # e13's gate
        # e14's gate: both GEMM ceilings plus the full-space unit's block
        assert "[gated: peak_blocked_batch_mb,peak_blocked_mb,peak_full_space_mb]" in out
        # e15's gate: the n=32000 thread cell plus the deterministic round count
        assert "[gated: round_trips,thread_speedup]" in out

    def test_bench_requires_name(self, capsys):
        assert main(["bench"]) == 2
        assert "spec name" in capsys.readouterr().err

    def test_bench_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "e99"])

    def test_bench_out_needs_single_spec(self, capsys):
        assert main(["bench", "all", "--out", "x.json"]) == 2
        assert "single spec" in capsys.readouterr().err

    def test_bench_run_saves_canonical_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e0"]) == 0
        out = capsys.readouterr().out
        assert "Saving factors" in out and "saved" in out
        snapshot = (tmp_path / "BENCH_e0.json").read_text()
        assert '"experiment": "e0"' in snapshot

    def test_bench_no_save(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e0", "--no-save"]) == 0
        assert not (tmp_path / "BENCH_e0.json").exists()

    def test_bench_check_passes_against_fresh_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e0"]) == 0
        # e0 is deterministic, so a re-run can never regress.
        assert main(["bench", "e0", "--check", "--no-save"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_bench_check_missing_baseline_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "e0", "--check", "--no-save"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bench_check_out_may_overwrite_baseline(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "BENCH_e0.json"
        assert main(["bench", "e0"]) == 0
        before = baseline.read_text()
        code = main(
            ["bench", "e0", "--check",
             "--baseline", str(baseline), "--out", str(baseline)]
        )
        assert code == 0  # compared against the pre-overwrite contents
        assert "PASS" in capsys.readouterr().out
        assert baseline.exists() and baseline.read_text() != before  # timestamp


class TestSearchBudget:
    def test_budget_raises_loudly(self):
        import numpy as np

        from repro.core.exceptions import SearchBudgetExceeded
        from repro.core.od import ODEvaluator
        from repro.core.priors import PruningPriors
        from repro.core.search import DynamicSubspaceSearch
        from repro.index.linear import LinearScanIndex

        generator = np.random.default_rng(0)
        X = generator.normal(size=(60, 6))
        X[0] += 4.0  # force a non-trivial search
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 3, exclude=0)
        search = DynamicSubspaceSearch(
            evaluator, 5.0, PruningPriors.uniform(6), max_evaluations=2
        )
        with pytest.raises(SearchBudgetExceeded):
            search.run()

    def test_generous_budget_unchanged_answer(self):
        import numpy as np

        from repro.core.od import ODEvaluator
        from repro.core.priors import PruningPriors
        from repro.core.search import DynamicSubspaceSearch
        from repro.index.linear import LinearScanIndex

        generator = np.random.default_rng(1)
        X = generator.normal(size=(60, 5))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 3, exclude=0)
        free = DynamicSubspaceSearch(
            evaluator, 4.0, PruningPriors.uniform(5)
        ).run()
        budgeted = DynamicSubspaceSearch(
            evaluator, 4.0, PruningPriors.uniform(5), max_evaluations=1000
        ).run()
        assert set(free.outlying_masks) == set(budgeted.outlying_masks)

    def test_budget_validated(self):
        import numpy as np

        from repro.core.exceptions import ConfigurationError
        from repro.core.od import ODEvaluator
        from repro.core.priors import PruningPriors
        from repro.core.search import DynamicSubspaceSearch
        from repro.index.linear import LinearScanIndex

        X = np.zeros((10, 3))
        evaluator = ODEvaluator(LinearScanIndex(X), X[0], 2, exclude=0)
        with pytest.raises(ConfigurationError):
            DynamicSubspaceSearch(
                evaluator, 1.0, PruningPriors.uniform(3), max_evaluations=0
            )
