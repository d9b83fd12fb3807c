"""Bench harness: measures, tables, experiments plumbing."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import Experiment, timed
from repro.bench.measures import planted_recovery, set_scores
from repro.bench.reporting import Table, format_value, save_json
from repro.core.subspace import Subspace


class TestSetScores:
    def test_perfect_match(self):
        scores = set_scores([1, 2, 3], [1, 2, 3])
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_partial(self):
        scores = set_scores([1, 2], [2, 3, 4])
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(1 / 3)
        assert scores.correct == 1

    def test_empty_conventions(self):
        assert set_scores([], [1]).precision == 1.0
        assert set_scores([], [1]).recall == 0.0
        assert set_scores([1], []).recall == 1.0
        empty = set_scores([], [])
        assert empty.precision == empty.recall == 1.0


class TestPlantedRecovery:
    def _subspace(self, dims, d=6):
        return Subspace.from_dims(dims, d)

    def test_nothing_detected(self):
        recovery = planted_recovery([], self._subspace((0, 1)))
        assert not recovery.flagged and recovery.best_jaccard == 0.0

    def test_exact_detection(self):
        planted = self._subspace((0, 1))
        recovery = planted_recovery([planted], planted)
        assert recovery.exact and recovery.contained and recovery.covered
        assert recovery.best_jaccard == 1.0

    def test_subset_detection(self):
        recovery = planted_recovery(
            [self._subspace((0,))], self._subspace((0, 1))
        )
        assert recovery.contained and not recovery.exact
        assert recovery.best_jaccard == pytest.approx(0.5)

    def test_superset_detection(self):
        recovery = planted_recovery(
            [self._subspace((0, 1, 2))], self._subspace((0, 1))
        )
        assert recovery.covered and not recovery.contained

    def test_disjoint_detection(self):
        recovery = planted_recovery(
            [self._subspace((4, 5))], self._subspace((0, 1))
        )
        assert recovery.flagged and not recovery.covered
        assert recovery.best_jaccard == 0.0


class TestTable:
    def test_positional_and_named_rows(self):
        table = Table(["a", "b"])
        table.add_row(1, 2.5)
        table.add_row(a=3, b="x")
        text = table.render()
        assert "2.500" in text and "x" in text

    def test_named_rows_require_all_columns(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(a=1)

    def test_mixed_args_rejected(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row(1, a=2)

    def test_wrong_arity_rejected(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])

    def test_markdown_render(self):
        table = Table(["x"], title="T")
        table.add_row(1)
        md = table.render_markdown()
        assert md.startswith("### T")
        assert "| x |" in md

    def test_format_value(self):
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(123456.0) == "1.23e+05"
        assert format_value(12.34) == "12.3"
        assert format_value(0.1234) == "0.123"
        assert format_value("abc") == "abc"

    def test_as_records(self):
        table = Table(["a"])
        table.add_row(7)
        assert table.as_records() == [{"a": "7"}]


class TestExperiment:
    def test_render_includes_expectation_and_notes(self):
        experiment = Experiment("EX", "demo", ["v"], expectation="goes up")
        experiment.add_row(v=1)
        experiment.note("observed")
        text = experiment.render()
        assert "EX: demo" in text
        assert "expected shape: goes up" in text
        assert "note: observed" in text
        assert "goes up" in experiment.render_markdown()

    def test_save_writes_json(self, tmp_path):
        experiment = Experiment("EX", "demo", ["v"])
        experiment.add_row(v=2)
        path = experiment.save(directory=str(tmp_path))
        with open(path) as handle:
            payload = json.loads(handle.read())
        assert payload["id"] == "EX"
        assert payload["rows"] == [{"v": "2"}]

    def test_timed(self):
        value, seconds = timed(lambda x: x + 1, 41)
        assert value == 42
        assert seconds >= 0.0

    def test_save_json_creates_directories(self, tmp_path):
        target = tmp_path / "nested" / "out.json"
        save_json(str(target), {"k": 1})
        assert json.loads(target.read_text()) == {"k": 1}


class TestExperimentSuiteSmoke:
    """Cheap experiments run end-to-end; expensive ones are exercised by
    the benchmark harness instead."""

    def test_e0_matches_paper_numbers(self):
        from repro.bench.experiments import e0_savings

        rows = e0_savings().table.as_records()
        by_m = {row["m"]: row for row in rows}
        assert by_m["3"]["DSF(m)"] == "9"
        assert by_m["2"]["USF(m,4)"] == "10"

    def test_f1_shape(self):
        from repro.bench.experiments import f1_figure1

        experiment = f1_figure1(fast=True)
        rows = experiment.table.as_records()
        outlying = {row["view"]: row["outlying"] for row in rows}
        assert outlying == {"[1, 2]": "yes", "[3, 4]": "no", "[5, 6]": "no"}

    def test_registry_complete(self):
        from repro.bench.experiments import ALL_EXPERIMENTS

        assert set(ALL_EXPERIMENTS) == {
            "f1", "e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
            "e10", "e11",
        }
