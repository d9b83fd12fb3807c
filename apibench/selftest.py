"""Self-tests of the benchmark: the oracle catches corrupted answers, the
tracer leaves the program as it found it, and BENCHMARK.json matches the
metrics the runner reports.

Run from the root of a checkout (a few seconds)::

    PYTHONPATH=src python3 -m pytest -q apibench/selftest.py
    PYTHONPATH=src python3 apibench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.miner import HOSMiner  # noqa: E402


class TinyBatch(workloads.BatchTraffic):
    n, d, n_outliers = 600, 6, 4
    batch, repolls, planted_repolls, rows = 16, 4, 2, 6
    trace_steps = 2
    sample_every, sample_per_step, sample_cap = 1, 2, 8


class TinyMine(workloads.Mine):
    n, d, n_outliers = 600, 6, 4
    trace_steps = 4
    sample_every, sample_per_step, sample_cap = 1, 1, 4
    screen_rows = 16


class TinyStream(workloads.StreamWindow):
    window, d, push_rows, watch = 320, 5, 16, 8
    future_batches = 60
    trace_steps = 4
    sample_every, sample_cap = 1, 3


def _corrupt(results) -> None:
    """Miscount the outlying subspaces of every answer."""
    for result in results:
        result.total_outlying += 1


class OracleCatchesCorruption(unittest.TestCase):
    def setUp(self) -> None:
        self.work = TinyBatch(5)
        self.work.setup()
        self.work.warm()

    def tearDown(self) -> None:
        self.work.close()

    def test_clean_run_passes(self):
        for i in range(3):
            self.work.step(i)
        self.assertEqual(self.work.check(), [])

    def test_each_corruption_is_named(self):
        result = self.work.miner.query_row(0)  # a planted outlier
        good = oracle.answer_of(result)
        self.assertTrue(good[0], "row 0 should be outlying")
        rtol = oracle.od_tolerance(self.work.miner)
        self.assertIsNone(oracle.compare(good, good, rtol))
        minimal, total, od = good
        self.assertIn("minimal", oracle.compare((minimal[1:], total, od), good, rtol))
        self.assertIn("total_outlying", oracle.compare((minimal, total + 1, od), good, rtol))
        mask = minimal[0]
        bumped = {m: (v * (1 + 1e-4) if m == mask else v) for m, v in od.items()}
        self.assertIn("od_values", oracle.compare((minimal, total, bumped), good, rtol))
        # Float32 rounding noise well inside the proven band is accepted.
        noisy = {m: v * (1 + rtol / 100) for m, v in od.items()}
        self.assertIsNone(oracle.compare((minimal, total, noisy), good, rtol))

    def test_run_counts_a_corrupted_answer_as_failed(self):
        original = HOSMiner.query_batch

        def corrupted(miner, targets, *args, **kwargs):
            result = original(miner, targets, *args, **kwargs)
            _corrupt(result.results)
            return result

        work = TinyBatch(6)
        HOSMiner.query_batch = corrupted
        try:
            out = run.run(work, seconds=0.5)
        finally:
            HOSMiner.query_batch = original
            work.close()
        self.assertGreater(out["failed"], 0)
        self.assertTrue(any("total_outlying" in reason for _, reason in out["failures"]))

    def test_exhaustive_oracle_agrees_with_exact_miner(self):
        exact = oracle.exact_miner(self.work.miner, self.work.X)
        for target in (0, 1, 50):
            want = oracle.answer_of(exact.query_row(target))
            self.assertIsNone(oracle.compare(oracle.exhaustive_answer(exact, target), want))


class MineAndStreamChecks(unittest.TestCase):
    def test_mine_catches_a_wrong_detect_flag(self):
        work = TinyMine(7)
        try:
            run_out = run.run(work, seconds=0.3)
            self.assertEqual(run_out["failed"], 0, run_out["failures"])
            # Claim a clear inlier was flagged: the brute-force screen objects.
            flagged = {row for row, _ in work.flagged}
            inlier = next(r for r in range(work.n_outliers, work.n) if r not in flagged)
            work.flagged.append((inlier, work.miner.query_row(inlier)))
            reasons = [reason for _, reason in work.check()]
            self.assertTrue(any("screen" in reason for reason in reasons), reasons)
        finally:
            work.close()

    def test_stream_catches_a_corrupted_poll(self):
        work = TinyStream(8)
        try:
            work.setup()
            work.warm()
            for i in range(3):
                work.step(i)
            self.assertEqual(work.check(), [])
            _corrupt(work.samples[-1][3].results)
            self.assertTrue(work.check())
        finally:
            work.close()


class TracerIsOutsideIn(unittest.TestCase):
    def test_remove_restores_every_original(self):
        tracer = tracing.Tracer()
        before = [tracing._resolve(m, p) for m, p, _ in tracing.PATCHES]
        before = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                  for owner, attr in before]
        with tracer:
            pass
        after = [tracing._resolve(m, p) for m, p, _ in tracing.PATCHES]
        after = [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                 for owner, attr in after]
        self.assertEqual(len(before), len(after))
        for a, b in zip(before, after):
            self.assertIs(a, b)

    def test_traced_run_reports_every_layer_and_self_times_add_up(self):
        work = TinyBatch(9)
        tracer = tracing.Tracer()
        try:
            out = run.run(work, seconds=0.5, tracer=tracer)
        finally:
            work.close()
        layers = run.per_layer(out)
        self.assertEqual(set(layers), set(run.PER_LAYER))
        self.assertGreater(layers["lattice.prune_calls"], 0)
        self.assertGreater(layers["batch.self_s"], 0)
        self.assertEqual(out["slice"].steps, work.trace_steps)
        # Self times of everything under the query_batch spans cannot
        # exceed the spans themselves.
        acc = out["slice_acc"]
        total_self = sum(rec[2] for name, rec in acc.items() if not name.startswith("api."))
        self.assertLessEqual(total_self, acc["api.query_batch"][1] + 1e-9)

    def test_answers_are_the_same_traced_and_untraced(self):
        work = TinyBatch(10)
        try:
            work.setup()
            targets = work.next_targets()
            plain = work.miner.query_batch(targets)
            with tracing.Tracer():
                traced = work.miner.query_batch(targets)
        finally:
            work.close()
        for a, b in zip(plain.results, traced.results):
            self.assertIsNone(oracle.compare(oracle.answer_of(a), oracle.answer_of(b)))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_exits_nonzero_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "apibench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "apibench/run.py", "--workload", "mine", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
