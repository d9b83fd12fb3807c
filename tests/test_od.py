"""Outlying Degree: definition, caching, self-exclusion, monotonicity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError, DataShapeError
from repro.core.od import ODEvaluator, outlying_degree
from repro.core.subspace import dims_of_mask, iter_proper_submasks
from repro.index.linear import LinearScanIndex


def brute_od(X, q, k, dims, exclude=None):
    """Reference OD: sort all distances, sum the k smallest."""
    diff = X[:, list(dims)] - np.asarray(q)[list(dims)]
    distances = np.sqrt((diff**2).sum(axis=1))
    if exclude is not None:
        distances = np.delete(distances, exclude)
    return float(np.sort(distances)[:k].sum())


class TestOutlyingDegree:
    def test_matches_brute_force(self, rng):
        X = rng.normal(size=(60, 4))
        backend = LinearScanIndex(X)
        q = rng.normal(size=4)
        for dims in [(0,), (1, 3), (0, 1, 2, 3)]:
            assert outlying_degree(backend, q, 5, dims) == pytest.approx(
                brute_od(X, q, 5, dims)
            )

    def test_self_exclusion_changes_od(self, rng):
        X = rng.normal(size=(30, 3))
        backend = LinearScanIndex(X)
        with_self = outlying_degree(backend, X[4], 3, (0, 1, 2))
        without_self = outlying_degree(backend, X[4], 3, (0, 1, 2), exclude=4)
        # Including the row itself contributes a zero distance, so the
        # excluded version is at least as large.
        assert without_self >= with_self

    def test_duplicates_remain_legal_neighbours(self):
        X = np.zeros((5, 2))
        X[4] = [9.0, 9.0]
        backend = LinearScanIndex(X)
        # Row 0 has three exact duplicates; excluding only itself keeps them.
        assert outlying_degree(backend, X[0], 3, (0, 1), exclude=0) == 0.0


class TestODEvaluator:
    def _evaluator(self, rng, n=50, d=4, k=4):
        X = rng.normal(size=(n, d))
        return ODEvaluator(LinearScanIndex(X), X[0], k, exclude=0), X

    def test_od_matches_function(self, rng):
        evaluator, X = self._evaluator(rng)
        mask = 0b1011
        assert evaluator.od(mask) == pytest.approx(
            brute_od(X, X[0], 4, dims_of_mask(mask), exclude=0)
        )
        # The value is the sum of the kNN set's sorted distances, the
        # query's own row excluded.
        indices, distances = evaluator.backend.knn(X[0], 4, dims_of_mask(0b1111), exclude=0)
        assert len(indices) == 4 and 0 not in indices
        assert list(distances) == sorted(distances)
        assert evaluator.od(0b1111) == float(distances.sum())

    def test_cache_counts(self, rng):
        evaluator, _ = self._evaluator(rng)
        evaluator.od(0b101)
        evaluator.od(0b101)
        evaluator.od(0b011)
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 1

    def test_rejects_bad_k(self, rng):
        X = rng.normal(size=(10, 3))
        backend = LinearScanIndex(X)
        with pytest.raises(ConfigurationError):
            ODEvaluator(backend, X[0], 10, exclude=0)  # only 9 candidates
        with pytest.raises(ConfigurationError):
            ODEvaluator(backend, X[0], 0)

    def test_rejects_bad_query_shape(self, rng):
        X = rng.normal(size=(10, 3))
        backend = LinearScanIndex(X)
        with pytest.raises(DataShapeError):
            ODEvaluator(backend, np.zeros(4), 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**20), k=st.integers(1, 6))
def test_od_monotone_under_subspace_inclusion(seed, k):
    """Property 1/2's foundation: OD never decreases when dims are added.

    This is the load-bearing invariant of the whole search — checked on
    random data over every (subspace, proper subset) pair of a 4-d space.
    """
    generator = np.random.default_rng(seed)
    X = generator.normal(size=(40, 4)) * generator.uniform(0.5, 3)
    backend = LinearScanIndex(X)
    evaluator = ODEvaluator(backend, X[0], k, exclude=0)
    for mask in range(1, 16):
        od_mask = evaluator.od(mask)
        for sub in iter_proper_submasks(mask):
            assert evaluator.od(sub) <= od_mask + 1e-9
