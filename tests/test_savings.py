"""Saving-factor definitions, the paper's worked examples, and TSF."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError, DimensionalityError
from repro.core.lattice import SubspaceLattice
from repro.core.od import ODEvaluator
from repro.core.priors import PruningPriors
from repro.core.savings import (
    TSFInputs,
    downward_saving_factor,
    total_saving_factor,
    total_saving_factors,
    total_workload,
    upward_saving_factor,
    workload_above,
    workload_below,
)
from repro.core.search import DynamicSubspaceSearch
from repro.index.linear import LinearScanIndex


class TestWorkedExamples:
    """The exact numbers printed in Section 3.1 of the paper (d = 4)."""

    def test_dsf_of_a_3d_subspace_is_9(self):
        # DSF([1,2,3]) = C(3,1)*1 + C(3,2)*2 = 9
        assert downward_saving_factor(3) == 9

    def test_usf_of_a_2d_subspace_in_d4_is_10(self):
        # USF([1,4]) = C(2,1)*(2+1) + C(2,2)*(2+2) = 10
        assert upward_saving_factor(2, 4) == 10


class TestClosedForms:
    @given(st.integers(1, 16))
    def test_dsf_closed_form(self, m):
        assert downward_saving_factor(m) == m * (2 ** (m - 1) - 1)

    @given(st.integers(1, 16))
    def test_total_workload_closed_form(self, d):
        assert total_workload(d) == sum(comb(d, i) * i for i in range(1, d + 1))
        assert total_workload(d) == d * 2 ** (d - 1)

    @given(st.integers(1, 14), st.integers(1, 14))
    def test_workload_partition_identity(self, m, d):
        """Below-m + level-m + above-m workloads must cover everything."""
        if m > d:
            m, d = d, m
        level_m = comb(d, m) * m
        assert workload_below(m, d) + level_m + workload_above(m, d) == total_workload(d)

    @given(st.integers(1, 14), st.integers(1, 14))
    def test_usf_is_workload_of_supersets(self, m, d):
        """USF(m, d) equals the summed evaluation cost of the supersets of
        one m-dimensional subspace."""
        if m > d:
            m, d = d, m
        expected = sum(comb(d - m, i) * (m + i) for i in range(1, d - m + 1))
        assert upward_saving_factor(m, d) == expected

    def test_boundaries(self):
        assert downward_saving_factor(1) == 0  # no subsets below level 1
        assert upward_saving_factor(5, 5) == 0  # no supersets above level d


class TestValidation:
    def test_dsf_rejects_nonpositive(self):
        with pytest.raises(DimensionalityError):
            downward_saving_factor(0)

    def test_usf_rejects_m_above_d(self):
        with pytest.raises(DimensionalityError):
            upward_saving_factor(5, 4)

    def test_workloads_reject_bad_args(self):
        with pytest.raises(DimensionalityError):
            workload_below(0, 4)
        with pytest.raises(DimensionalityError):
            workload_above(5, 4)
        with pytest.raises(DimensionalityError):
            total_workload(0)


class TestTSF:
    def _inputs(self, m, d, p_up=0.5, p_down=0.5, below=None, above=None):
        return TSFInputs(
            m=m,
            d=d,
            p_up=p_up,
            p_down=p_down,
            remaining_below=workload_below(m, d) if below is None else below,
            remaining_above=workload_above(m, d) if above is None else above,
        )

    def test_level_1_uses_only_up_term(self):
        inputs = self._inputs(1, 4, p_up=1.0, p_down=1.0)
        assert total_saving_factor(inputs) == pytest.approx(
            upward_saving_factor(1, 4)
        )

    def test_level_d_uses_only_down_term(self):
        inputs = self._inputs(4, 4, p_up=1.0, p_down=1.0)
        assert total_saving_factor(inputs) == pytest.approx(downward_saving_factor(4))

    def test_interior_level_sums_both_terms(self):
        inputs = self._inputs(2, 4, p_up=0.5, p_down=0.5)
        expected = 0.5 * downward_saving_factor(2) + 0.5 * upward_saving_factor(2, 4)
        assert total_saving_factor(inputs) == pytest.approx(expected)

    def test_remaining_workload_scales_terms(self):
        full = total_saving_factor(self._inputs(2, 4, p_up=0.0, p_down=1.0))
        half = total_saving_factor(
            self._inputs(2, 4, p_up=0.0, p_down=1.0, below=workload_below(2, 4) // 2)
        )
        assert half == pytest.approx(full * 0.5)

    def test_exhausted_side_contributes_zero(self):
        inputs = self._inputs(3, 4, p_up=1.0, p_down=1.0, below=0, above=0)
        assert total_saving_factor(inputs) == 0.0

    def test_zero_probability_kills_term(self):
        only_up = total_saving_factor(self._inputs(2, 4, p_up=1.0, p_down=0.0))
        assert only_up == pytest.approx(upward_saving_factor(2, 4))

    @given(
        st.integers(1, 10),
        st.integers(1, 10),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_tsf_nonnegative(self, m, d, p_up, p_down):
        if m > d:
            m, d = d, m
        assert total_saving_factor(self._inputs(m, d, p_up, p_down)) >= 0.0

    def test_inputs_validation(self):
        with pytest.raises(DimensionalityError):
            TSFInputs(m=0, d=4, p_up=0.5, p_down=0.5, remaining_below=0, remaining_above=0)
        with pytest.raises(ConfigurationError):
            TSFInputs(m=2, d=4, p_up=1.5, p_down=0.5, remaining_below=0, remaining_above=0)
        with pytest.raises(ConfigurationError):
            TSFInputs(m=2, d=4, p_up=0.5, p_down=0.5, remaining_below=-1, remaining_above=0)


# ----------------------------------------------------------------------
# One TSF pass per search step against the scalar formula
# ----------------------------------------------------------------------
def _lattice(d, decisions):
    """A lattice after a replayable sequence of one-mask decisions."""
    lattice = SubspaceLattice(d)
    for raw_mask, outlying in decisions:
        mask = raw_mask % ((1 << d) - 1) + 1
        if lattice.is_unknown(mask):
            lattice.mark_evaluated(mask, outlying)
            (lattice.prune_supersets if outlying else lattice.prune_subsets)(mask)
    return lattice


def _priors(d, kind, up, down):
    if kind == "uniform":
        return PruningPriors.uniform(d)
    p_up = np.array([0.0] + up[:d])
    # "learned" is the learning pass's shape; "free" any probabilities.
    p_down = 1.0 - p_up if kind == "learned" else np.array([0.0] + down[:d])
    if kind == "learned":
        p_up[0] = p_down[0] = p_down[1] = p_up[d] = 0.0
    return PruningPriors(d, p_up, p_down)


def _reference_priors(search, m, lattice):
    """The per-level prior of one level: ``priors.at`` and, when
    adaptive, the blend with this search's evidence at that level."""
    p_up, p_down = search.priors.at(m)
    if not search.adaptive:
        return p_up, p_down
    level_decided, level_outlying = lattice.decided_stats(m)
    global_decided, global_outlying = lattice.decided_stats_total()
    global_weight = min(global_decided, 2 * lattice.d)
    global_fraction = global_outlying / global_decided if global_decided else 0.0
    weight = search.adaptive_prior_weight
    estimate = (
        weight * p_up + level_outlying + global_weight * global_fraction
    ) / (weight + level_decided + global_weight)
    p_up_new, p_down_new = estimate, 1.0 - estimate
    if m == 1:
        p_down_new = 0.0
    if m == lattice.d:
        p_up_new = 0.0
    return p_up_new, p_down_new


def _reference_tsfs(search, lattice):
    """Every level's TSF through one TSFInputs object per level."""
    workloads = lattice.remaining_workloads()
    out = []
    for m in lattice.levels_with_unknown():
        p_up, p_down = _reference_priors(search, m, lattice)
        inputs = TSFInputs(
            m=m,
            d=lattice.d,
            p_up=p_up,
            p_down=p_down,
            remaining_below=workloads[m],
            remaining_above=workloads[-1] - workloads[m + 1],
        )
        out.append((m, total_saving_factor(inputs)))
    return out


PROBABILITIES = st.lists(st.floats(0.0, 1.0), min_size=12, max_size=12)


class TestOnePassTSF:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.tuples(st.integers(0, 2**12), st.booleans()), max_size=40),
        st.sampled_from(["uniform", "learned", "free"]),
        PROBABILITIES,
        PROBABILITIES,
        st.booleans(),
        st.sampled_from([0.5, 1.0, 8.0, 33.3]),
    )
    def test_every_level_matches_the_scalar_formula(
        self, d, decisions, kind, up, down, adaptive, weight
    ):
        lattice = _lattice(d, decisions)
        priors = _priors(d, kind, up, down)
        X = np.random.default_rng(d).normal(size=(3, d))
        search = DynamicSubspaceSearch(
            ODEvaluator(LinearScanIndex(X), X[0], 1, exclude=0),
            1.0,
            priors,
            adaptive=adaptive,
            adaptive_prior_weight=weight,
        )
        p_up, p_down = priors.p_up.tolist(), priors.p_down.tolist()
        levels = lattice.levels_with_unknown()
        if adaptive:
            p_up, p_down = search._adaptive_priors(lattice, levels, p_up)
        got = total_saving_factors(d, levels, p_up, p_down, lattice.remaining_workloads())
        want = _reference_tsfs(search, lattice)
        assert [m for m, _ in want] == levels
        # Bit for bit: float.hex tells -0.0 from 0.0 and every last ulp.
        assert [value.hex() for value in got] == [value.hex() for _, value in want]
        best_level, best_tsf = -1, -1.0
        for m, tsf in want:
            if tsf > best_tsf:
                best_level, best_tsf = m, tsf
        selected = search._select_level(
            lattice, priors.p_up.tolist(), priors.p_down.tolist()
        )
        assert selected == best_level

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_boundary_conventions(self, adaptive):
        """d = 1 earns only the (empty) upward term; at d = 4 level 1
        has no downward term and level d no upward one."""
        assert total_saving_factors(1, [1], [0.0, 1.0], [0.0, 0.0], [0, 0, 1]) == [0.0]
        d = 4
        workloads = SubspaceLattice(d).remaining_workloads()
        got = total_saving_factors(d, [1, d], [0.0] + [1.0] * d, [0.0] + [1.0] * d, workloads)
        assert got == [float(upward_saving_factor(1, d)), float(downward_saving_factor(d))]
        X = np.random.default_rng(1).normal(size=(3, 1))
        search = DynamicSubspaceSearch(
            ODEvaluator(LinearScanIndex(X), X[0], 1, exclude=0),
            1.0,
            PruningPriors.uniform(1),
            adaptive=adaptive,
        )
        assert search._select_level(SubspaceLattice(1), [0.0, 1.0], [0.0, 0.0]) == 1
