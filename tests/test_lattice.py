"""Lattice state tracking: transitions, pruning, aggregates."""

from __future__ import annotations

import copy
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import DimensionalityError
from repro.core.lattice import MAX_LATTICE_DIM, SubspaceLattice, SubspaceState
from repro.core.subspace import is_subset, masks_at_level, popcount


class TestConstruction:
    def test_initial_state_all_unknown(self):
        lattice = SubspaceLattice(4)
        assert lattice.has_unknown()
        assert all(state is SubspaceState.UNKNOWN for _, state in lattice.iter_states())

    def test_initial_level_counts(self):
        lattice = SubspaceLattice(5)
        for m in range(1, 6):
            assert lattice.remaining_count(m) == comb(5, m)

    def test_rejects_bad_width(self):
        with pytest.raises(DimensionalityError):
            SubspaceLattice(0)
        with pytest.raises(DimensionalityError):
            SubspaceLattice(MAX_LATTICE_DIM + 1)

    def test_max_width_accepted(self):
        assert SubspaceLattice(MAX_LATTICE_DIM).d == MAX_LATTICE_DIM


class TestTransitions:
    def test_mark_evaluated_outlying(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b011, outlying=True)
        assert lattice.state(0b011) is SubspaceState.EVALUATED_OUTLYING
        assert lattice.is_outlying(0b011)
        assert lattice.remaining_count(2) == comb(3, 2) - 1

    def test_mark_evaluated_non_outlying(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b011, outlying=False)
        assert lattice.state(0b011) is SubspaceState.EVALUATED_NON_OUTLYING
        assert not lattice.is_outlying(0b011)

    def test_double_decision_rejected(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b1, outlying=True)
        with pytest.raises(DimensionalityError):
            lattice.mark_evaluated(0b1, outlying=False)

    def test_bad_mask_rejected(self):
        lattice = SubspaceLattice(3)
        with pytest.raises(DimensionalityError):
            lattice.mark_evaluated(0, True)
        with pytest.raises(DimensionalityError):
            lattice.state(0b1000)


class TestPruning:
    def test_prune_supersets_marks_exactly_proper_supersets(self):
        lattice = SubspaceLattice(4)
        mask = 0b0011
        pruned = lattice.prune_supersets(mask)
        assert pruned == 2 ** 2 - 1  # supersets via the 2 free dims
        for other, state in lattice.iter_states():
            if other != mask and is_subset(mask, other):
                assert state is SubspaceState.PRUNED_OUTLYING
            else:
                assert state is SubspaceState.UNKNOWN

    def test_prune_subsets_marks_exactly_proper_subsets(self):
        lattice = SubspaceLattice(4)
        mask = 0b0111
        pruned = lattice.prune_subsets(mask)
        assert pruned == 2 ** 3 - 2
        for other, state in lattice.iter_states():
            if other != mask and is_subset(other, mask):
                assert state is SubspaceState.PRUNED_NON_OUTLYING
            else:
                assert state is SubspaceState.UNKNOWN

    def test_pruning_is_idempotent(self):
        lattice = SubspaceLattice(4)
        assert lattice.prune_supersets(0b0001) > 0
        assert lattice.prune_supersets(0b0001) == 0

    def test_guard_skips_walk_when_nothing_above(self):
        lattice = SubspaceLattice(3)
        for mask in [0b111]:
            lattice.mark_evaluated(mask, True)
        for mask in [0b011, 0b101, 0b110]:
            lattice.mark_evaluated(mask, True)
        # All levels above 1 decided; pruning from a singleton finds nothing.
        assert lattice.prune_supersets(0b001) == 0

    def test_counts_by_state(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b001, outlying=True)
        lattice.prune_supersets(0b001)
        histogram = lattice.counts_by_state()
        assert histogram[SubspaceState.EVALUATED_OUTLYING] == 1
        assert histogram[SubspaceState.PRUNED_OUTLYING] == 3
        assert histogram[SubspaceState.UNKNOWN] == 3

    def test_outlying_masks_collects_both_kinds(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b001, outlying=True)
        lattice.prune_supersets(0b001)
        outlying = set(lattice.outlying_masks())
        assert outlying == {0b001, 0b011, 0b101, 0b111}


class TestAggregates:
    def test_remaining_workloads(self):
        lattice = SubspaceLattice(4)
        assert lattice.remaining_workload_below(3) == comb(4, 1) * 1 + comb(4, 2) * 2
        assert lattice.remaining_workload_above(3) == comb(4, 4) * 4
        lattice.mark_evaluated(0b0001, outlying=False)
        assert lattice.remaining_workload_below(3) == comb(4, 1) * 1 - 1 + comb(4, 2) * 2

    def test_levels_with_unknown_shrinks(self):
        lattice = SubspaceLattice(2)
        assert lattice.levels_with_unknown() == [1, 2]
        lattice.mark_evaluated(0b11, outlying=False)
        assert lattice.levels_with_unknown() == [1]

    def test_decided_stats(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b001, outlying=True)
        lattice.prune_supersets(0b001)
        decided, outlying = lattice.decided_stats(2)
        assert (decided, outlying) == (2, 2)  # 011 and 101 pruned outlying
        total_decided, total_outlying = lattice.decided_stats_total()
        assert (total_decided, total_outlying) == (4, 4)

    def test_level_outlying_fraction(self):
        lattice = SubspaceLattice(3)
        lattice.mark_evaluated(0b001, outlying=True)
        lattice.prune_supersets(0b001)
        assert lattice.level_outlying_fraction(2) == pytest.approx(2 / 3)
        assert lattice.level_outlying_fraction(3) == pytest.approx(1.0)

    def test_unknown_masks_snapshot(self):
        lattice = SubspaceLattice(3)
        masks = lattice.unknown_masks_at_level(2)
        assert sorted(masks) == [0b011, 0b101, 0b110]
        lattice.mark_evaluated(0b011, outlying=False)
        assert 0b011 not in lattice.unknown_masks_at_level(2)

    def test_first_unknown_cursor_walk(self):
        lattice = SubspaceLattice(3)
        mask, cursor = lattice.first_unknown_at_level(2, 0)
        lattice.mark_evaluated(mask, outlying=False)
        mask2, cursor2 = lattice.first_unknown_at_level(2, cursor)
        assert mask2 != mask and cursor2 >= cursor
        lattice.mark_evaluated(mask2, outlying=False)
        mask3, _ = lattice.first_unknown_at_level(2, cursor2)
        lattice.mark_evaluated(mask3, outlying=False)
        none, _ = lattice.first_unknown_at_level(2, 0)
        assert none == -1


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(2, 6),
    decisions=st.lists(
        st.tuples(st.integers(1, 63), st.booleans()), min_size=1, max_size=20
    ),
)
def test_remaining_counts_stay_consistent(d, decisions):
    """Property: after any decision sequence the per-level remaining
    counts equal a recount of UNKNOWN states."""
    lattice = SubspaceLattice(d)
    top = (1 << d) - 1
    for raw_mask, outlying in decisions:
        mask = (raw_mask % top) + 1
        if not lattice.is_unknown(mask):
            continue
        lattice.mark_evaluated(mask, outlying)
        if outlying:
            lattice.prune_supersets(mask)
        else:
            lattice.prune_subsets(mask)
    recount = [0] * (d + 1)
    for mask, state in lattice.iter_states():
        if state is SubspaceState.UNKNOWN:
            recount[popcount(mask)] += 1
    for m in range(1, d + 1):
        assert lattice.remaining_count(m) == recount[m]


def _random_lattice(d, decisions):
    """A lattice after a replayable sequence of one-mask decisions."""
    lattice = SubspaceLattice(d)
    top = (1 << d) - 1
    for raw_mask, outlying in decisions:
        mask = raw_mask % top + 1
        if not lattice.is_unknown(mask):
            continue
        lattice.mark_evaluated(mask, outlying)
        if outlying:
            lattice.prune_supersets(mask)
        else:
            lattice.prune_subsets(mask)
    return lattice


def _snapshot(lattice):
    d = lattice.d
    return (
        list(lattice.iter_states()),
        [lattice.remaining_count(m) for m in range(1, d + 1)],
        [lattice.decided_stats(m) for m in range(1, d + 1)],
    )


LATTICES = st.integers(1, 10).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.tuples(st.integers(0, 2**10), st.booleans()), max_size=3 * d
        ),
        st.integers(1, d),
        st.randoms(use_true_random=False),
    )
)


class TestLevelWideTransitions:
    """One level-wide call leaves the state the one-mask sequence leaves."""

    @settings(max_examples=150, deadline=None)
    @given(LATTICES, st.booleans())
    def test_mark_and_prune_equal_the_per_mask_sequence(self, case, outlying):
        d, decisions, level, rnd = case
        lattice = _random_lattice(d, decisions)
        unknown = lattice.unknown_masks_at_level(level)
        masks = rnd.sample(unknown, rnd.randint(0, len(unknown)))
        sequential = copy.deepcopy(lattice)

        lattice.mark_evaluated(masks, outlying)
        prune = lattice.prune_supersets if outlying else lattice.prune_subsets
        pruned = prune(masks)

        expected = 0
        for mask in masks:
            sequential.mark_evaluated(mask, outlying)
            if outlying:
                expected += sequential.prune_supersets(mask)
            else:
                expected += sequential.prune_subsets(mask)
        assert pruned == expected
        assert _snapshot(lattice) == _snapshot(sequential)

    @settings(max_examples=150, deadline=None)
    @given(case=LATTICES, upward=st.booleans())
    def test_prune_marks_the_union_of_the_cones(self, case, upward):
        """Pruning takes any same-level masks, decided or not. Two or more
        run the bitset closure, one runs the direct subset test; the
        closure must leave the state the one-mask sequence leaves."""
        d, decisions, level, rnd = case
        lattice = _random_lattice(d, decisions)
        candidates = masks_at_level(d, level)
        masks = rnd.sample(candidates, rnd.randint(0, len(candidates)))
        sequential = copy.deepcopy(lattice)
        name = "prune_supersets" if upward else "prune_subsets"
        pruned = getattr(lattice, name)(masks)
        assert pruned == sum(getattr(sequential, name)(mask) for mask in masks)
        assert _snapshot(lattice) == _snapshot(sequential)

    def test_empty_and_one_mask_inputs(self):
        lattice = SubspaceLattice(4)
        lattice.mark_evaluated([], True)
        assert lattice.prune_supersets([]) == 0
        assert lattice.prune_subsets(np.array([], dtype=np.intp)) == 0
        assert lattice.counts_by_state()[SubspaceState.UNKNOWN] == 15
        lattice.mark_evaluated([0b0011], True)
        assert lattice.prune_supersets(np.array([0b0011])) == 3
        assert lattice.state(0b0011) is SubspaceState.EVALUATED_OUTLYING

    def test_level_wide_inputs_validated(self):
        lattice = SubspaceLattice(4)
        with pytest.raises(DimensionalityError, match="one dimensionality"):
            lattice.prune_supersets([0b0001, 0b0011])
        with pytest.raises(DimensionalityError, match="non-empty subspaces"):
            lattice.prune_subsets([0b0001, 0b10000])
        with pytest.raises(DimensionalityError, match="non-empty subspaces"):
            lattice.mark_evaluated([0, 0b0001], True)
        with pytest.raises(DimensionalityError, match="repeats"):
            lattice.mark_evaluated([0b0001, 0b0001], True)
        lattice.mark_evaluated(0b0010, False)
        with pytest.raises(DimensionalityError, match="already decided"):
            lattice.mark_evaluated([0b0001, 0b0010], True)
        # A rejected call changes nothing.
        assert lattice.remaining_count(1) == 3
        assert lattice.is_unknown(0b0001)


class TestFullSpacePrune:
    """``prune_subsets(full)`` decides everything below the full space in
    one write. The reference here is a per-mask loop over raw states,
    not another lattice call, which would take the same fast path."""

    @settings(max_examples=150, deadline=None)
    @given(case=LATTICES, mark_full=st.booleans())
    def test_matches_a_per_mask_loop(self, case, mark_full):
        d, decisions, _, _ = case
        lattice = _random_lattice(d, decisions)
        full = (1 << d) - 1
        if mark_full and lattice.is_unknown(full):
            lattice.mark_evaluated(full, False)
        states = [SubspaceState.UNKNOWN] + [state for _, state in lattice.iter_states()]
        expected_pruned = 0
        for mask in range(1, full):
            if states[mask] is SubspaceState.UNKNOWN:
                states[mask] = SubspaceState.PRUNED_NON_OUTLYING
                expected_pruned += 1
        outlying = (SubspaceState.EVALUATED_OUTLYING, SubspaceState.PRUNED_OUTLYING)

        pruned = lattice.prune_subsets(full)

        assert pruned == expected_pruned
        assert [state for _, state in lattice.iter_states()] == states[1:]
        for m in range(1, d + 1):
            level = [mask for mask in range(1, full + 1) if popcount(mask) == m]
            unknown = sum(states[mask] is SubspaceState.UNKNOWN for mask in level)
            hits = sum(states[mask] in outlying for mask in level)
            assert lattice.remaining_count(m) == unknown
            assert lattice.decided_stats(m) == (comb(d, m) - unknown, hits)
        assert sorted(lattice.outlying_masks()) == [
            mask for mask in range(1, full + 1) if states[mask] in outlying
        ]

    def test_fresh_inlier(self):
        """The serving path's inlier: the full space evaluated non-outlying
        on a fresh lattice decides every subspace, none outlying."""
        lattice = SubspaceLattice(12)
        lattice.mark_evaluated([(1 << 12) - 1], False)
        assert lattice.prune_subsets([(1 << 12) - 1]) == 2**12 - 2
        assert not lattice.has_unknown()
        assert lattice.outlying_masks() == []
        assert lattice.counts_by_state()[SubspaceState.PRUNED_NON_OUTLYING] == 2**12 - 2


@settings(max_examples=100, deadline=None)
@given(LATTICES)
def test_prefix_sum_workloads_match_the_per_level_sums(case):
    """The TSF inputs _select_level reads from one prefix sum."""
    d, decisions, _, _ = case
    lattice = _random_lattice(d, decisions)
    workloads = lattice.remaining_workloads()
    assert len(workloads) == d + 2
    for m in range(1, d + 1):
        assert workloads[m] == lattice.remaining_workload_below(m)
        assert workloads[-1] - workloads[m + 1] == lattice.remaining_workload_above(m)
