"""Result refinement: the paper's worked example + antichain properties."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import filtering
from repro.core.exceptions import DimensionalityError
from repro.core.filtering import (
    covers,
    expand_upward,
    is_antichain,
    minimal_masks,
    minimal_subspaces,
)
from repro.core.subspace import Subspace, is_subset

MASK_SETS = st.sets(st.integers(1, (1 << 7) - 1), min_size=0, max_size=40)


class TestPaperExample:
    """Section 3.4: in a 4-d space, the outlying subspaces [1,3], [2,4],
    [1,2,3], [1,2,4], [1,3,4], [2,3,4], [1,2,3,4] filter down to exactly
    [1,3] and [2,4]."""

    def test_filter_keeps_only_the_two_minimal_subspaces(self):
        d = 4
        raw = [
            Subspace.from_dims_1based(dims, d)
            for dims in ([1, 3], [2, 4], [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4])
        ]
        kept = minimal_subspaces(raw)
        assert [s.notation() for s in kept] == ["[1, 3]", "[2, 4]"]


class TestMinimalMasks:
    def test_empty_input(self):
        assert minimal_masks([]) == []

    def test_single_mask(self):
        assert minimal_masks([0b101]) == [0b101]

    def test_duplicates_collapse(self):
        assert minimal_masks([0b1, 0b1, 0b1]) == [0b1]

    def test_incomparable_masks_all_kept(self):
        masks = [0b001, 0b010, 0b100]
        assert sorted(minimal_masks(masks)) == masks

    def test_chain_keeps_bottom(self):
        assert minimal_masks([0b111, 0b011, 0b001]) == [0b001]

    def test_deterministic_order(self):
        masks = [0b110, 0b001, 0b010]
        # ascending (dimensionality, value): 0b001, 0b010 kill 0b110? No:
        # 0b110 is a superset of 0b010 -> dropped.
        assert minimal_masks(masks) == [0b001, 0b010]

    def test_minimal_subspaces_empty(self):
        assert minimal_subspaces([]) == []

    def test_63_dimensions_are_the_limit(self):
        top = (1 << 63) - 1
        assert minimal_masks([top, 1 << 62]) == [1 << 62]
        for masks in ([1 << 63], [0b1, 1 << 63], [0b1, -1]):
            with pytest.raises(DimensionalityError, match=r"2\*\*63"):
                minimal_masks(masks)
        with pytest.raises(DimensionalityError, match=r"2\*\*63"):
            minimal_subspaces([Subspace(1 << 63, 64)])


class TestProperties:
    @settings(max_examples=100)
    @given(MASK_SETS)
    def test_output_is_antichain(self, masks):
        assert is_antichain(minimal_masks(masks))

    @settings(max_examples=100)
    @given(MASK_SETS)
    def test_output_covers_input(self, masks):
        kept = minimal_masks(masks)
        assert covers(kept, masks)

    @settings(max_examples=100)
    @given(MASK_SETS)
    def test_output_is_subset_of_input(self, masks):
        assert set(minimal_masks(masks)) <= set(masks)

    @settings(max_examples=100)
    @given(MASK_SETS)
    def test_idempotent(self, masks):
        once = minimal_masks(masks)
        assert minimal_masks(once) == once

    @settings(max_examples=60)
    @given(MASK_SETS)
    def test_expand_upward_recovers_upward_closure(self, masks):
        """For an upward-closed input, filter + expand is the identity."""
        d = 7
        closure = set()
        for mask in masks:
            closure.update(sup for sup in expand_upward([mask], d))
        kept = minimal_masks(closure)
        assert expand_upward(kept, d) == closure


class TestHelpers:
    def test_is_antichain(self):
        assert is_antichain([0b001, 0b010])
        assert not is_antichain([0b001, 0b011])
        assert is_antichain([])

    def test_covers(self):
        assert covers([0b001], [0b001, 0b011, 0b101])
        assert not covers([0b010], [0b001])
        assert covers([], [])

    def test_expand_upward_counts(self):
        # A singleton in d=4 has 2^3 supersets including itself.
        assert len(expand_upward([0b0001], 4)) == 8

    def test_expand_upward_members_are_supersets(self):
        for sup in expand_upward([0b0011], 4):
            assert is_subset(0b0011, sup)


def upward_sweep(masks):
    """The paper's upward sweep, one candidate at a time: the oracle of
    the level-at-a-time filter."""
    kept = []
    for mask in sorted(set(masks), key=lambda m: (bin(m).count("1"), m)):
        if not any(is_subset(kept_mask, mask) for kept_mask in kept):
            kept.append(mask)
    return kept


#: Lists, so duplicates and any order reach the filter; rarely upward
#: closed.
MASK_LISTS = st.lists(st.integers(1, (1 << 9) - 1), max_size=80)


class TestUpwardSweepOracle:
    @settings(max_examples=200)
    @given(MASK_LISTS)
    def test_equals_the_per_candidate_sweep(self, masks):
        assert minimal_masks(masks) == upward_sweep(masks)

    @settings(max_examples=50)
    @given(MASK_LISTS)
    def test_equals_the_sweep_on_upward_closed_sets(self, masks):
        closure = sorted(expand_upward(masks, 9))
        assert minimal_masks(closure) == upward_sweep(closure)

    @settings(max_examples=50)
    @given(MASK_LISTS)
    def test_blocked_broadcast_equals_the_sweep(self, masks):
        """A tiny block size splits every level into many blocks."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(filtering, "_BLOCK_CELLS", 3)
            assert minimal_masks(iter(masks)) == upward_sweep(masks)
