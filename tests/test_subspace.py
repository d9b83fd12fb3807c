"""Unit and property tests for the bitmask subspace algebra."""

from __future__ import annotations

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import DimensionalityError
from repro.core.subspace import (
    Subspace,
    all_masks,
    dims_of_mask,
    full_mask,
    is_proper_subset,
    is_subset,
    iter_proper_submasks,
    iter_proper_supermasks,
    iter_submasks,
    iter_supermasks,
    mask_of_dims,
    masks_at_level,
    ordered_masks,
    popcount,
)

MASKS = st.integers(min_value=1, max_value=(1 << 8) - 1)


class TestMaskPrimitives:
    def test_popcount_matches_bin(self):
        for mask in range(1, 200):
            assert popcount(mask) == bin(mask).count("1")

    def test_full_mask(self):
        assert full_mask(1) == 0b1
        assert full_mask(4) == 0b1111

    def test_full_mask_rejects_nonpositive(self):
        with pytest.raises(DimensionalityError):
            full_mask(0)

    def test_mask_of_dims_roundtrip(self):
        dims = (0, 2, 5)
        assert dims_of_mask(mask_of_dims(dims)) == dims

    def test_mask_of_dims_validates_range(self):
        with pytest.raises(DimensionalityError):
            mask_of_dims([3], d=3)
        with pytest.raises(DimensionalityError):
            mask_of_dims([-1])

    def test_dims_of_mask_sorted(self):
        assert dims_of_mask(0b101001) == (0, 3, 5)

    def test_subset_relations(self):
        assert is_subset(0b010, 0b110)
        assert not is_subset(0b011, 0b110)
        assert is_subset(0b110, 0b110)
        assert is_proper_subset(0b010, 0b110)
        assert not is_proper_subset(0b110, 0b110)


class TestEnumeration:
    def test_submask_count(self):
        mask = 0b10110  # m = 3
        assert len(list(iter_submasks(mask))) == 2**3 - 1
        assert len(list(iter_proper_submasks(mask))) == 2**3 - 2

    def test_supermask_count(self):
        mask = 0b00011  # m=2 in d=5
        assert len(list(iter_supermasks(mask, 5))) == 2**3
        assert len(list(iter_proper_supermasks(mask, 5))) == 2**3 - 1

    def test_submasks_are_subsets(self):
        mask = 0b101101
        for sub in iter_submasks(mask):
            assert is_subset(sub, mask)

    def test_supermasks_are_supersets(self):
        mask = 0b0101
        for sup in iter_supermasks(mask, 6):
            assert is_subset(mask, sup)

    def test_masks_at_level_counts(self):
        for d in range(1, 7):
            for m in range(0, d + 1):
                masks = masks_at_level(d, m)
                assert len(masks) == comb(d, m)
                assert all(popcount(mask) == m for mask in masks)

    def test_masks_at_level_rejects_bad_level(self):
        with pytest.raises(DimensionalityError):
            masks_at_level(4, 5)

    def test_all_masks_complete(self):
        assert sorted(all_masks(4)) == list(range(1, 16))

    @given(MASKS)
    def test_proper_submasks_exclude_self(self, mask):
        assert mask not in set(iter_proper_submasks(mask))

    @given(MASKS)
    def test_submask_walk_visits_every_subset(self, mask):
        dims = dims_of_mask(mask)
        expected = set()
        for size in range(1, len(dims) + 1):
            for combo in itertools.combinations(dims, size):
                expected.add(mask_of_dims(combo))
        assert set(iter_submasks(mask)) == expected


class TestSubspaceType:
    def test_from_dims_and_properties(self):
        s = Subspace.from_dims([0, 2], d=4)
        assert s.dims == (0, 2)
        assert s.dimensionality == 2
        assert len(s) == 2
        assert 2 in s and 1 not in s and 9 not in s
        assert list(s) == [0, 2]

    def test_from_dims_1based_matches_paper_notation(self):
        s = Subspace.from_dims_1based([1, 3], d=4)
        assert s.dims == (0, 2)
        assert s.notation() == "[1, 3]"

    def test_full(self):
        assert Subspace.full(3).dims == (0, 1, 2)

    def test_validation(self):
        with pytest.raises(DimensionalityError):
            Subspace(0, 4)  # empty
        with pytest.raises(DimensionalityError):
            Subspace(0b10000, 4)  # out of width
        with pytest.raises(DimensionalityError):
            Subspace(1, 0)

    def test_subset_superset(self):
        small = Subspace.from_dims([1], 4)
        big = Subspace.from_dims([1, 3], 4)
        assert small.is_subset_of(big)
        assert big.is_superset_of(small)
        assert not big.is_subset_of(small)

    def test_cross_space_operations_rejected(self):
        a = Subspace.from_dims([0], 3)
        b = Subspace.from_dims([0], 4)
        with pytest.raises(DimensionalityError):
            a.is_subset_of(b)
        with pytest.raises(DimensionalityError):
            a.union(b)

    def test_union_intersection(self):
        a = Subspace.from_dims([0, 1], 4)
        b = Subspace.from_dims([1, 2], 4)
        assert a.union(b).dims == (0, 1, 2)
        assert a.intersection(b).dims == (1,)
        disjoint = Subspace.from_dims([3], 4)
        assert a.intersection(disjoint) is None

    def test_subsets_supersets_iterators(self):
        s = Subspace.from_dims([0, 2], 3)
        assert sorted(x.dims for x in s.subsets()) == [(0,), (2,)]
        assert sorted(x.dims for x in s.supersets()) == [(0, 1, 2)]
        assert s.mask in {x.mask for x in s.subsets(proper=False)}

    def test_project(self):
        s = Subspace.from_dims([0, 2], 3)
        assert s.project([10.0, 20.0, 30.0]) == (10.0, 30.0)
        with pytest.raises(DimensionalityError):
            s.project([1.0, 2.0])

    def test_ordering_level_then_lex(self):
        d = 4
        subspaces = [Subspace(mask, d) for mask in all_masks(d)]
        ordered = sorted(subspaces)
        levels = [s.dimensionality for s in ordered]
        assert levels == sorted(levels)
        # Within a level, dims tuples are lexicographically sorted.
        for level in set(levels):
            group = [s.dims for s in ordered if s.dimensionality == level]
            assert group == sorted(group)

    def test_hashable_and_frozen(self):
        s = Subspace.from_dims([1], 3)
        assert s in {s}
        with pytest.raises(AttributeError):
            s.mask = 3  # type: ignore[misc]

    def test_repr_mentions_dims(self):
        assert "0, 2" in repr(Subspace.from_dims([0, 2], 4))

    @given(MASKS, MASKS)
    def test_subset_antisymmetry(self, a, b):
        if is_subset(a, b) and is_subset(b, a):
            assert a == b

    @given(MASKS, MASKS, MASKS)
    def test_subset_transitivity(self, a, b, c):
        if is_subset(a, b) and is_subset(b, c):
            assert is_subset(a, c)

    @settings(max_examples=50)
    @given(MASKS)
    def test_wrapper_agrees_with_primitives(self, mask):
        s = Subspace(mask, 8)
        assert s.dimensionality == popcount(mask)
        assert s.dims == dims_of_mask(mask)


class TestOrderedMasks:
    """The integer sort key orders masks exactly as ``Subspace.__lt__``."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 12, 20]))
    def test_matches_wrapper_sort(self, data, d):
        masks = data.draw(
            st.lists(st.integers(min_value=1, max_value=(1 << d) - 1), max_size=40)
        )
        want = [subspace.mask for subspace in sorted(Subspace(mask, d) for mask in masks)]
        assert ordered_masks(masks, d) == want

    def test_same_level_orders_by_dims(self):
        # {0, 3} < {1, 2}, although 0b1001 > 0b0110.
        assert ordered_masks([0b0110, 0b1001, 0b0001, 0b1111], 4) == [
            0b0001, 0b1001, 0b0110, 0b1111
        ]
