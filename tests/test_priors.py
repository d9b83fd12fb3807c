"""Pruning-prior conventions from Section 3.2."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError, DimensionalityError
from repro.core.priors import PruningPriors


class TestUniform:
    def test_interior_levels_are_half_half(self):
        priors = PruningPriors.uniform(6)
        for m in range(2, 6):
            assert priors.at(m) == (0.5, 0.5)

    def test_boundary_conventions(self):
        """p_up(1)=1, p_down(1)=0; p_up(d)=0, p_down(d)=1 — the paper's
        sampling-point initialisation."""
        priors = PruningPriors.uniform(6)
        assert priors.at(1) == (1.0, 0.0)
        assert priors.at(6) == (0.0, 1.0)

    def test_d1_degenerate_space(self):
        priors = PruningPriors.uniform(1)
        assert priors.at(1) == (1.0, 0.0)

    def test_arrays_are_frozen(self):
        priors = PruningPriors.uniform(4)
        with pytest.raises(ValueError):
            priors.p_up[2] = 0.9


class TestValidation:
    def test_shape_checked(self):
        with pytest.raises(ConfigurationError):
            PruningPriors(3, np.zeros(3), np.zeros(4))

    def test_probability_range_checked(self):
        bad = np.zeros(5)
        bad[2] = 1.5
        with pytest.raises(ConfigurationError):
            PruningPriors(4, bad, np.zeros(5))

    @pytest.mark.parametrize("which", ["p_up", "p_down"])
    def test_nan_rejected(self, which):
        """NaN compares false against both bounds, so a range check
        written as ``< 0 or > 1`` lets it through to the search."""
        arrays = {"p_up": np.full(5, 0.5), "p_down": np.full(5, 0.5)}
        arrays[which][3] = np.nan
        with pytest.raises(ConfigurationError, match=which):
            PruningPriors(4, arrays["p_up"], arrays["p_down"])

    def test_level_bounds_checked(self):
        priors = PruningPriors.uniform(4)
        with pytest.raises(DimensionalityError):
            priors.at(0)
        with pytest.raises(DimensionalityError):
            priors.at(5)

    def test_d_checked(self):
        with pytest.raises(DimensionalityError):
            PruningPriors(0, np.zeros(1), np.zeros(1))


class TestFromLevelValues:
    def test_builds_sparse_dicts(self):
        priors = PruningPriors.from_level_values(
            4, {1: 1.0, 2: 0.25}, {3: 0.75, 4: 1.0}
        )
        assert priors.at(2) == (0.25, 0.0)
        assert priors.at(3) == (0.0, 0.75)
