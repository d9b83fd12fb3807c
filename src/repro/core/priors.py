"""Per-level pruning priors ``p_up(m)`` / ``p_down(m)``.

The TSF formula weights each level's saving factors by the probability
that evaluating a subspace there triggers upward / downward pruning.
Two sources exist (Section 3.2):

* the **uniform assumption** used while searching the learning samples
  themselves — 0.5/0.5 at interior levels, with the boundary convention
  ``p_up(1) = 1, p_down(1) = 0`` and ``p_up(d) = 0, p_down(d) = 1``;
* the **learned averages** over the sample searches, with the
  structural zeros ``p_down(1) = 0`` and ``p_up(d) = 0``.

Both are represented by this one value type; arrays are indexed by
level ``m`` directly (slot 0 unused) for readability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import ConfigurationError, DimensionalityError

__all__ = ["PruningPriors"]


@dataclass(frozen=True)
class PruningPriors:
    """Immutable per-level prior probabilities for one search.

    Attributes
    ----------
    d:
        Ambient dimensionality.
    p_up, p_down:
        Arrays of length ``d + 1``; entry ``m`` holds the prior for
        level ``m`` (entry 0 is unused and kept at 0).
    """

    d: int
    p_up: np.ndarray
    p_down: np.ndarray

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DimensionalityError(f"d must be >= 1, got {self.d}")
        for name, array in (("p_up", self.p_up), ("p_down", self.p_down)):
            if array.shape != (self.d + 1,):
                raise ConfigurationError(
                    f"{name} must have shape ({self.d + 1},), got {array.shape}"
                )
            # Written so NaN fails too: every comparison with NaN is False.
            if not np.all((array >= 0) & (array <= 1)):
                raise ConfigurationError(f"{name} entries must be probabilities")
        self.p_up.setflags(write=False)
        self.p_down.setflags(write=False)

    @classmethod
    def uniform(cls, d: int) -> "PruningPriors":
        """The learning pass's assumption: equal chances of both prunings
        at every interior level (Section 3.2)."""
        p_up = np.full(d + 1, 0.5)
        p_down = np.full(d + 1, 0.5)
        p_up[0] = p_down[0] = 0.0
        p_up[1], p_down[1] = 1.0, 0.0
        p_up[d], p_down[d] = 0.0, 1.0
        if d == 1:
            # A 1-dimensional space has a single subspace; either rule may
            # notionally fire. Keep the m=1 convention (up only).
            p_up[1], p_down[1] = 1.0, 0.0
        return cls(d, p_up, p_down)

    @classmethod
    def from_level_values(
        cls, d: int, p_up_by_level: dict[int, float], p_down_by_level: dict[int, float]
    ) -> "PruningPriors":
        """Build from explicit per-level dictionaries (testing aid)."""
        p_up = np.zeros(d + 1)
        p_down = np.zeros(d + 1)
        for m, value in p_up_by_level.items():
            p_up[m] = value
        for m, value in p_down_by_level.items():
            p_down[m] = value
        return cls(d, p_up, p_down)

    def at(self, m: int) -> tuple[float, float]:
        """``(p_up(m), p_down(m))`` with bounds checking."""
        if not 1 <= m <= self.d:
            raise DimensionalityError(f"level {m} out of range for d={self.d}")
        return float(self.p_up[m]), float(self.p_down[m])
