"""OD profiles: how a point's outlying degree grows across the lattice.

A diagnostic layer on top of the search (extension beyond the paper).
The profile summarises, per lattice level ``m``, the range of OD values
the point exhibits, the threshold crossing, and where the minimal
outlying subspaces sit. It answers the practical questions a user has
*after* a query: "how close was this point to being flagged?", "is the
anomaly concentrated or diffuse?", "would a slightly different T have
changed the verdict?".

The exhaustive profile evaluates all ``C(d, m)`` subspaces per level —
meant for moderate ``d`` (it reuses the evaluator's cache, so profiling
after a query only pays for the subspaces pruning skipped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import require_threshold
from repro.core.exceptions import ConfigurationError
from repro.core.od import ODEvaluator
from repro.core.subspace import masks_at_level

__all__ = ["LevelProfile", "ODProfile", "compute_od_profile"]


@dataclass(frozen=True, slots=True)
class LevelProfile:
    """OD statistics of one lattice level for one point."""

    level: int
    minimum: float
    maximum: float
    mean: float
    outlying_fraction: float
    #: The level's most outlying subspace (mask).
    argmax_mask: int


@dataclass(frozen=True, slots=True)
class ODProfile:
    """Per-level OD statistics of one point.

    ``levels[m - 1]`` describes lattice level ``m``.
    """

    d: int
    threshold: float
    levels: tuple[LevelProfile, ...]

    @property
    def crossing_level(self) -> int | None:
        """Lowest level whose maximum OD reaches the threshold, or
        ``None`` when the point is an outlier nowhere."""
        for profile in self.levels:
            if profile.maximum >= self.threshold:
                return profile.level
        return None

    @property
    def margin(self) -> float:
        """Full-space OD minus the threshold: positive for outliers; the
        smaller the magnitude the more threshold-sensitive the verdict."""
        return self.levels[-1].maximum - self.threshold

    def render(self, width: int = 40) -> str:
        """ASCII rendering: one bar per level, '|' marks the threshold."""
        top = max(self.levels[-1].maximum, self.threshold) or 1.0
        lines = [f"OD profile (T = {self.threshold:.4g}):"]
        for profile in self.levels:
            bar = int(round(profile.maximum / top * (width - 1)))
            t_mark = int(round(self.threshold / top * (width - 1)))
            row = [" "] * width
            for i in range(bar + 1):
                row[i] = "#"
            row[t_mark] = "|"
            lines.append(
                f"  m={profile.level:>2} {''.join(row)} "
                f"max={profile.maximum:.4g} out={profile.outlying_fraction:.0%}"
            )
        return "\n".join(lines)


def compute_od_profile(
    evaluator: ODEvaluator, threshold: float, max_level: int | None = None
) -> ODProfile:
    """Exhaustively profile a point's OD across lattice levels.

    Parameters
    ----------
    evaluator:
        The (ideally query-warmed) OD oracle of the point.
    threshold:
        The ``T`` to report crossings against.
    max_level:
        Optionally stop after this level (profiles of the low levels are
        the actionable part; the top levels cost the most).
    """
    d = evaluator.backend.d
    require_threshold(threshold)
    top = d if max_level is None else max_level
    if not 1 <= top <= d:
        raise ConfigurationError(f"max_level must be in [1, {d}], got {max_level}")

    levels = []
    for m in range(1, top + 1):
        masks = masks_at_level(d, m)
        values = np.array([evaluator.od(mask) for mask in masks])
        argmax = int(values.argmax())
        levels.append(
            LevelProfile(
                level=m,
                minimum=float(values.min()),
                maximum=float(values.max()),
                mean=float(values.mean()),
                outlying_fraction=float((values >= threshold).mean()),
                argmax_mask=masks[argmax],
            )
        )
    return ODProfile(d=d, threshold=threshold, levels=tuple(levels))
