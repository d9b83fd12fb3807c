"""Saving factors: DSF, USF and the Total Saving Factor (TSF).

These are Definitions 1-3 of the paper (Section 3.1). They quantify how
much search work is saved when a subspace of dimensionality ``m`` gets
pruned, under the cost model "evaluating an ``i``-dimensional subspace
costs ``i`` units":

* ``DSF(m) = Σ_{i=1..m-1} C(m, i) · i`` — evaluating an ``m``-dimensional
  subspace and finding the point *non-outlying* prunes every proper
  subset (downward pruning, Property 1).
* ``USF(m, d) = Σ_{i=1..d-m} C(d-m, i) · (m + i)`` — finding the point
  *outlying* prunes every proper superset (upward pruning, Property 2).

The paper's worked example (d = 4): ``DSF([1,2,3]) = C(3,1)·1 + C(3,2)·2
= 9`` and ``USF([1,4]) = C(2,1)·3 + C(2,2)·4 = 10``; both are pinned by
unit tests.

``TSF(m, p)`` weights the two saving factors by (a) the learned prior
probabilities that up/down pruning fires at level ``m`` and (b) the
fraction of that saving still achievable given what has already been
pruned (``f_down``, ``f_up``). The dynamic search engine always expands
the level with the highest TSF next: it computes every level's TSF in
one pass per step (:func:`total_saving_factors`), which keeps the
float operations of :func:`total_saving_factor` for each level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from repro.core.exceptions import ConfigurationError, DimensionalityError

__all__ = [
    "downward_saving_factor",
    "upward_saving_factor",
    "total_workload",
    "workload_below",
    "workload_above",
    "TSFInputs",
    "total_saving_factor",
    "total_saving_factors",
]


@lru_cache(maxsize=None)
def downward_saving_factor(m: int) -> int:
    """``DSF(m)``: work saved by pruning all proper subsets of an
    ``m``-dimensional subspace.

    Closed form used for cross-checking in tests:
    ``DSF(m) = m · (2**(m-1) - 1)``.
    """
    if m < 1:
        raise DimensionalityError(f"subspace dimensionality must be >= 1, got {m}")
    return sum(comb(m, i) * i for i in range(1, m))


@lru_cache(maxsize=None)
def upward_saving_factor(m: int, d: int) -> int:
    """``USF(m, d)``: work saved by pruning all proper supersets of an
    ``m``-dimensional subspace inside a ``d``-dimensional space."""
    if not 1 <= m <= d:
        raise DimensionalityError(f"need 1 <= m <= d, got m={m}, d={d}")
    r = d - m
    return sum(comb(r, i) * (m + i) for i in range(1, r + 1))


@lru_cache(maxsize=None)
def total_workload(d: int) -> int:
    """Total cost of exhaustively evaluating every non-empty subspace,
    ``Σ_{i=1..d} C(d, i) · i = d · 2**(d-1)``."""
    if d < 1:
        raise DimensionalityError(f"ambient dimensionality must be >= 1, got {d}")
    return d * (1 << (d - 1))


@lru_cache(maxsize=None)
def workload_below(m: int, d: int) -> int:
    """``C_down(m)``: total workload of all subspaces with dimensionality
    strictly below ``m`` — the denominator of ``f_down(m)``."""
    if not 1 <= m <= d:
        raise DimensionalityError(f"need 1 <= m <= d, got m={m}, d={d}")
    return sum(comb(d, i) * i for i in range(1, m))


@lru_cache(maxsize=None)
def workload_above(m: int, d: int) -> int:
    """``C_up(m)``: total workload of all subspaces with dimensionality
    strictly above ``m`` — the denominator of ``f_up(m)``."""
    if not 1 <= m <= d:
        raise DimensionalityError(f"need 1 <= m <= d, got m={m}, d={d}")
    return sum(comb(d, i) * i for i in range(m + 1, d + 1))


@dataclass(frozen=True, slots=True)
class TSFInputs:
    """Everything level-specific the TSF formula consumes.

    Attributes
    ----------
    m, d:
        Level under consideration and ambient dimensionality.
    p_up, p_down:
        Prior probabilities that an ``m``-dimensional subspace triggers
        upward / downward pruning for the current query point. Supplied
        either by the uniform assumption (learning pass) or by the
        learned averages (query pass).
    remaining_below, remaining_above:
        ``C_down_left(m)`` / ``C_up_left(m)``: summed dimensionalities of
        the not-yet-pruned, not-yet-evaluated subspaces strictly below /
        above level ``m``; maintained incrementally by the lattice.
    """

    m: int
    d: int
    p_up: float
    p_down: float
    remaining_below: int
    remaining_above: int

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.d:
            raise DimensionalityError(f"need 1 <= m <= d, got m={self.m}, d={self.d}")
        for name, prob in (("p_up", self.p_up), ("p_down", self.p_down)):
            if not 0.0 <= prob <= 1.0:
                raise ConfigurationError(f"{name} must be a probability, got {prob}")
        if self.remaining_below < 0 or self.remaining_above < 0:
            raise ConfigurationError("remaining workloads cannot be negative")


def total_saving_factor(inputs: TSFInputs) -> float:
    """``TSF(m, p)`` exactly as Definition 3 of the paper.

    * ``m == 1``: only the upward term (nothing exists below level 1).
    * ``m == d``: only the downward term (nothing exists above level d).
    * otherwise: the sum of both terms.

    ``f_down`` / ``f_up`` discount each saving factor by the fraction of
    the corresponding workload still outstanding; a level whose entire
    down-side has already been pruned earns no downward credit.
    """
    m, d = inputs.m, inputs.d

    down_term = 0.0
    if m > 1:
        denominator = workload_below(m, d)
        f_down = inputs.remaining_below / denominator if denominator else 0.0
        down_term = inputs.p_down * f_down * downward_saving_factor(m)

    up_term = 0.0
    if m < d:
        denominator = workload_above(m, d)
        f_up = inputs.remaining_above / denominator if denominator else 0.0
        up_term = inputs.p_up * f_up * upward_saving_factor(m, d)

    if m == 1:
        return up_term
    if m == d:
        return down_term
    return down_term + up_term


@lru_cache(maxsize=None)
def _level_constants(d: int) -> "tuple[tuple[int, int, int, int], ...]":
    """Per level ``m`` (entry 0 unused): ``C_down(m)``, ``DSF(m)``,
    ``C_up(m)`` and ``USF(m, d)`` — the integers of the TSF formula."""
    return ((0, 0, 0, 0),) + tuple(
        (
            workload_below(m, d),
            downward_saving_factor(m),
            workload_above(m, d),
            upward_saving_factor(m, d),
        )
        for m in range(1, d + 1)
    )


def total_saving_factors(
    d: int,
    levels: "list[int]",
    p_up: "list[float]",
    p_down: "list[float]",
    workloads: "list[int]",
) -> "list[float]":
    """``TSF(m, p)`` of every level in *levels*, in one pass.

    *p_up* / *p_down* are indexed by level (entry ``m`` is level ``m``'s
    prior) and *workloads* is
    :meth:`~repro.core.lattice.SubspaceLattice.remaining_workloads`, so
    ``C_down_left(m)`` is ``workloads[m]`` and ``C_up_left(m)`` is
    ``workloads[d + 1] - workloads[m + 1]``. Each value is
    :func:`total_saving_factor` of that level's :class:`TSFInputs`, bit
    for bit: the same float operations in the same order, with the
    per-``d`` integers looked up instead of recomputed. Inputs are
    trusted — the priors were checked by
    :class:`~repro.core.priors.PruningPriors`.
    """
    constants = _level_constants(d)
    total = workloads[d + 1]
    out = []
    for m in levels:
        below, dsf, above, usf = constants[m]
        down_term = 0.0
        if m > 1:
            f_down = workloads[m] / below if below else 0.0
            down_term = p_down[m] * f_down * dsf
        up_term = 0.0
        if m < d:
            f_up = (total - workloads[m + 1]) / above if above else 0.0
            up_term = p_up[m] * f_up * usf
        if m == 1:
            out.append(up_term)
        elif m == d:
            out.append(down_term)
        else:
            out.append(down_term + up_term)
    return out
