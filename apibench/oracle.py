"""Answer checks for the benchmark, run outside the timed region.

Three answer oracles, from strongest to cheapest, plus a screen check:

* :func:`exhaustive_answer` evaluates every one of the ``2**d - 1``
  subspaces with the exact kernel (``baselines.naive_search``): the
  definition of the answer, with no pruning and no search order.
* :func:`exact_miner` is a float64 miner on the exact per-mask kernel
  with the served miner's threshold. Pruning is exact, so its answers
  are the definition's too, at a fraction of the exhaustive cost.
* For the streaming workload, a fresh fit of the served configuration on
  the equivalent window, whose answers the streaming contract makes
  bit-identical.
* :func:`screen_mismatches` re-derives ``detect_outliers``' flagged set
  by brute force over full-space distances.

Compared element-wise: the minimal outlying subspaces and the number of
outlying subspaces exactly; OD values exactly for the fresh-fit oracle
and, against a float64 oracle, within the served miner's proven GEMM
rounding band (the same band its exact re-verification uses).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.naive_search import exhaustive_search
from repro.core.filtering import minimal_masks
from repro.core.miner import HOSMiner
from repro.core.od import ODEvaluator
from repro.core.precision import reverify_rtol

__all__ = [
    "answer_of",
    "compare",
    "exact_miner",
    "exhaustive_answer",
    "od_tolerance",
    "screen_mismatches",
]


def answer_of(result) -> tuple[list[int], int, dict[int, float]]:
    """``(minimal masks, total_outlying, {mask: od})`` of a query result."""
    minimal = sorted(subspace.mask for subspace in result.minimal)
    od_values = {subspace.mask: float(value) for subspace, value in result.od_values.items()}
    return minimal, int(result.total_outlying), od_values


def od_tolerance(miner: HOSMiner) -> float:
    """Relative OD tolerance against a float64 oracle for *miner*'s tier."""
    return reverify_rtol(miner.precision_, miner.d_) if miner.kernel_ == "gemm" else 0.0


def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * (abs(a) + abs(b) + 1.0)


def compare(got, want, rtol: float = 0.0) -> "str | None":
    """``None`` when two answers agree, else a one-line reason.

    *got* and *want* are :func:`answer_of` triples; *rtol* 0 demands
    bit-identical OD values.
    """
    got_min, got_total, got_od = got
    want_min, want_total, want_od = want
    if got_min != want_min:
        return f"minimal subspaces differ: {got_min} != {want_min}"
    if got_total != want_total:
        return f"total_outlying differs: {got_total} != {want_total}"
    if set(got_od) != set(want_od):
        return "od_values cover different subspaces"
    for mask, value in got_od.items():
        if not _close(value, want_od[mask], rtol):
            return f"od_values[{mask}] differs: {value!r} != {want_od[mask]!r}"
    return None


def exact_miner(served: HOSMiner, X: np.ndarray) -> HOSMiner:
    """Float64 exact-kernel miner on *X* with *served*'s threshold.

    Priors only order the search, never its answer, so the oracle skips
    the learning pass.
    """
    return HOSMiner(
        k=served.config.k,
        threshold=served.threshold_,
        kernel="exact",
        precision="float64",
        sample_size=0,
        workers=1,
    ).fit(X)


def exhaustive_answer(oracle: HOSMiner, target) -> tuple[list[int], int, dict[int, float]]:
    """The answer by definition: every subspace evaluated exactly."""
    if isinstance(target, (int, np.integer)):
        query, exclude = oracle.backend_.data[int(target)], int(target)
    else:
        query, exclude = np.asarray(target, dtype=np.float64), None
    evaluator = ODEvaluator(oracle.backend_, query, oracle.config.k, exclude=exclude)
    outcome = exhaustive_search(evaluator, oracle.threshold_)
    minimal = minimal_masks(outcome.outlying_masks)
    od_values = {mask: evaluator.od(mask) for mask in minimal}
    return sorted(minimal), len(outcome.outlying_masks), od_values


def screen_mismatches(
    X: np.ndarray, k: int, threshold: float, flagged: set[int], rows: np.ndarray
) -> list[int]:
    """Rows of *rows* whose flagged status disagrees with brute force.

    A row is an outlier somewhere iff its full-space OD (sum of its k
    nearest Euclidean distances, itself excluded) reaches ``T``. Rows
    whose brute-force OD lies within float64 noise of ``T`` are skipped:
    summation order alone could decide them.
    """
    bad = []
    for row in rows:
        dist = np.sqrt(((X - X[row]) ** 2).sum(axis=1))
        dist[row] = np.inf
        od = float(np.sort(np.partition(dist, k)[:k]).sum())
        if _close(od, threshold, 1e-9):
            continue
        if (od >= threshold) != (int(row) in flagged):
            bad.append(int(row))
    return bad
