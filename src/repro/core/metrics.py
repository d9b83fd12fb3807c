"""Distance metrics with subspace projection and MBR lower bounds.

The outlying degree of HOS-Miner is a sum of point-to-point distances in
a *projected* space, so every metric here exposes three views of the same
distance:

``pairwise(X, q, dims)``
    Vectorised distances from query ``q`` to every row of ``X`` using only
    the dimensions in ``dims`` — the workhorse of the linear-scan kNN
    backend.
``point(a, b, dims)``
    Scalar distance between two vectors, restricted to ``dims``.
``mindist(q, lower, upper, dims)``
    Lower bound of the distance between ``q`` and any point inside the
    axis-aligned box ``[lower, upper]``, restricted to ``dims`` — the
    pruning bound used by the tree-based kNN search (the classic MINDIST
    of Roussopoulos et al., projected onto a subspace).

Built-in metrics additionally implement optional batched views:

``pairwise_components(X, q)`` / ``reduce_components(gathered)``
    The cross-subspace axis: ``pairwise_components`` precomputes the
    per-dimension distance contribution of every ``(row, dim)`` pair
    for one query (shape ``(n, d)``); ``reduce_components`` reduces a
    gathered ``(..., t)`` block of those contributions over its last
    axis into distances. An
    L_p distance over a subspace is a reduction of fixed per-dimension
    terms, so one component matrix serves *every* subspace evaluation
    of that query.
``pairwise_masked(X, Q, select)``
    Distances from every row of ``Q`` to every row of ``X``, each row of
    ``Q`` over its own subspace — row ``i`` of the boolean ``(m, d)``
    *select* names its dimensions — shape ``(m, n)``. The streaming
    delta pass measures every cached ``(point, mask)`` entry against the
    inserted or expired rows with it in one call, whatever mix of masks
    the entries hold (:meth:`repro.core.od.SharedODCache.delta_insert`).
``finalize_component_sums(sums)``
    The GEMM hook: turns *already-summed* component totals into
    distances (``sqrt`` for L2, identity for L1, ``s**(1/p)`` for
    general L_p). Metrics whose subspace distance is a monotone
    function of a plain **sum** of per-dimension components expose it,
    which lets the level-wide OD kernel obtain every subspace's
    component totals in one BLAS ``C @ M`` product over a 0/1 mask
    matrix. Chebyshev reduces with ``max`` rather than ``+`` and so has
    no such hook — :func:`resolve_kernel` routes it (and custom
    metrics) to the exact per-mask kernel.

Vectorised callers probe for these with ``getattr`` and fall back to
per-query/per-subspace ``pairwise`` calls, so custom metrics keep
working without them.

One accumulation
----------------
Every sum-reducing view of the L_p metrics (``pairwise``,
``pairwise_masked``, ``reduce_components``) accumulates its
per-dimension terms through one helper, :func:`_accumulate`: sequentially, one dimension at a time in the order
of ``dims`` (ascending for any mask), as elementwise array adds. Each
distance is therefore the same chain of IEEE operations whatever the
operand's shape — an ``(n, d)`` scan, a ``(q, n, d)`` broadcast, a
single ``(1, 1, d)`` pair or a gathered candidate list — so all views
are bit-identical by construction rather than by the accident of how
numpy's ``einsum``/``sum`` happen to order a reduction for a given shape
(they do not agree at every shape: a one-row ``einsum`` broadcast can
round differently from the scan). The masked view runs the same chain
over every dimension and skips the add wherever a row's selection
leaves a dimension out; its running total starts at ``0.0``, and
``0.0 + t`` is ``t`` exactly for every term (terms are never ``-0.0``),
so each of its distances is the float ``pairwise`` gives over that
row's dims. Chebyshev reduces with ``max``, which is exact in any order
(its masked view starts at ``0.0`` too, below every term). The
sum-reducing ``pairwise`` views also accept an ``(n, d)`` matrix as
``q``, pairing one query with each row of ``X`` — the form the
full-space unit's exact refine uses
(:meth:`repro.index.linear.LinearScanIndex.knn_full_prefix_batch`).

The GEMM view is the one exception: BLAS accumulates the per-dimension
sum in its own order, so its distances agree with the exact views only
to float tolerance — callers that make threshold decisions on GEMM
output re-verify near-threshold values with the exact kernel (see
:func:`repro.core.od.evaluate`).

Monotonicity
------------
HOS-Miner's pruning rules require ``Dist_s1(a, b) >= Dist_s2(a, b)``
whenever ``s1 ⊇ s2``. Every L_p metric (including L∞) satisfies this:
adding coordinates can only add non-negative contributions. The property
is verified for all shipped metrics by hypothesis tests
(``tests/test_metrics.py``).
"""

from __future__ import annotations

import math
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.exceptions import ConfigurationError

__all__ = [
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "KERNELS",
    "get_metric",
    "resolve_kernel",
    "supports_gemm_kernel",
    "METRIC_REGISTRY",
]

#: Valid OD-kernel selectors: ``"auto"`` picks GEMM when the metric
#: supports it, ``"gemm"`` demands it (loud error otherwise),
#: ``"exact"`` always runs the bit-exact per-mask kernel.
KERNELS = ("auto", "gemm", "exact")


@runtime_checkable
class Metric(Protocol):
    """Structural protocol every distance metric implements."""

    name: str

    def pairwise(self, X: np.ndarray, q: np.ndarray, dims: Sequence[int]) -> np.ndarray:
        """Distances from ``q`` to every row of ``X`` over ``dims``."""

    def point(self, a: np.ndarray, b: np.ndarray, dims: Sequence[int]) -> float:
        """Distance between two points over ``dims``."""

    def mindist(
        self,
        q: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
        dims: Sequence[int],
    ) -> float:
        """Lower bound to any point inside box ``[lower, upper]`` over ``dims``."""


def _as_index(dims) -> np.ndarray:
    """Normalise any dims sequence into a fancy-indexing-safe array.

    Plain tuples would be interpreted as multi-dimensional indices by
    numpy (``a[(0, 1)] == a[0, 1]``), so every metric entry point runs
    its dims through this helper.
    """
    return np.asarray(dims, dtype=np.intp)


def _square(values: np.ndarray) -> np.ndarray:
    return np.multiply(values, values, out=values)


def _magnitude(values: np.ndarray) -> np.ndarray:
    return np.abs(values, out=values)


def _accumulate(
    a: np.ndarray, b: np.ndarray, dims: np.ndarray, term, select: "np.ndarray | None" = None
) -> np.ndarray:
    """``Σ_j term(a[..., j] - b[..., j])`` over *dims*, one dim at a time.

    The one accumulation of the L_p metrics (see the module docstring):
    each step is an elementwise subtract, an elementwise *term* (which
    may work in place on the fresh difference) and an elementwise add, so
    every output element is the same sequential sum whatever shape ``a``
    and ``b`` broadcast to. ``a - b`` and ``b - a`` round to exact
    negatives, and every term here is even, so operand order is free.

    *select*, when given, is a boolean array whose last axis runs over
    the dimensions and whose other axes broadcast against the output:
    an element's sum then skips every dimension its selection leaves
    out, starting from ``0.0`` — the same float as the plain sum over
    its selected dims.
    """
    columns = dims.tolist()
    with np.errstate(over="ignore"):
        # A distance past float64 range is inf, not an error.
        if select is None:
            total = term(a[..., columns[0]] - b[..., columns[0]])
            for j in columns[1:]:
                total += term(a[..., j] - b[..., j])
            return total
        total = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        for j in columns:
            np.add(total, term(a[..., j] - b[..., j]), out=total, where=select[..., j])
    return total


def _masked(X: np.ndarray, Q: np.ndarray, select: np.ndarray, term) -> np.ndarray:
    """The masked view's accumulation: row ``i`` of *Q* against every row
    of *X* over the dims row ``i`` of *select* names, shape ``(m, n)``."""
    return _accumulate(
        Q[:, None, :], X[None, :, :], np.arange(Q.shape[1]), term, select[:, None, :]
    )


def _accumulate_terms(terms: np.ndarray) -> np.ndarray:
    """Sum precomputed terms over their last axis in :func:`_accumulate`'s
    order."""
    total = terms[..., 0].copy()
    with np.errstate(over="ignore"):
        for j in range(1, terms.shape[-1]):
            total += terms[..., j]
    return total


def _gaps(q: np.ndarray, lower: np.ndarray, upper: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Per-dimension axis gaps between a point and a box (0 inside)."""
    ql = q[dims]
    below = lower[dims] - ql
    above = ql - upper[dims]
    return np.maximum(0.0, np.maximum(below, above))


class EuclideanMetric:
    """The L2 metric — the paper's default ``Dist``."""

    name = "euclidean"

    def pairwise(self, X: np.ndarray, q: np.ndarray, dims) -> np.ndarray:
        return np.sqrt(_accumulate(X, q, _as_index(dims), _square))

    def pairwise_masked(self, X: np.ndarray, Q: np.ndarray, select: np.ndarray) -> np.ndarray:
        return np.sqrt(_masked(X, Q, select, _square))

    def pairwise_components(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        diff = X - q
        with np.errstate(over="ignore"):
            # Squares past float64 range become inf; repro.core.od's
            # component_entry flags such matrices so the work unit keeps
            # them off the GEMM (0 * inf = NaN) and reduces them exactly.
            return diff * diff

    def reduce_components(self, gathered: np.ndarray) -> np.ndarray:
        return np.sqrt(_accumulate_terms(gathered))

    def finalize_component_sums(self, sums: np.ndarray) -> np.ndarray:
        return np.sqrt(sums)

    def point(self, a: np.ndarray, b: np.ndarray, dims) -> float:
        dims = _as_index(dims)
        diff = a[dims] - b[dims]
        return float(math.sqrt(float(np.dot(diff, diff))))

    def mindist(self, q, lower, upper, dims) -> float:
        gaps = _gaps(q, lower, upper, _as_index(dims))
        return float(math.sqrt(float(np.dot(gaps, gaps))))


class ManhattanMetric:
    """The L1 (city-block) metric."""

    name = "manhattan"

    def pairwise(self, X: np.ndarray, q: np.ndarray, dims) -> np.ndarray:
        return _accumulate(X, q, _as_index(dims), _magnitude)

    def pairwise_masked(self, X: np.ndarray, Q: np.ndarray, select: np.ndarray) -> np.ndarray:
        return _masked(X, Q, select, _magnitude)

    def pairwise_components(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.abs(X - q)

    def reduce_components(self, gathered: np.ndarray) -> np.ndarray:
        return _accumulate_terms(gathered)

    def finalize_component_sums(self, sums: np.ndarray) -> np.ndarray:
        return sums

    def point(self, a, b, dims) -> float:
        dims = _as_index(dims)
        return float(np.abs(a[dims] - b[dims]).sum())

    def mindist(self, q, lower, upper, dims) -> float:
        return float(_gaps(q, lower, upper, _as_index(dims)).sum())


class ChebyshevMetric:
    """The L∞ metric (maximum coordinate difference)."""

    name = "chebyshev"

    def pairwise(self, X: np.ndarray, q: np.ndarray, dims) -> np.ndarray:
        dims = _as_index(dims)
        return np.abs(X[:, dims] - q[dims]).max(axis=1)

    def pairwise_masked(self, X: np.ndarray, Q: np.ndarray, select: np.ndarray) -> np.ndarray:
        total = np.zeros((Q.shape[0], X.shape[0]))
        with np.errstate(over="ignore"):
            # A dim left out of every selection may still overflow.
            for j in range(Q.shape[1]):
                gap = np.abs(Q[:, None, j] - X[None, :, j])
                np.maximum(total, gap, out=total, where=select[:, None, j])
        return total

    def pairwise_components(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.abs(X - q)

    def reduce_components(self, gathered: np.ndarray) -> np.ndarray:
        return gathered.max(axis=-1)

    def point(self, a, b, dims) -> float:
        dims = _as_index(dims)
        return float(np.abs(a[dims] - b[dims]).max())

    def mindist(self, q, lower, upper, dims) -> float:
        gaps = _gaps(q, lower, upper, _as_index(dims))
        return float(gaps.max()) if gaps.size else 0.0


class MinkowskiMetric:
    """The general L_p metric for ``p >= 1``.

    ``p=2`` and ``p=1`` are better served by the dedicated classes above
    (they avoid the generic power computations), but any ``p`` remains
    monotone under subspace inclusion and is therefore safe for pruning.
    """

    def __init__(self, p: float) -> None:
        if p < 1:
            raise ConfigurationError(f"Minkowski order must be >= 1, got {p}")
        self.p = float(p)
        self.name = f"minkowski(p={self.p:g})"

    def _term(self, values: np.ndarray) -> np.ndarray:
        return np.power(np.abs(values, out=values), self.p, out=values)

    def pairwise(self, X: np.ndarray, q: np.ndarray, dims) -> np.ndarray:
        return np.power(_accumulate(X, q, _as_index(dims), self._term), 1.0 / self.p)

    def pairwise_masked(self, X: np.ndarray, Q: np.ndarray, select: np.ndarray) -> np.ndarray:
        return np.power(_masked(X, Q, select, self._term), 1.0 / self.p)

    def pairwise_components(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.power(np.abs(X - q), self.p)

    def reduce_components(self, gathered: np.ndarray) -> np.ndarray:
        return np.power(_accumulate_terms(gathered), 1.0 / self.p)

    def finalize_component_sums(self, sums: np.ndarray) -> np.ndarray:
        return np.power(sums, 1.0 / self.p)

    def point(self, a, b, dims) -> float:
        dims = _as_index(dims)
        diff = np.abs(a[dims] - b[dims])
        return float(np.power(np.power(diff, self.p).sum(), 1.0 / self.p))

    def mindist(self, q, lower, upper, dims) -> float:
        gaps = _gaps(q, lower, upper, _as_index(dims))
        return float(np.power(np.power(gaps, self.p).sum(), 1.0 / self.p))


METRIC_REGISTRY: dict[str, type] = {
    "euclidean": EuclideanMetric,
    "l2": EuclideanMetric,
    "manhattan": ManhattanMetric,
    "l1": ManhattanMetric,
    "chebyshev": ChebyshevMetric,
    "linf": ChebyshevMetric,
}


def supports_gemm_kernel(metric: Metric) -> bool:
    """Whether *metric* can serve the GEMM (level-wide) OD kernel.

    Requires both halves of the linear component decomposition: a
    per-dimension component matrix (``pairwise_components``) and a
    monotone finalizer of plain component *sums*
    (``finalize_component_sums``). Chebyshev (max-reduction) and custom
    metrics without the hooks fail this test and run on the exact
    kernel instead.
    """
    return hasattr(metric, "pairwise_components") and hasattr(
        metric, "finalize_component_sums"
    )


def resolve_kernel(kernel: str, metric: Metric) -> str:
    """Resolve an OD-kernel selector against a metric's capabilities.

    ``"auto"`` silently falls back to ``"exact"`` when the metric lacks
    a GEMM-compatible decomposition; an explicit ``"gemm"`` request
    fails loudly instead — a caller who demanded the fast kernel must
    not silently get the slow one.
    """
    if kernel not in KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )
    if kernel == "exact":
        return "exact"
    if supports_gemm_kernel(metric):
        return "gemm"
    if kernel == "gemm":
        name = getattr(metric, "name", repr(metric))
        raise ConfigurationError(
            f"kernel='gemm' requires a metric with a linear component "
            f"decomposition (pairwise_components + finalize_component_sums); "
            f"metric {name!r} reduces components with a non-additive rule or "
            f"lacks the hooks — use kernel='auto' or kernel='exact'"
        )
    return "exact"


def get_metric(metric: "Metric | str") -> Metric:
    """Resolve a metric instance from a name or pass an instance through.

    Accepted names: ``euclidean``/``l2``, ``manhattan``/``l1``,
    ``chebyshev``/``linf``, and ``minkowski:<p>`` (e.g. ``minkowski:3``).
    """
    if isinstance(metric, str):
        key = metric.strip().lower()
        if key.startswith("minkowski:"):
            try:
                order = float(key.split(":", 1)[1])
            except ValueError as exc:
                raise ConfigurationError(f"bad Minkowski order in {metric!r}") from exc
            return MinkowskiMetric(order)
        if key not in METRIC_REGISTRY:
            known = ", ".join(sorted(set(METRIC_REGISTRY)))
            raise ConfigurationError(f"unknown metric {metric!r}; known: {known}")
        return METRIC_REGISTRY[key]()
    if isinstance(metric, Metric):
        return metric
    raise ConfigurationError(f"not a metric: {metric!r}")
