"""Configuration of the HOS-Miner pipeline.

One frozen dataclass collects every knob of Figure 2's four modules so a
configuration can be logged, hashed and reproduced. Validation happens
eagerly at construction; dataset-dependent checks (``k`` vs ``n``)
happen at fit time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.metrics import KERNELS
from repro.core.precision import PRECISIONS

__all__ = ["HOSMinerConfig"]

_INDEX_BACKENDS = ("linear", "rstar", "xtree", "vafile")
_RESELECT_MODES = ("level", "evaluation")
_SHARD_MODES = ("rows",)


def require_threshold(threshold) -> None:
    """The one check of a distance threshold ``T``: a number ``>= 0``.

    NaN fails too — every ``OD >= T`` test would read false, so a NaN
    ``T`` would silently find nothing.
    """
    if not threshold >= 0:
        raise ConfigurationError(f"threshold must be a non-negative number, got {threshold}")


def require_integer(name: str, value) -> int:
    """*value* as an ``int``; bools and non-integral values fail with a
    :class:`ConfigurationError` naming *name* (numpy integers pass)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_bool(name: str, value) -> bool:
    """*value* as a ``bool``; anything else (a truthy string such as
    ``"no"`` included) fails with a :class:`ConfigurationError`."""
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _default_precision() -> str:
    """Default of the ``precision`` knob; overridable via the
    ``HOSMINER_PRECISION`` environment variable (the CI float32 job sets
    it to run the whole suite through the float32 tier)."""
    return os.environ.get("HOSMINER_PRECISION", "auto")


def _default_timeout() -> "float | None":
    """Default of the ``timeout_s`` knob; overridable via the
    ``HOSMINER_TIMEOUT_S`` environment variable (the CI chaos job sets a
    short deadline so injected hangs recover fast). ``""``, ``"none"``,
    ``"off"`` and ``"0"`` disable deadlines entirely."""
    raw = os.environ.get("HOSMINER_TIMEOUT_S")
    if raw is None:
        return 30.0
    if raw.strip().lower() in ("", "none", "off", "0"):
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"HOSMINER_TIMEOUT_S must be a number (or none/off/0 to "
            f"disable deadlines), got {raw!r}"
        ) from None
    if value <= 0:
        return None
    return value


def _default_workers() -> int:
    """Default of the ``workers`` knob; overridable via the
    ``HOSMINER_WORKERS`` environment variable (mirroring
    ``HOSMINER_PRECISION`` — the CI workers job sets it to run the whole
    suite through the sharded scatter-gather engine)."""
    raw = os.environ.get("HOSMINER_WORKERS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"HOSMINER_WORKERS must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class HOSMinerConfig:
    """All parameters of a HOS-Miner instance.

    Attributes
    ----------
    k:
        Neighbour count of the OD measure.
    threshold:
        The global distance threshold ``T``; ``None`` calibrates it at
        fit time as the ``threshold_quantile`` quantile of full-space
        ODs over ``threshold_sample`` dataset points (under OD
        monotonicity, full-space OD ≥ any subspace OD, so this bounds
        the fraction of dataset points that have any outlying subspace).
    threshold_quantile, threshold_sample:
        Auto-calibration parameters (ignored when ``threshold`` is set).
    metric:
        Metric name or instance; must be monotone under subspace
        inclusion (all built-ins are).
    index:
        kNN backend: ``"linear"`` (default), ``"rstar"``, ``"xtree"``
        or ``"vafile"``.
    index_options:
        Extra keyword arguments for the backend constructor.
    sample_size:
        Learning sample size ``S``; 0 disables learning (uniform priors).
    seed:
        Seed for the learning sampler and threshold calibration sampler.
    reselect:
        TSF re-selection granularity (``"level"`` per the paper, or
        ``"evaluation"``).
    adaptive:
        Enable the adaptive-prior extension of
        :class:`~repro.core.search.DynamicSubspaceSearch` (off by
        default for paper fidelity; never changes answers, only cost).
    kernel:
        OD-kernel selector: ``"auto"`` (default) runs the level-wide
        GEMM kernel whenever the metric has a linear component
        decomposition and falls back to the exact per-mask kernel
        otherwise; ``"gemm"`` demands the GEMM kernel and fit fails
        loudly if the metric cannot serve it; ``"exact"`` always runs
        the bit-exact kernel. Answer sets are identical under every
        setting — near-threshold GEMM values are re-verified exactly —
        so the knob trades nothing but speed.
    precision:
        GEMM precision tier under the kernel knob: ``"auto"`` (default;
        reads the ``HOSMINER_PRECISION`` environment variable when set)
        runs the level-wide product in float32 whenever the GEMM kernel
        serves it, ``"float32"``/``"float64"`` force a tier. Resolution
        happens at fit time against the resolved kernel — any non-GEMM
        kernel computes in float64 by definition, so the knob is inert
        (not an error) there. The float32 tier widens the exact
        re-verification band to a rigorous rounding bound
        (:func:`repro.core.precision.reverify_rtol`), keeping answer
        sets bit-identical to float64 at either setting.
    workers:
        Worker processes of :meth:`~repro.core.miner.HOSMiner.query_batch`
        (default 1 = in-process; reads the ``HOSMINER_WORKERS``
        environment variable when set). Values above 1 route batches
        through the persistent scatter-gather engine
        (:mod:`repro.core.shard`): workers are spawned once per fit,
        attach to shared-memory row shards of the dataset, and every
        batch ships only masks + query rows across the pipe; per-shard
        k-nearest partials are merged exactly at the coordinator. Like
        every cost knob, answers are element-wise identical at any
        setting.
    shard:
        Multi-worker execution strategy; ``"rows"`` (the only one) is
        the row-shard engine described under ``workers``.
    timeout_s:
        Reply deadline of one shard scatter round (and of the
        post-respawn health ping) in the row-shard engine.
        Default 30 s; reads the ``HOSMINER_TIMEOUT_S`` environment
        variable when set (``none``/``off``/``0`` disable deadlines —
        a hung worker then blocks its round forever). On expiry the
        hung worker is killed, respawned against its existing
        shared-memory segment, and the round is replayed; answers are
        unaffected at any setting.
    max_retries:
        Respawn-and-replay attempts per shard per round before the
        shard is declared irrecoverable and its row slice is served
        in-process through the sequential kernels (graceful
        degradation — still element-wise identical, just slower).
    backoff_s:
        First exponential-backoff sleep between respawn attempts
        (doubles per attempt, capped at
        :data:`repro.core.shard.BACKOFF_CAP_S`).
    stream_window:
        Default sliding-window size for
        :class:`~repro.core.stream.StreamEngine` (``None`` = unbounded:
        pushes insert and never expire). Must be at least ``k + 1`` at
        engine construction, since the window must always hold a full
        neighbour set plus the query row.
    """

    k: int = 5
    threshold: float | None = None
    threshold_quantile: float = 0.995
    threshold_sample: int = 256
    metric: object = "euclidean"
    index: str = "linear"
    index_options: dict = field(default_factory=dict)
    sample_size: int = 10
    seed: int | None = 0
    reselect: str = "level"
    adaptive: bool = False
    kernel: str = "auto"
    precision: str = field(default_factory=_default_precision)
    workers: int = field(default_factory=_default_workers)
    shard: str = "rows"
    timeout_s: float | None = field(default_factory=_default_timeout)
    max_retries: int = 2
    backoff_s: float = 0.05
    stream_window: int | None = None

    def __post_init__(self) -> None:
        for name in ("k", "threshold_sample", "sample_size", "workers", "max_retries"):
            require_integer(name, getattr(self, name))
        for name in ("stream_window", "seed"):
            if getattr(self, name) is not None:
                require_integer(name, getattr(self, name))
        require_bool("adaptive", self.adaptive)
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.threshold is not None:
            require_threshold(self.threshold)
        if not 0.0 < self.threshold_quantile < 1.0:
            raise ConfigurationError(
                f"threshold_quantile must be in (0, 1), got {self.threshold_quantile}"
            )
        if self.threshold_sample < 1:
            raise ConfigurationError(
                f"threshold_sample must be >= 1, got {self.threshold_sample}"
            )
        if self.index not in _INDEX_BACKENDS:
            raise ConfigurationError(
                f"index must be one of {_INDEX_BACKENDS}, got {self.index!r}"
            )
        if self.sample_size < 0:
            raise ConfigurationError(
                f"sample_size must be >= 0, got {self.sample_size}"
            )
        if self.reselect not in _RESELECT_MODES:
            raise ConfigurationError(
                f"reselect must be one of {_RESELECT_MODES}, got {self.reselect!r}"
            )
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.precision not in PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {PRECISIONS}, got {self.precision!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.shard not in _SHARD_MODES:
            raise ConfigurationError(
                f"shard must be one of {_SHARD_MODES}, got {self.shard!r}"
            )
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ConfigurationError(
                f"timeout_s must be positive (or None to disable "
                f"deadlines), got {self.timeout_s}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not self.backoff_s >= 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.stream_window is not None and self.stream_window < self.k + 1:
            raise ConfigurationError(
                f"stream_window must be >= k+1={self.k + 1} (the window must "
                f"hold a full neighbour set plus the query), got {self.stream_window}"
            )
