"""Persistence: save and load fitted miners and query results.

A fitted :class:`~repro.core.miner.HOSMiner` is a dataset plus a handful
of learned scalars/arrays, so the archive format is deliberately boring:
one ``.npz`` holding the data matrix, the learned prior arrays and a
JSON-encoded header (every config field, threshold, feature names,
format version). A metric instance is written by its registry name.
Loading rebuilds the index from the stored matrix — index structures are
derived state, and rebuilding dodges every pickle-compatibility hazard.

Results serialise to plain JSON (masks, OD values, costs) so they can be
archived next to bench outputs and diffed in review.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import numpy as np

from repro.core.config import HOSMinerConfig
from repro.core.exceptions import ConfigurationError, DataShapeError, HOSMinerError
from repro.core.metrics import ChebyshevMetric, EuclideanMetric, ManhattanMetric, MinkowskiMetric
from repro.core.miner import HOSMiner
from repro.core.priors import PruningPriors
from repro.core.result import OutlyingSubspaceResult
from repro.core.search import SearchStats
from repro.core.subspace import Subspace

__all__ = ["save_miner", "load_miner", "result_to_dict", "result_from_dict"]

_FORMAT_VERSION = 1


def _metric_name(metric) -> str:
    """The name :func:`~repro.core.metrics.get_metric` resolves back to
    *metric*: a name as given, a built-in instance by its registry name
    (``MinkowskiMetric(p)`` as ``"minkowski:<p>"``, ``p`` written
    exactly). Any other metric raises a :class:`ConfigurationError`."""
    if isinstance(metric, str):
        return metric
    if type(metric) is MinkowskiMetric:
        return f"minkowski:{metric.p!r}"
    if type(metric) in (EuclideanMetric, ManhattanMetric, ChebyshevMetric):
        return metric.name
    raise ConfigurationError(
        f"cannot save a miner with metric {metric!r}: only a metric name or a "
        "built-in metric instance can be written to an archive"
    )


def _json_scalar(value):
    """A numpy scalar (a config accepts ``np.int64(5)`` as ``k``) as the
    Python number JSON can write."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_miner(miner: HOSMiner, path: str) -> None:
    """Persist a fitted miner to a ``.npz`` archive.

    Every config field is written; a metric given as a built-in instance
    is written by its registry name, and one the archive cannot name
    raises a :class:`~repro.core.exceptions.ConfigurationError`.
    """
    if not miner._fitted:
        raise HOSMinerError("cannot save an unfitted miner")
    config = {field.name: getattr(miner.config, field.name) for field in fields(miner.config)}
    config["metric"] = _metric_name(config["metric"])
    header = {
        "format_version": _FORMAT_VERSION,
        "config": config,
        "threshold_": miner.threshold_,
        "feature_names": miner._feature_names,
    }
    np.savez_compressed(
        path,
        header=np.frombuffer(json.dumps(header, default=_json_scalar).encode(), dtype=np.uint8),
        X=np.asarray(miner.backend_.data),
        p_up=miner.priors_.p_up,
        p_down=miner.priors_.p_down,
    )


def load_miner(path: str) -> HOSMiner:
    """Rebuild a miner saved by :func:`save_miner`.

    The index is reconstructed from the stored matrix; the calibrated
    threshold and learned priors are restored verbatim (the learning
    pass is *not* rerun), and the miner's config equals the saved one
    (a metric saved from an instance comes back as its name). Fields
    missing from an older archive take their defaults."""
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["header"]).decode())
        if header.get("format_version") != _FORMAT_VERSION:
            raise HOSMinerError(
                f"unsupported archive version {header.get('format_version')}"
            )
        X = archive["X"]
        p_up = archive["p_up"]
        p_down = archive["p_down"]

    config = HOSMinerConfig(**header["config"])
    # The fit pins the exact fitted threshold, so it skips recalibration,
    # and skips the learning pass: the priors come from the archive.
    miner = HOSMiner(replace(config, threshold=header["threshold_"], sample_size=0))
    miner.fit(X, feature_names=header["feature_names"])
    miner._priors = PruningPriors(X.shape[1], p_up.copy(), p_down.copy())
    miner.config = config
    return miner


def result_to_dict(result: OutlyingSubspaceResult) -> dict:
    """JSON-safe representation of a query result."""
    return {
        "format_version": _FORMAT_VERSION,
        "query": [float(value) for value in result.query],
        "d": result.d,
        "k": result.k,
        "threshold": result.threshold,
        "minimal_masks": [subspace.mask for subspace in result.minimal],
        "total_outlying": result.total_outlying,
        "od_values": {
            str(subspace.mask): value for subspace, value in result.od_values.items()
        },
        "feature_names": result.feature_names,
        "stats": {
            "od_evaluations": result.stats.od_evaluations,
            "upward_pruned": result.stats.upward_pruned,
            "downward_pruned": result.stats.downward_pruned,
            "wall_time_s": result.stats.wall_time_s,
        },
    }


def result_from_dict(payload: dict) -> OutlyingSubspaceResult:
    """Inverse of :func:`result_to_dict`."""
    if payload.get("format_version") != _FORMAT_VERSION:
        raise HOSMinerError(f"unsupported result version {payload.get('format_version')}")
    d = int(payload["d"])
    if d < 1:
        raise DataShapeError(f"bad dimensionality {d} in result payload")
    minimal = [Subspace(mask, d) for mask in payload["minimal_masks"]]
    stats = SearchStats(
        od_evaluations=payload["stats"]["od_evaluations"],
        upward_pruned=payload["stats"]["upward_pruned"],
        downward_pruned=payload["stats"]["downward_pruned"],
        wall_time_s=payload["stats"]["wall_time_s"],
    )
    return OutlyingSubspaceResult(
        query=np.asarray(payload["query"], dtype=np.float64),
        d=d,
        k=int(payload["k"]),
        threshold=float(payload["threshold"]),
        minimal=minimal,
        total_outlying=int(payload["total_outlying"]),
        od_values={
            Subspace(int(mask), d): float(value)
            for mask, value in payload["od_values"].items()
        },
        stats=stats,
        feature_names=payload["feature_names"],
    )
