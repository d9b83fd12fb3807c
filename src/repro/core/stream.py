"""Sliding-window streaming engine over a fitted miner.

A traffic-facing deployment sees continuously arriving points: each
batch of fresh rows enters the window and, once the window is full, the
same number of oldest rows leaves it. :class:`StreamEngine` turns a
fitted :class:`~repro.core.miner.HOSMiner` into that sliding window —
every ``push`` runs the miner's incremental
:meth:`~repro.core.miner.HOSMiner.insert` /
:meth:`~repro.core.miner.HOSMiner.expire` path (in-place index buffers,
delta OD-cache invalidation, live shard-pool propagation) instead of a
refit, and every query answers against the current window exactly.

The identity contract (the whole point): after *any* interleaving of
pushes and queries, every answer is element-wise identical to a fresh
``fit`` on the equivalent window with the same explicit ``threshold``.
Two notes make "equivalent window" precise:

* **Threshold.** An auto-calibrated ``T`` is a quantile over the *fit*
  window; a fresh fit on a later window would re-draw it and answer a
  different question. Streaming keeps the fitted ``T`` fixed — the
  deployment's contract is "flag points whose OD reaches T", not "keep
  re-defining T". Pass an explicit ``threshold`` when comparing against
  fresh-fit oracles (the differential suite in ``tests/test_stream.py``
  does).
* **Priors.** The learned pruning priors stay those of the fit window.
  Priors only steer search *order*; the lattice pruning rules are exact,
  so answers never depend on them — only evaluation counts do.

Windowed expiry needs a backend with an ``expire`` method (``linear``
and ``vafile``); tree backends are rejected at construction, loudly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.miner import HOSMiner
from repro.core.result import BatchResult, OutlyingSubspaceResult

__all__ = ["StreamEngine"]


class StreamEngine:
    """Sliding-window facade over a fitted miner.

    Parameters
    ----------
    miner:
        A fitted :class:`~repro.core.miner.HOSMiner`.
    window:
        Sliding-window size; defaults to the config's ``stream_window``.
        ``None`` means unbounded (pushes insert, nothing expires). Must
        be at least ``k + 1`` so the window always holds a full
        neighbour set plus the query row.

    Counters
    --------
    ``pushes``, ``inserted``, ``expired`` count work accepted so far;
    the miner's ``od_cache_.delta_evicted`` / ``delta_retained`` expose
    how much cached state survived it.
    """

    def __init__(self, miner: HOSMiner, window: "int | None" = None) -> None:
        miner._require_fitted()
        if window is None:
            window = miner.config.stream_window
        if window is not None:
            window = int(window)
            if window < miner.config.k + 1:
                raise ConfigurationError(
                    f"window must be >= k+1={miner.config.k + 1} (a full "
                    f"neighbour set plus the query), got {window}"
                )
        if window is not None and not hasattr(miner.backend_, "expire"):
            raise ConfigurationError(
                f"index {miner.config.index!r} does not support windowed "
                f"expiry; use index='linear' or 'vafile' for streaming"
            )
        self.miner = miner
        self.window = window
        self.pushes = 0
        self.inserted = 0
        self.expired = 0

    # ------------------------------------------------------------------
    # Window maintenance
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Rows currently in the window."""
        return int(self.miner.backend_.size)

    def push(self, rows: np.ndarray) -> int:
        """Admit a batch of fresh rows; expire the overflow.

        Rows are inserted first and the window trimmed after, so the
        expiry-safety check (the window must keep ``k + 1`` rows) sees
        the grown occupancy — a push larger than the window is legal and
        leaves exactly the last ``window`` rows. Returns the number of
        rows expired.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        self.miner.insert(rows)
        overflow = 0
        if self.window is not None:
            overflow = self.occupancy - self.window
            if overflow > 0:
                self.miner.expire(overflow)
            else:
                overflow = 0
        self.pushes += 1
        self.inserted += rows.shape[0]
        self.expired += overflow
        return overflow

    # ------------------------------------------------------------------
    # Queries (window coordinates)
    # ------------------------------------------------------------------
    def query(self, target: "int | np.ndarray") -> OutlyingSubspaceResult:
        """One search against the current window (row id or point)."""
        return self.miner.query(target)

    def query_batch(
        self,
        targets: "np.ndarray | Sequence[int | np.ndarray]",
        workers: "int | None" = None,
    ) -> BatchResult:
        """A batch of searches against the current window."""
        return self.miner.query_batch(targets, workers=workers)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the miner's worker pools (the miner stays usable)."""
        self.miner.close()

    def __enter__(self) -> "StreamEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        window = "unbounded" if self.window is None else self.window
        return (
            f"StreamEngine(window={window}, occupancy={self.occupancy}, "
            f"pushes={self.pushes}, inserted={self.inserted}, expired={self.expired})"
        )
