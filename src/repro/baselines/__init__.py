"""Baselines and comparators.

* :mod:`~repro.baselines.evolutionary` — the Aggarwal–Yu evolutionary
  sparse-subspace search [1], the paper's head-to-head comparator;
* :mod:`~repro.baselines.grid` — its equi-depth grid substrate;
* :mod:`~repro.baselines.naive_search` — exhaustive / fixed-order
  outlying-subspace searches (oracle + E10 ablations);
* :mod:`~repro.baselines.knn_outlier` — top-n kNN-distance outliers [8];
* :mod:`~repro.baselines.db_outlier` — DB(π, D) distance-based
  outliers [5, 6];
* :mod:`~repro.baselines.lof` — Local Outlier Factor [3].
"""

from repro.baselines.db_outlier import db_outliers, db_outlying_subspaces, is_db_outlier
from repro.baselines.evolutionary import (
    EvolutionaryConfig,
    EvolutionarySubspaceSearch,
    brute_force_sparse_cubes,
)
from repro.baselines.grid import EquiDepthGrid, SparseCube
from repro.baselines.knn_outlier import (
    KnnOutlierResult,
    knn_distance_scores,
    top_n_knn_outliers,
)
from repro.baselines.lof import lof_scores, top_n_lof_outliers
from repro.baselines.naive_search import exhaustive_search, fixed_order_search

__all__ = [
    "EquiDepthGrid",
    "EvolutionaryConfig",
    "EvolutionarySubspaceSearch",
    "KnnOutlierResult",
    "SparseCube",
    "brute_force_sparse_cubes",
    "db_outliers",
    "db_outlying_subspaces",
    "exhaustive_search",
    "fixed_order_search",
    "is_db_outlier",
    "knn_distance_scores",
    "lof_scores",
    "top_n_knn_outliers",
    "top_n_lof_outliers",
]
