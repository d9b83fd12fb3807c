"""R*-tree: the base spatial index beneath the X-tree.

Implements the full Beckmann et al. (SIGMOD'90) insertion algorithm:

* **ChooseSubtree** — minimum overlap enlargement at the level above the
  leaves, minimum area enlargement elsewhere (both vectorised);
* **Forced reinsert** — on first overflow per level per insertion, the
  30% of entries farthest from the node centre are removed and
  re-inserted ("close reinsert" order);
* **Topological split** — axis chosen by minimum margin sum over all
  distributions, distribution chosen by minimum overlap volume with
  ties broken by minimum total area.

The tree is insert-only: HOS-Miner indexes a static dataset once and
then issues many subspace kNN queries, so deletion is out of scope (the
X-tree paper's experiments are likewise build-then-query). Its rows
live in a :class:`~repro.index.base.RowStore`, so an insert appends its
row in amortised O(d) before descending the tree. An optional STR bulk
load (`bulk_load="str"`) packs the tree bottom-up when build time, not
split behaviour, is what matters.

Subspace queries are delegated to :mod:`repro.index.knn`, which performs
best-first search with the metric's projected MINDIST.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError, IndexError_
from repro.core.metrics import Metric, get_metric
from repro.index.base import RowStore
from repro.index.knn import tree_knn, tree_range_query
from repro.index.mbr import MBR
from repro.index.node import Node
from repro.index.stats import IndexStats

__all__ = ["RStarTree"]


class RStarTree:
    """In-memory R*-tree over a static data matrix.

    Parameters
    ----------
    X:
        Data matrix of shape ``(n, d)``.
    metric:
        Metric instance or name used by queries (default ``euclidean``).
    max_entries:
        Block capacity M (entries per node). Minimum node fill is
        ``min_fill * M``.
    min_fill:
        Fraction of M that every split group must retain (R* uses 0.4).
    reinsert_fraction:
        Fraction of M force-reinserted on first overflow (R* uses 0.3);
        0 disables forced reinsert.
    bulk_load:
        ``None`` (default) inserts row by row, exercising the split
        machinery; ``"str"`` packs with Sort-Tile-Recursive.
    """

    def __init__(
        self,
        X: np.ndarray,
        metric: "Metric | str" = "euclidean",
        max_entries: int = 32,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
        bulk_load: str | None = None,
    ) -> None:
        self._rows = RowStore(np.ascontiguousarray(X, dtype=np.float64))
        if max_entries < 4:
            raise ConfigurationError(f"max_entries must be >= 4, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise ConfigurationError(f"min_fill must be in (0, 0.5], got {min_fill}")
        if not 0.0 <= reinsert_fraction < 0.5:
            raise ConfigurationError(
                f"reinsert_fraction must be in [0, 0.5), got {reinsert_fraction}"
            )
        self.metric = get_metric(metric)
        self.max_entries = max_entries
        self.min_fill = min_fill
        self.reinsert_fraction = reinsert_fraction
        self.stats = IndexStats()
        self._root = Node(level=0)
        self._reinserted_levels: set[int] = set()

        if bulk_load is None:
            for row in range(self.size):
                self._insert_row(row)
        elif bulk_load == "str":
            self._bulk_load_str()
        else:
            raise ConfigurationError(f"unknown bulk_load strategy {bulk_load!r}")

    # ------------------------------------------------------------------
    # KnnBackend interface
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def d(self) -> int:
        return self._rows.data.shape[1]

    @property
    def data(self) -> np.ndarray:
        return self._rows.data

    @property
    def root(self) -> Node:
        """Root node — exposed for tests and structure inspection."""
        return self._root

    def knn(
        self,
        query: np.ndarray,
        k: int,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        return tree_knn(self, query, k, dims, exclude)

    def range_query(
        self,
        query: np.ndarray,
        radius: float,
        dims: Sequence[int],
        exclude: int | None = None,
    ) -> np.ndarray:
        return tree_range_query(self, query, radius, dims, exclude)

    def insert(self, point: np.ndarray) -> int:
        """Insert one new point through the full R*/X-tree machinery
        (splits, supernodes, ...); returns its row id."""
        row = self._rows.append(point)
        self._insert_row(row)
        return row

    # ------------------------------------------------------------------
    # Structure inspection
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Number of levels (a single leaf root has height 1)."""
        return self._root.level + 1

    def node_count(self) -> int:
        return sum(1 for _ in self._root.iter_subtree())

    def leaf_count(self) -> int:
        return sum(1 for node in self._root.iter_subtree() if node.is_leaf)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`IndexError_` on breach.

        Verified: every row appears exactly once; every node's MBR equals
        the tight bound of its contents; levels decrease by one per step;
        no node exceeds its capacity; non-root nodes respect minimum fill
        (modulo supernodes, which follow their own rule).
        """
        seen: list[int] = []
        for node in self._root.iter_subtree():
            if node.overflows(self.max_entries):
                raise IndexError_(f"{node!r} exceeds capacity")
            if node.is_leaf:
                seen.extend(node.rows)
                if node.level != 0:
                    raise IndexError_("leaf node with non-zero level")
            else:
                for child in node.children:
                    if child.level != node.level - 1:
                        raise IndexError_("child level mismatch")
                    if child.mbr is None or node.mbr is None:
                        raise IndexError_("missing MBR")
                    if not node.mbr.contains_box(child.mbr):
                        raise IndexError_("parent MBR does not contain child MBR")
            expected = node.mbr
            node.recompute_mbr(self.data)
            if (expected is None) != (node.mbr is None) or (
                expected is not None and expected != node.mbr
            ):
                raise IndexError_(f"stale MBR on {node!r}")
        if sorted(seen) != list(range(self.size)):
            raise IndexError_("stored rows do not cover the dataset exactly once")

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert_row(self, row: int) -> None:
        self._reinserted_levels = set()
        self._insert_entry(MBR.from_point(self.data[row]), row, target_level=0)

    def _insert_entry(self, box: MBR, payload: "int | Node", target_level: int) -> None:
        """Insert a data row (``target_level == 0``) or an orphaned subtree
        (``target_level == subtree.level + 1``) and resolve overflows."""
        path = self._choose_path(box, target_level)
        target = path[-1]
        if isinstance(payload, Node):
            target.children.append(payload)
        else:
            target.rows.append(payload)
        for node in path:
            if node.mbr is None:
                node.mbr = box.copy()
            else:
                node.mbr.extend_box(box)

        index = len(path) - 1
        while index >= 0:
            node = path[index]
            if node.overflows(self.max_entries):
                self._overflow_treatment(path, index)
            index -= 1

    def _choose_path(self, box: MBR, target_level: int) -> list[Node]:
        node = self._root
        path = [node]
        while node.level > target_level:
            node = self._choose_subtree(node, box)
            path.append(node)
        if node.level != target_level:
            raise IndexError_(
                f"cannot reach level {target_level} from a height-{self.height()} tree"
            )
        return path

    def _choose_subtree(self, node: Node, box: MBR) -> Node:
        children = node.children
        lowers = np.array([child.mbr.lower for child in children])
        uppers = np.array([child.mbr.upper for child in children])
        new_lowers = np.minimum(lowers, box.lower)
        new_uppers = np.maximum(uppers, box.upper)
        areas = np.prod(uppers - lowers, axis=1)
        enlargements = np.prod(new_uppers - new_lowers, axis=1) - areas

        if node.level == 1:
            # Children are leaves: minimise overlap enlargement (R* rule).
            old_overlap = _pairwise_overlap_sums(lowers, uppers, lowers, uppers)
            new_overlap = _pairwise_overlap_sums(new_lowers, new_uppers, lowers, uppers)
            # Remove each box's overlap with itself (old: its own area;
            # new: overlap of grown box with its old self = old area).
            overlap_growth = (new_overlap - areas) - (old_overlap - areas)
            keys = list(zip(overlap_growth, enlargements, areas))
        else:
            keys = list(zip(enlargements, areas))
        best = min(range(len(children)), key=lambda i: keys[i])
        return children[best]

    # ------------------------------------------------------------------
    # Overflow treatment
    # ------------------------------------------------------------------
    def _overflow_treatment(self, path: list[Node], index: int) -> None:
        node = path[index]
        can_reinsert = (
            self.reinsert_fraction > 0.0
            and node is not self._root
            and node.level not in self._reinserted_levels
        )
        if can_reinsert:
            self._reinserted_levels.add(node.level)
            self._forced_reinsert(path, index)
        else:
            self._split_node(path, index)

    def _forced_reinsert(self, path: list[Node], index: int) -> None:
        node = path[index]
        boxes = self._entry_boxes(node)
        center = node.mbr.center()
        centers = np.array([box.center() for box in boxes])
        distances = np.linalg.norm(centers - center, axis=1)
        count = max(1, round(self.reinsert_fraction * node.capacity(self.max_entries)))
        # Farthest entries leave; they come back closest-first ("close reinsert").
        order = np.argsort(-distances, kind="stable")
        leaving = sorted(order[:count].tolist(), key=lambda i: distances[i])

        leaving_set = set(leaving)
        if node.is_leaf:
            removed: list[tuple[MBR, int | Node]] = [(boxes[i], node.rows[i]) for i in leaving]
            node.rows = [row for i, row in enumerate(node.rows) if i not in leaving_set]
        else:
            removed = [(boxes[i], node.children[i]) for i in leaving]
            node.children = [
                child for i, child in enumerate(node.children) if i not in leaving_set
            ]
        for ancestor in reversed(path[: index + 1]):
            ancestor.recompute_mbr(self.data)
        for box, payload in removed:
            self._insert_entry(box, payload, target_level=node.level)

    def _split_node(self, path: list[Node], index: int) -> None:
        node = path[index]
        boxes = self._entry_boxes(node)
        group_a, group_b, axis = self._topological_split(boxes)
        self._apply_split(path, index, group_a, group_b, axis)

    def _apply_split(
        self,
        path: list[Node],
        index: int,
        group_a: list[int],
        group_b: list[int],
        axis: int,
    ) -> None:
        """Materialise a computed split and push the new sibling upward."""
        node = path[index]
        sibling = Node(level=node.level)
        history = node.split_dims | {axis}
        node.split_dims = history
        sibling.split_dims = history
        # A split always resets the node to a single block: both halves
        # fit in one block again (X-tree semantics; harmless for R*).
        node.blocks = 1
        sibling.blocks = 1

        if node.is_leaf:
            rows = node.rows
            node.rows = [rows[i] for i in group_a]
            sibling.rows = [rows[i] for i in group_b]
        else:
            children = node.children
            node.children = [children[i] for i in group_a]
            sibling.children = [children[i] for i in group_b]
        node.recompute_mbr(self.data)
        sibling.recompute_mbr(self.data)

        if node is self._root:
            new_root = Node(level=node.level + 1)
            new_root.children = [node, sibling]
            new_root.recompute_mbr(self.data)
            new_root.split_dims = history
            self._root = new_root
        else:
            parent = path[index - 1]
            parent.children.append(sibling)
            parent.recompute_mbr(self.data)

    # ------------------------------------------------------------------
    # R* topological split
    # ------------------------------------------------------------------
    def _topological_split(self, boxes: list[MBR]) -> tuple[list[int], list[int], int]:
        """Beckmann et al. split: returns (group_a, group_b, axis)."""
        lowers = np.array([box.lower for box in boxes])
        uppers = np.array([box.upper for box in boxes])
        total = len(boxes)
        min_entries = max(1, int(math.ceil(self.min_fill * total)))
        if total < 2 * min_entries:
            min_entries = total // 2
        axis = self._choose_split_axis(lowers, uppers, min_entries)
        return self._choose_split_index(lowers, uppers, axis, min_entries)

    def _choose_split_axis(
        self, lowers: np.ndarray, uppers: np.ndarray, min_entries: int
    ) -> int:
        d = lowers.shape[1]
        best_axis, best_margin = 0, math.inf
        for axis in range(d):
            margin_total = 0.0
            for order in _split_orders(lowers, uppers, axis):
                prefix_margin, suffix_margin, _, _ = _distribution_geometry(
                    lowers[order], uppers[order]
                )
                for split in _valid_splits(len(order), min_entries):
                    margin_total += prefix_margin[split - 1] + suffix_margin[split]
            if margin_total < best_margin:
                best_axis, best_margin = axis, margin_total
        return best_axis

    def _choose_split_index(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        axis: int,
        min_entries: int,
    ) -> tuple[list[int], list[int], int]:
        best: tuple[float, float] | None = None
        best_groups: tuple[list[int], list[int]] | None = None
        for order in _split_orders(lowers, uppers, axis):
            _, _, (pl, pu), (sl, su) = _distribution_geometry(lowers[order], uppers[order])
            for split in _valid_splits(len(order), min_entries):
                overlap = _box_overlap_volume(
                    pl[split - 1], pu[split - 1], sl[split], su[split]
                )
                area = float(
                    np.prod(pu[split - 1] - pl[split - 1])
                    + np.prod(su[split] - sl[split])
                )
                key = (overlap, area)
                if best is None or key < best:
                    best = key
                    best_groups = (
                        order[:split].tolist(),
                        order[split:].tolist(),
                    )
        if best_groups is None:
            raise IndexError_("split found no valid distribution")
        return best_groups[0], best_groups[1], axis

    # ------------------------------------------------------------------
    # STR bulk loading
    # ------------------------------------------------------------------
    def _bulk_load_str(self) -> None:
        rows = np.arange(self.size)
        leaves = self._str_pack_rows(rows, axis=0)
        level = 0
        nodes = leaves
        while len(nodes) > 1:
            level += 1
            nodes = self._str_pack_nodes(nodes, level)
        self._root = nodes[0]

    def _str_pack_rows(self, rows: np.ndarray, axis: int) -> list[Node]:
        capacity = self.max_entries
        if rows.size <= capacity:
            leaf = Node(level=0)
            leaf.rows = rows.tolist()
            leaf.recompute_mbr(self.data)
            return [leaf]
        pages = math.ceil(rows.size / capacity)
        slabs = max(1, math.ceil(pages ** (1.0 / self.d)))
        per_slab = math.ceil(rows.size / slabs)
        order = rows[np.argsort(self.data[rows, axis % self.d], kind="stable")]
        leaves: list[Node] = []
        for start in range(0, order.size, per_slab):
            chunk = order[start : start + per_slab]
            leaves.extend(self._str_pack_rows(chunk, axis + 1))
        return leaves

    def _str_pack_nodes(self, nodes: list[Node], level: int) -> list[Node]:
        centers = np.array([node.mbr.center() for node in nodes])
        order = np.argsort(centers[:, 0], kind="stable")
        parents: list[Node] = []
        for start in range(0, len(nodes), self.max_entries):
            parent = Node(level=level)
            parent.children = [nodes[i] for i in order[start : start + self.max_entries]]
            parent.recompute_mbr(self.data)
            parents.append(parent)
        return parents

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _entry_boxes(self, node: Node) -> list[MBR]:
        if node.is_leaf:
            return [MBR.from_point(self.data[row]) for row in node.rows]
        return node.child_mbrs()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.size}, d={self.d}, M={self.max_entries}, "
            f"height={self.height()}, nodes={self.node_count()})"
        )


# ----------------------------------------------------------------------
# Module-level split geometry (shared with the X-tree)
# ----------------------------------------------------------------------
def _split_orders(lowers: np.ndarray, uppers: np.ndarray, axis: int):
    """The two R* sort orders along *axis*: by lower and by upper bound."""
    yield np.argsort(lowers[:, axis], kind="stable")
    yield np.argsort(uppers[:, axis], kind="stable")


def _valid_splits(total: int, min_entries: int) -> range:
    """Split positions leaving at least *min_entries* on each side."""
    return range(min_entries, total - min_entries + 1)


def _distribution_geometry(lowers: np.ndarray, uppers: np.ndarray):
    """Cumulative group geometry for every prefix/suffix of a sorted order.

    Returns ``(prefix_margin, suffix_margin, (prefix_lower, prefix_upper),
    (suffix_lower, suffix_upper))`` where index ``i`` of a prefix array
    describes the group ``items[:i+1]`` and index ``i`` of a suffix array
    describes ``items[i:]``.
    """
    prefix_lower = np.minimum.accumulate(lowers, axis=0)
    prefix_upper = np.maximum.accumulate(uppers, axis=0)
    suffix_lower = np.minimum.accumulate(lowers[::-1], axis=0)[::-1]
    suffix_upper = np.maximum.accumulate(uppers[::-1], axis=0)[::-1]
    prefix_margin = (prefix_upper - prefix_lower).sum(axis=1)
    suffix_margin = (suffix_upper - suffix_lower).sum(axis=1)
    return (
        prefix_margin,
        suffix_margin,
        (prefix_lower, prefix_upper),
        (suffix_lower, suffix_upper),
    )


def _box_overlap_volume(
    lower_a: np.ndarray, upper_a: np.ndarray, lower_b: np.ndarray, upper_b: np.ndarray
) -> float:
    extents = np.minimum(upper_a, upper_b) - np.maximum(lower_a, lower_b)
    if np.any(extents < 0):
        return 0.0
    return float(np.prod(extents))


def _pairwise_overlap_sums(
    lowers_a: np.ndarray,
    uppers_a: np.ndarray,
    lowers_b: np.ndarray,
    uppers_b: np.ndarray,
) -> np.ndarray:
    """For each box ``i`` in set A, the summed overlap volume with every
    box of set B (including any self pairing — callers subtract it)."""
    lower = np.maximum(lowers_a[:, None, :], lowers_b[None, :, :])
    upper = np.minimum(uppers_a[:, None, :], uppers_b[None, :, :])
    extents = np.clip(upper - lower, 0.0, None)
    volumes = np.prod(extents, axis=2)
    return volumes.sum(axis=1)
