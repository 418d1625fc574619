"""Trees, generative forests, the cross-tree partition, density queries and
model (de)serialization."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, INTEGER, DataError, Dataset, FeatureDomain, Schema
from .measure import (
    CatSubset,
    IntRange,
    NumericInterval,
    Restriction,
    Support,
    uniform_mass,
)

MODEL_FORMAT = "genforest-model"
MODEL_VERSION = 1

# most nodes an EOGT walk stores (about 0.5 KiB each); past it a step builds
# the chosen child's run without storing it. Large enough for the whole walk
# of a small model (3 295 nodes for 10 trees of 100 splits on a 2-D table),
# small enough that the walk of 50 trees of 200 splits fills within its
# first 600 rows and then serves at a steady cost
WALK_NODE_CAP = 2**12


@dataclass(frozen=True)
class SplitPredicate:
    """Axis-parallel split; the right branch is predicate-true:
    numeric ``x > threshold``, categorical ``x in subset``."""

    feature: int
    threshold: float | None = None
    subset: frozenset[int] | None = None

    def __post_init__(self):
        if (self.threshold is None) == (self.subset is None):
            raise ValueError("exactly one of threshold/subset required")


def child_restriction(dom: FeatureDomain, parent: Restriction, pred: SplitPredicate, right: bool) -> Restriction:
    if pred.subset is not None:
        codes = parent.codes & pred.subset if right else parent.codes - pred.subset
        return CatSubset(codes)
    t = pred.threshold
    if dom.kind == INTEGER:
        ti = int(np.floor(t))
        return parent.intersect(IntRange(ti + 1, parent.b)) if right else parent.intersect(IntRange(parent.a, ti))
    if right:
        return parent.intersect(NumericInterval(t, parent.hi, lo_open=True))
    return parent.intersect(NumericInterval(parent.lo, t, parent.lo_open))


@dataclass
class _Node:
    pred: SplitPredicate | None = None  # None = leaf
    left: int = -1
    right: int = -1
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.pred is None


class Tree:
    """Arena-allocated binary tree with cached per-node supports."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.nodes: list[_Node] = [_Node()]
        self.supports: list[Support] = [Support.full(schema)]

    @property
    def root(self) -> int:
        return 0

    def is_leaf(self, i: int) -> bool:
        return self.nodes[i].is_leaf

    def leaves(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.is_leaf]

    def n_leaves(self) -> int:
        return sum(1 for n in self.nodes if n.is_leaf)

    def split(self, leaf: int, pred: SplitPredicate) -> tuple[int, int]:
        """Replace a leaf by an internal node with two fresh leaf children."""
        node = self.nodes[leaf]
        if not node.is_leaf:
            raise ValueError("can only split a leaf")
        sup = self.supports[leaf]
        dom = self.schema.domains[pred.feature]
        parent_r = sup.restrictions[pred.feature]
        left_r = child_restriction(dom, parent_r, pred, right=False)
        right_r = child_restriction(dom, parent_r, pred, right=True)
        if left_r.is_empty() or right_r.is_empty():
            raise ValueError("split produces an empty child support")
        li, ri = len(self.nodes), len(self.nodes) + 1
        self.nodes.append(_Node(depth=node.depth + 1))
        self.nodes.append(_Node(depth=node.depth + 1))
        self.supports.append(sup.replace(pred.feature, left_r))
        self.supports.append(sup.replace(pred.feature, right_r))
        node.pred = pred
        node.left, node.right = li, ri
        return li, ri

    def leaf_of(self, values) -> int:
        """Descend to the leaf containing a complete observation (raw values);
        boundary points go left per the half-open convention."""
        i = self.root
        while not self.nodes[i].is_leaf:
            n = self.nodes[i]
            i = n.right if self.supports[n.right].restrictions[n.pred.feature].contains(values[n.pred.feature]) else n.left
        return i


class WalkNode:
    """A state of the sampler in iterative tree order, at tree ``t_idx`` and
    its node ``node``, where the right side is taken with probability ``p``
    strictly between 0 and 1 (a branching node: in GF mode the training rows
    still inside split between both sides), or where every tree has reached
    a leaf (a terminal cell: ``p`` is None and ``support`` is the cell).
    ``mass`` is the probability that the sampler reaches the node: the
    fraction of training rows inside it (GF), or the product of the coins
    along its path (EOGT).

    The edge into a node is its parent's coin followed by ``skip`` forced
    steps, at which the coin was 0 or 1; ``checks`` pairs each feature split
    on along that edge with its restriction at this node, for
    ``walk_cells``. A branching node holds its ``support`` and ``rows`` until
    it is expanded; then ``children`` is its (left, right) pair."""

    __slots__ = ("t_idx", "node", "p", "mass", "skip", "checks", "support", "rows", "children")

    def __init__(self, t_idx, node, p, mass, skip, checks, support, rows):
        self.t_idx = t_idx
        self.node = node
        self.p = p
        self.mass = mass
        self.skip = skip
        self.checks = checks
        self.support = support
        self.rows = rows
        self.children = None


def assignment_arrays(leaf_rows, m: int) -> list[np.ndarray]:
    """Per-tree row -> leaf-id arrays derived from the disjoint leaf row
    lists."""
    out = []
    for per_tree in leaf_rows:
        arr = np.full(m, -1, dtype=np.int32)
        for leaf, rows in per_tree.items():
            arr[rows] = leaf
        out.append(arr)
    return out


def _member_cuts(tree: Tree) -> tuple[np.ndarray, list[int], list[bool]]:
    """Left-first preorder index of every node, and the cut and side (True:
    upper) that ``GenerativeForest.node_member_mask`` compares a row's key,
    its leaf's index, with. A subtree occupies a contiguous index range whose
    right-child subtree is its upper part, so both children of a node cut at
    the right child's index; the root's upper side of cut 0 holds every row."""
    pre = np.empty(len(tree.nodes), dtype=np.int32)
    stack, k = [tree.root], 0
    while stack:
        i = stack.pop()
        pre[i] = k
        k += 1
        n = tree.nodes[i]
        if not n.is_leaf:
            stack.extend((n.right, n.left))
    cut, upper = [0] * len(tree.nodes), [True] * len(tree.nodes)
    for n in tree.nodes:
        if not n.is_leaf:
            cut[n.left] = cut[n.right] = int(pre[n.right])
            upper[n.left] = False
    return pre, cut, upper


def approx_branch_prob(
    u_ct: float,
    u_right: float,
    u_cf: float,
    u_left: float,
    p_arc: float,
    c_t: Restriction | Support,
    c_f: Restriction | Support,
) -> float:
    """Uniform-corrected branch probability of an ensemble of generative
    trees: p_U[C_t|X_r] p / (p_U[C_t|X_r] p + p_U[C_f|X_l] (1 - p)), where
    ``c_t`` and ``c_f`` are the current support's intersections with the
    right and left children. Where both corrected masses are 0 (below a
    zero-width cell), the arc probability if both intersections are
    non-empty, else the side that is."""
    qt = (u_ct / u_right) * p_arc if u_right > 0 else 0.0
    qf = (u_cf / u_left) * (1.0 - p_arc) if u_left > 0 else 0.0
    denom = qt + qf
    if denom > 0:
        return qt / denom
    if c_t.is_empty():
        return 0.0
    return 1.0 if c_f.is_empty() else p_arc


class GenerativeForest:
    """A set of consistent trees bound either to the training data (GF mode)
    or to per-arc empirical branch probabilities (EOGT mode)."""

    def __init__(
        self,
        schema: Schema,
        trees: list[Tree],
        pi: float = 0.5,
        mode: str = "gf",
        dataset: Dataset | None = None,
        leaf_rows: list[dict[int, np.ndarray]] | None = None,
        arc_p: list[dict[int, float]] | None = None,
    ):
        if mode not in ("gf", "eogt"):
            raise ValueError(f"bad mode {mode!r}")
        if not 0 < pi < 1:
            raise ValueError("pi must be in (0, 1)")
        self.schema = schema
        self.trees = trees
        self.pi = pi
        self.mode = mode
        self.dataset = dataset
        self.leaf_rows = leaf_rows
        self.arc_p = arc_p
        # GF row keys and the walk tree, built lazily by _row_keys and
        # walk_root / walk_child; reentrant, as the walk reads the keys.
        # The walk's stored (branching nodes, cells), and whether an EOGT
        # walk is full, change only under the lock
        self._lazy_lock = threading.RLock()
        self._keys: list[tuple[np.ndarray, list[int], list[bool]]] | None = None
        self._walk_root: WalkNode | None = None
        self._walk_sizes = [0, 0]
        self._walk_full = False
        if mode == "gf":
            if dataset is None or leaf_rows is None:
                raise ValueError("gf mode needs the dataset binding")
        else:
            if arc_p is None:
                raise ValueError("eogt mode needs arc probabilities")
            for t, probs in zip(trees, arc_p):
                for i, p in probs.items():
                    if not 0.0 <= p <= 1.0:
                        raise ValueError(f"arc probability {p} outside [0, 1] at node {i}")
            # uniform mass of every node's support, read by branch_prob
            self._node_umass = [[uniform_mass(schema, s) for s in t.supports] for t in trees]

    @property
    def T(self) -> int:
        return len(self.trees)

    # -- partition -----------------------------------------------------------

    def _row_keys(self) -> list[tuple[np.ndarray, list[int], list[bool]]]:
        """Per tree: every training row's key, and the cuts and sides of
        ``_member_cuts``; built on first use."""
        if self._keys is None:
            with self._lazy_lock:
                if self._keys is None:
                    leaf_of_row = assignment_arrays(self.leaf_rows, self.dataset.m)
                    cuts = [_member_cuts(t) for t in self.trees]
                    self._keys = [(pre[a], cut, upper) for (pre, cut, upper), a in zip(cuts, leaf_of_row)]
        return self._keys

    def node_member_mask(self, t_idx: int, node: int, rows: np.ndarray) -> np.ndarray:
        """Which of the training ``rows``, all under the parent of ``node`` of
        tree ``t_idx``, lie under ``node``: one comparison of each row's leaf
        preorder key with the node's cut. GF mode only."""
        keys, cut, upper = self._row_keys()[t_idx]
        return keys[rows] >= cut[node] if upper[node] else keys[rows] < cut[node]

    def branch_prob(self, t_idx: int, node: int, support: Support, rows: np.ndarray | None) -> float:
        """Probability of taking the right branch at internal ``node`` of tree
        ``t_idx`` given the current support, which lies inside the node's,
        and, in GF mode, the rows still compatible with it: the fraction of
        those rows on the right (GF) or the uniform-corrected arc probability
        (EOGT). The support's intersection with a child differs from the
        support only on the split feature."""
        tree = self.trees[t_idx]
        n = tree.nodes[node]
        assert not n.is_leaf
        if self.mode == "gf":
            n_right = int(np.count_nonzero(self.node_member_mask(t_idx, n.right, rows)))
            assert len(rows) > 0, "unreachable: empty support during sampling"
            return n_right / len(rows)
        j = n.pred.feature
        r = support.restrictions[j]
        r_t = r.intersect(tree.supports[n.right].restrictions[j])
        r_f = r.intersect(tree.supports[n.left].restrictions[j])
        u_node = self._node_umass[t_idx]
        return approx_branch_prob(
            uniform_mass(self.schema, support.replace(j, r_t)),
            u_node[n.right],
            uniform_mass(self.schema, support.replace(j, r_f)),
            u_node[n.left],
            self.arc_p[t_idx][node],
            r_t,
            r_f,
        )

    # -- the cached walk -----------------------------------------------------

    def walk_root(self) -> WalkNode:
        """First branching node (or the only cell) of the sampler's walk in
        iterative tree order, built on first use. The walk is a fixed
        function of the model. In GF mode every branching node splits a
        non-empty row set into two non-empty parts, so the walk never holds
        more than m - 1 branching nodes and m cells; an EOGT walk stores at
        most ``WALK_NODE_CAP`` nodes."""
        if self._walk_root is None:
            with self._lazy_lock:
                if self._walk_root is None:
                    rows = np.arange(self.dataset.m) if self.mode == "gf" else None
                    root = self._walk_run(0, 0, Support.full(self.schema), rows, 1.0, {})
                    self._walk_store(root)
                    self._walk_root = root
        return self._walk_root

    def walk_child(self, node: WalkNode, right: bool) -> WalkNode:
        """The left or right child of a branching walk node: the stored one,
        expanded on first use under the forest's lock, or, once the EOGT walk
        is full, that side's run built anew and not stored, so that memory
        stays bounded whatever the traffic. A node still without children
        when the walk is full never gets them, so its support stays in
        place."""
        children = node.children
        if children is None:
            with self._lazy_lock:
                if node.children is None and not self._walk_full:
                    self._walk_expand(node)
                children = node.children
            if children is None:
                return self._walk_side(node, right, None)
        return children[right]

    def walk_cells(self, observed) -> list[WalkNode]:
        """Terminal cells of the walk whose support holds the observed values
        (``observed[j]`` a raw value, or None), depth first with the right
        side first: every cell the sampler reaches with a non-zero coin at
        each step. A forced run is kept iff its end support holds the
        observed values of the features it split on: restrictions only
        shrink along a path, so this is the test of every step's
        restriction."""
        out = []
        stack = [self.walk_root()]
        while stack:
            node = stack.pop()
            for j, r in node.checks:
                x = observed[j]
                if x is not None and not r.contains(x):
                    break
            else:
                if node.p is None:
                    out.append(node)
                else:
                    # (left, right): the right side is explored first
                    stack.extend(node.children or (self.walk_child(node, False), self.walk_child(node, True)))
        return out

    def describe(self) -> dict:
        """Model and walk size: the mode, the number of trees, the leaves per
        tree, the branching nodes and cells the walk stores, and whether the
        walk is full (only an EOGT walk has a cap). One dict, so that a
        caller such as a stats report reads the model's size in one call."""
        with self._lazy_lock:
            branching, cells = self._walk_sizes
            full = self._walk_full
        return {
            "mode": self.mode,
            "trees": self.T,
            "leaves": self.leaf_count_summary(),
            "walk_branching_nodes": branching,
            "walk_cells": cells,
            "walk_full": full,
        }

    def _walk_store(self, *nodes: WalkNode) -> None:
        for node in nodes:
            self._walk_sizes[node.p is None] += 1
        # full: one more expansion would take an EOGT walk past the cap
        self._walk_full = self.mode == "eogt" and sum(self._walk_sizes) + 2 > WALK_NODE_CAP

    def _walk_expand(self, node: WalkNode) -> None:
        rows = node.rows
        if rows is None:
            sides = (None, None)
        else:
            right = self.node_member_mask(node.t_idx, self.trees[node.t_idx].nodes[node.node].right, rows)
            sides = (rows[~right], rows[right])
        children = tuple(self._walk_side(node, go_right, side) for go_right, side in enumerate(sides))
        # readers look at node.children without the lock: attach the children
        # before the count can mark the walk full, and drop the support (only
        # cells need one; the rows live on in the children) last, so that a
        # node seen without children still has its support
        node.children = children
        self._walk_store(*children)
        node.support = node.rows = None

    def _walk_side(self, node: WalkNode, right: bool, rows: np.ndarray | None) -> WalkNode:
        """The run from one child of a branching walk node, given the training
        rows on that side (None in EOGT mode). Its mass is the fraction of
        rows on that side (GF) or the node's mass times that side's coin
        (EOGT); the forced steps after it multiply it by exactly 1.0."""
        tree = self.trees[node.t_idx]
        n = tree.nodes[node.node]
        child = n.right if right else n.left
        j = n.pred.feature
        r = node.support.restrictions[j].intersect(tree.supports[child].restrictions[j])
        if rows is None:
            mass = node.mass * (node.p if right else 1.0 - node.p)
        else:
            mass = len(rows) / self.dataset.m
        return self._walk_run(node.t_idx, child, node.support.replace(j, r), rows, mass, {j: r})

    def _walk_run(self, t_idx, node, sup, rows, mass, checks) -> WalkNode:
        """Follow the forced steps, whose coin is 0 or 1, from a sampler state
        to the next branching node or to the cell where every tree sits at a
        leaf."""
        skip = 0
        while t_idx < self.T:
            tree = self.trees[t_idx]
            n = tree.nodes[node]
            if n.is_leaf:
                t_idx, node = t_idx + 1, tree.root  # every tree's root is node 0
                continue
            p = self.branch_prob(t_idx, node, sup, rows)
            if 0.0 < p < 1.0:
                return WalkNode(t_idx, node, p, mass, skip, tuple(checks.items()), sup, rows)
            child = n.right if p else n.left
            j = n.pred.feature
            r = sup.restrictions[j].intersect(tree.supports[child].restrictions[j])
            sup = sup.replace(j, r)
            checks[j] = r
            skip += 1
            node = child
        return WalkNode(t_idx, -1, None, mass, skip, tuple(checks.items()), sup, None)

    # -- density -------------------------------------------------------------

    def domain_volume(self) -> float:
        vol = 1.0
        for dom in self.schema.domains:
            if dom.kind == CATEGORICAL:
                vol *= len(dom.categories)
            elif dom.kind == INTEGER:
                vol *= dom.n_values()
            else:
                width = dom.hi - dom.lo
                vol *= width if width > 0 else 1.0
        return vol

    def density(self, values) -> tuple[float, bool]:
        """Piecewise-uniform density at a complete observation, w.r.t. the
        natural product measure. Returns (value, point_mass_flag); for a
        zero-volume cell the cell probability itself is returned. The cell
        and its mass come from the cached walk, where a complete point passes
        at most one child of each branching node."""
        full = Support.full(self.schema)
        for name, r, x in zip(self.schema.names, full.restrictions, values):
            if not r.contains(x):
                raise ValueError(f"{name}={x!r} lies outside the learned domain")
        cells = self.walk_cells(values)
        if cells:
            (cell,) = cells
            p_cell, sup = cell.mass, cell.support
        else:
            # a cell of zero mass is not on the walk
            p_cell, sup = 0.0, full
            for t in self.trees:
                sup = sup.intersect(t.supports[t.leaf_of(values)])
        volume = uniform_mass(self.schema, sup) * self.domain_volume()
        if volume == 0.0:
            return p_cell, True
        return p_cell / volume, False

    # -- conversions / summaries --------------------------------------------

    def to_eogt(self) -> "GenerativeForest":
        """Annotate every internal node with its empirical right-branch
        probability and drop the dataset binding."""
        if self.mode != "gf":
            return GenerativeForest(self.schema, self.trees, self.pi, "eogt", arc_p=self.arc_p)
        arc_p = []
        for t_idx, tree in enumerate(self.trees):
            probs = {}
            counts = self._node_counts(t_idx)
            for i, n in enumerate(tree.nodes):
                if n.is_leaf:
                    continue
                parent = counts[i]
                assert parent > 0, "internal node with zero training mass"
                probs[i] = counts[n.right] / parent
            arc_p.append(probs)
        return GenerativeForest(self.schema, self.trees, self.pi, "eogt", arc_p=arc_p)

    def _node_counts(self, t_idx: int) -> dict[int, int]:
        """Per-node assigned row counts: leaf row lists are disjoint, so every
        internal count is the sum over its descendant leaves."""
        tree = self.trees[t_idx]
        per_tree = self.leaf_rows[t_idx]
        counts = {}
        for i in range(len(tree.nodes)):
            if tree.nodes[i].is_leaf:
                counts[i] = len(per_tree.get(i, ()))
        for i in range(len(tree.nodes) - 1, -1, -1):
            n = tree.nodes[i]
            if not n.is_leaf:
                counts[i] = counts[n.left] + counts[n.right]
        return counts

    def leaf_count_summary(self) -> list[int]:
        return [t.n_leaves() for t in self.trees]

    # -- serialization -------------------------------------------------------

    def save(self, path) -> None:
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "mode": self.mode,
            "pi": self.pi,
            "schema": _schema_to_doc(self.schema),
            "trees": [_tree_to_doc(t) for t in self.trees],
        }
        if self.mode == "eogt":
            doc["arc_p"] = [{str(i): p for i, p in probs.items()} for probs in self.arc_p]
        else:
            doc["data_hash"] = self.dataset.content_hash()
            doc["leaf_rows"] = [
                {str(l): rows.tolist() for l, rows in per_tree.items()} for per_tree in self.leaf_rows
            ]
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path, dataset: Dataset | None = None) -> "GenerativeForest":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read model {path}: {e}") from e
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT or doc.get("version") != MODEL_VERSION:
            raise DataError("not a recognized model file")
        try:
            return cls._from_doc(doc, dataset)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            what = f"missing key {e}" if isinstance(e, KeyError) else f"{type(e).__name__}: {e}"
            raise DataError(f"malformed model {path}: {what}") from e

    @classmethod
    def _from_doc(cls, doc: dict, dataset: Dataset | None) -> "GenerativeForest":
        schema = _schema_from_doc(doc["schema"])
        trees = [_tree_from_doc(schema, td) for td in doc["trees"]]
        if doc["mode"] == "eogt":
            arc_p = [{int(i): p for i, p in probs.items()} for probs in doc["arc_p"]]
            if len(arc_p) != len(trees) or any(
                set(probs) != {i for i, n in enumerate(t.nodes) if not n.is_leaf} for t, probs in zip(trees, arc_p)
            ):
                raise DataError("arc probabilities do not match the internal nodes of the trees")
            return cls(schema, trees, pi=doc["pi"], mode="eogt", arc_p=arc_p)
        if dataset is None:
            raise DataError("gf model requires the training dataset")
        if dataset.content_hash() != doc["data_hash"]:
            raise DataError("training data hash mismatch: dataset changed since the model was saved")
        leaf_rows = [{int(l): _row_array(rows) for l, rows in per_tree.items()} for per_tree in doc["leaf_rows"]]
        _check_leaf_rows(trees, leaf_rows, dataset.m)
        return cls(schema, trees, pi=doc["pi"], mode="gf", dataset=dataset, leaf_rows=leaf_rows)


def _row_array(rows) -> np.ndarray:
    arr = np.asarray(rows)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise DataError("leaf rows must be lists of row indices")
    return arr.astype(np.int64)


def _check_leaf_rows(trees: list[Tree], leaf_rows: list[dict[int, np.ndarray]], m: int) -> None:
    """Each tree binds rows to its own leaves only, and its leaf row lists
    partition the m training rows (the walk's row -> leaf arrays read every
    row's leaf)."""
    if len(leaf_rows) != len(trees):
        raise DataError(f"{len(leaf_rows)} leaf row maps for {len(trees)} trees")
    for t_idx, (tree, per_tree) in enumerate(zip(trees, leaf_rows)):
        for leaf in per_tree:
            if not (0 <= leaf < len(tree.nodes) and tree.nodes[leaf].is_leaf):
                raise DataError(f"tree {t_idx}: rows bound to node {leaf}, which is not a leaf")
        rows = np.concatenate([np.empty(0, dtype=np.int64), *per_tree.values()])
        if len(rows) != m or not np.array_equal(np.sort(rows), np.arange(m)):
            raise DataError(f"tree {t_idx}: leaf rows do not partition the {m} training rows")


def _schema_to_doc(schema: Schema) -> dict:
    feats = []
    for name, dom in schema:
        if dom.kind == CATEGORICAL:
            feats.append({"name": name, "kind": dom.kind, "categories": list(dom.categories)})
        else:
            feats.append({"name": name, "kind": dom.kind, "lo": dom.lo, "hi": dom.hi})
    return {"features": feats}


def _schema_from_doc(doc: dict) -> Schema:
    names, domains = [], []
    for f in doc["features"]:
        names.append(f["name"])
        if f["kind"] == CATEGORICAL:
            domains.append(FeatureDomain(CATEGORICAL, categories=tuple(f["categories"])))
        else:
            domains.append(FeatureDomain(f["kind"], lo=f["lo"], hi=f["hi"]))
    return Schema(tuple(names), tuple(domains))


def _tree_to_doc(tree: Tree) -> dict:
    nodes = []
    for n in tree.nodes:
        if n.is_leaf:
            nodes.append({"leaf": True})
        else:
            nd = {
                "leaf": False,
                "feature": n.pred.feature,
                "left": n.left,
                "right": n.right,
            }
            if n.pred.threshold is not None:
                nd["threshold"] = n.pred.threshold
            else:
                nd["subset"] = sorted(n.pred.subset)
            nodes.append(nd)
    return {"nodes": nodes}


def _tree_from_doc(schema: Schema, doc: dict) -> Tree:
    """Replay the saved splits in the order they were made. ``Tree.split``
    numbers the two children of each split consecutively after all earlier
    nodes, so splitting in increasing left-child id gives back the saved node
    ids, which ``leaf_rows`` and ``arc_p`` are keyed by."""
    tree = Tree(schema)
    raw = doc["nodes"]
    for left, i in sorted((nd["left"], i) for i, nd in enumerate(raw) if not nd["leaf"]):
        nd = raw[i]
        if not (i < left == len(tree.nodes) and nd["right"] == left + 1):
            raise DataError(f"node {i}: children ({left}, {nd['right']}) are not a valid split sequence")
        pred = SplitPredicate(
            feature=nd["feature"],
            threshold=nd.get("threshold"),
            subset=frozenset(nd["subset"]) if "subset" in nd else None,
        )
        try:
            tree.split(i, pred)
        except ValueError as e:
            raise DataError(f"node {i}: cannot replay its split: {e}") from e
    if len(tree.nodes) != len(raw):
        raise DataError("tree nodes do not match its splits")
    return tree
