"""Trees, generative forests, the cross-tree partition, density queries and
model (de)serialization."""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, prod

import numpy as np

from .data import CATEGORICAL, INTEGER, REAL, DataError, Dataset, FeatureDomain, Schema
from .measure import (
    CatSubset,
    IntRange,
    NumericInterval,
    Restriction,
    Support,
    restriction_uniform_fraction,
    uniform_mass,
)

MODEL_FORMAT = "genforest-model"
# version 1 files also stored the training rows of every leaf, which
# loading does not read: the splits send the rows to their leaves
MODEL_VERSION = 2

# a forest is bound to its training data (GF) or to per-arc branch
# probabilities (EOGT)
MODES = ("gf", "eogt")

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

    def sends_right(self, dom: FeatureDomain, col: np.ndarray) -> np.ndarray:
        """Which of the feature's values ``col``, without missing ones (a
        routing column), the split sends right: the rule that training routes
        rows by and the GF walk splits them by. A categorical feature looks its
        codes up in a 0/1 table, one gather per value."""
        if self.subset is None:
            return col > self.threshold
        return _code_table(self.subset, len(dom.categories))[col]


@lru_cache(maxsize=4096)
def _code_table(subset: frozenset[int], n_codes: int) -> np.ndarray:
    """Read-only 0/1 table over a categorical feature's codes, true on
    ``subset``."""
    table = np.zeros(n_codes, dtype=bool)
    table[list(subset)] = True
    table.setflags(write=False)
    return table


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
        j = pred.feature
        if type(j) is not int or not 0 <= j < self.schema.d:
            raise ValueError(f"feature {j!r} is not an int in 0..{self.schema.d - 1}")
        if pred.threshold is not None and not (isinstance(pred.threshold, float) and isfinite(pred.threshold)):
            raise ValueError(f"threshold {pred.threshold!r} is not a finite float")
        sup = self.supports[leaf]
        dom = self.schema.domains[j]
        if (pred.subset is None) == (dom.kind == CATEGORICAL):
            raise ValueError(f"a {dom.kind} feature splits on a {'subset' if dom.kind == CATEGORICAL else 'threshold'}")
        if pred.subset is not None and not all(type(c) is int and 0 <= c < len(dom.categories) for c in pred.subset):
            raise ValueError("subset holds a code outside the feature's categories")
        parent_r = sup.restrictions[j]
        left_r = child_restriction(dom, parent_r, pred, right=False)
        right_r = child_restriction(dom, parent_r, pred, right=True)
        if left_r.is_empty() or right_r.is_empty():
            raise ValueError("split produces an empty child support")
        li, ri = len(self.nodes), len(self.nodes) + 1
        self.nodes.append(_Node())
        self.nodes.append(_Node())
        self.supports.append(sup.replace(j, left_r))
        self.supports.append(sup.replace(j, right_r))
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
    ``walk_cells``. Until it is expanded, a branching node holds its
    ``support``, its per-feature uniform ``fracs`` (EOGT) or its training
    ``rows`` split into the (left, right) sides of its split (GF), and the
    split feature's restriction on both ``sides`` from its coin; then
    ``children`` is its (left, right) pair."""

    __slots__ = ("t_idx", "node", "p", "mass", "skip", "checks", "support", "fracs", "rows", "sides", "children")

    def __init__(self, t_idx, node, p, mass, skip, checks, support, fracs, rows, sides):
        self.t_idx = t_idx
        self.node = node
        self.p = p
        self.mass = mass
        self.skip = skip
        self.checks = checks
        self.support = support
        self.fracs = fracs
        self.rows = rows
        self.sides = sides
        self.children = None


class GenerativeForest:
    """A set of consistent trees bound either to the training data (GF mode)
    or to per-arc empirical branch probabilities (EOGT mode). In GF mode
    ``leaf_rows[t][leaf]`` holds, in increasing order, the training rows that
    the splits of tree ``t`` send to ``leaf``, for every leaf; in EOGT mode
    ``leaf_rows`` is None."""

    def __init__(
        self,
        schema: Schema,
        trees: list[Tree],
        pi: float = 0.5,
        mode: str = "gf",
        dataset: Dataset | None = None,
        arc_p: list[dict[int, float]] | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"bad mode {mode!r}")
        if not 0 < pi < 1:
            raise ValueError("pi must be in (0, 1)")
        self.schema = schema
        self.trees = trees
        self.pi = pi
        self.mode = mode
        self.dataset = dataset
        self.arc_p = arc_p
        # the walk tree, built lazily by walk_root / walk_child. The walk's
        # stored (branching nodes, cells), and whether an EOGT walk is full,
        # change only under the lock
        self._lazy_lock = threading.Lock()
        self._walk_root: WalkNode | None = None
        self._walk_sizes = [0, 0]
        self._walk_full = False
        if mode == "gf":
            if dataset is None:
                raise ValueError("gf mode needs the dataset binding")
            self.leaf_rows = [_route_rows(t, dataset) for t in trees]
        else:
            if arc_p is None:
                raise ValueError("eogt mode needs arc probabilities")
            self.leaf_rows = None
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

    def node_member_mask(self, t_idx: int, node: int, rows: np.ndarray) -> np.ndarray:
        """Which of the training ``rows``, all under internal ``node`` of tree
        ``t_idx``, its split sends right, read off the routing columns as
        training routed them. GF mode only."""
        pred = self.trees[t_idx].nodes[node].pred
        j = pred.feature
        return pred.sends_right(self.schema.domains[j], self.dataset.routing_columns()[j][rows])

    def branch_prob(self, t_idx: int, node: int, support: Support, rows: np.ndarray | None) -> float:
        """Probability of taking the right branch at internal ``node`` of tree
        ``t_idx`` given the current support, which lies inside the node's,
        and, in GF mode, the rows still compatible with it: the coin of
        ``_coin``."""
        return self._coin(t_idx, node, support, self._fractions(support), rows)[0]

    def _fractions(self, sup: Support) -> tuple[float, ...]:
        """Per-feature uniform fractions of a support, which ``uniform_mass``
        multiplies."""
        return tuple(restriction_uniform_fraction(d, r) for d, r in zip(self.schema.domains, sup.restrictions))

    def _coin(self, t_idx: int, node: int, sup: Support, fracs: tuple[float, ...] | None, rows: np.ndarray | None):
        """The coin at internal ``node`` of tree ``t_idx`` given the support,
        the split feature's restriction on the (left, right) sides, and,
        where a GF coin counts them, which of the training ``rows``
        compatible with the support the split sends right (else None).

        The support lies inside the node's, which its children tile, so its
        intersection with a child differs from it on the split feature alone.
        A side that the support misses holds no compatible row and forces
        the coin to the other side, whose restriction is the support's own.
        Else the coin is the fraction of the rows sent right (GF), or the
        uniform-corrected arc probability p_U[C_t|X_r] p / (p_U[C_t|X_r] p +
        p_U[C_f|X_l] (1 - p)) (EOGT), each side's uniform mass the product of
        the support's ``fracs`` in feature order with the split feature's
        replaced: ``uniform_mass``'s product, to the last bit, as they are
        finite and non-negative. Below a zero-width cell, where both
        corrected masses are 0, it is the arc probability."""
        tree = self.trees[t_idx]
        n = tree.nodes[node]
        j = n.pred.feature
        r = sup.restrictions[j]
        r_t = r.intersect(tree.supports[n.right].restrictions[j])
        if r_t.is_empty():
            return 0.0, (r, r_t), None
        r_f = r.intersect(tree.supports[n.left].restrictions[j])
        if r_f.is_empty():
            return 1.0, (r_f, r_t), None
        if rows is not None:
            mask = self.node_member_mask(t_idx, node, rows)
            return int(np.count_nonzero(mask)) / len(rows), (r_f, r_t), mask
        dom = self.schema.domains[j]
        head, tail = prod(fracs[:j]), fracs[j + 1:]
        u_t = prod(tail, start=head * restriction_uniform_fraction(dom, r_t))
        u_f = prod(tail, start=head * restriction_uniform_fraction(dom, r_f))
        u_node, p_arc = self._node_umass[t_idx], self.arc_p[t_idx][node]
        qt = (u_t / u_node[n.right]) * p_arc if u_node[n.right] > 0 else 0.0
        qf = (u_f / u_node[n.left]) * (1.0 - p_arc) if u_node[n.left] > 0 else 0.0
        denom = qt + qf
        return (qt / denom if denom > 0 else p_arc), (r_f, r_t), None

    def _narrowed(self, sup: Support, fracs, j: int, r: Restriction):
        """The support with feature ``j`` restricted to ``r``, and its
        fractions (None in GF mode); the same objects if ``r`` is already
        feature ``j``'s restriction."""
        if r is sup.restrictions[j]:
            return sup, fracs
        if fracs is not None:
            fracs = fracs[:j] + (restriction_uniform_fraction(self.schema.domains[j], r),) + fracs[j + 1:]
        return sup.replace(j, r), fracs

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
                    full = Support.full(self.schema)
                    if self.mode == "gf":
                        rows, fracs = np.arange(self.dataset.m), None
                    else:
                        rows, fracs = None, self._fractions(full)
                    root = self._walk_run(0, 0, full, fracs, rows, 1.0, {})
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
        restriction. A side not yet stored is built only if its tree support
        on the split feature holds the observed value; a side that misses it
        fails its first check."""
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
                elif node.children is not None:
                    # (left, right): the right side is explored first
                    stack.extend(node.children)
                else:
                    # the same order, building only the sides that can hold x
                    tree = self.trees[node.t_idx]
                    n = tree.nodes[node.node]
                    x = observed[n.pred.feature]
                    for right, child in ((False, n.left), (True, n.right)):
                        if x is None or tree.supports[child].restrictions[n.pred.feature].contains(x):
                            stack.append(self.walk_child(node, right))
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
        rows = node.rows or (None, None)
        children = tuple(self._walk_side(node, go_right, side) for go_right, side in enumerate(rows))
        # readers look at node.children without the lock: attach the children
        # before the count can mark the walk full, and drop what only the
        # expansion reads (only cells need a support; the rows live on in the
        # children) last, so that a node seen without children still has it
        node.children = children
        self._walk_store(*children)
        node.support = node.fracs = node.rows = node.sides = None

    def _walk_side(self, node: WalkNode, right: bool, rows: np.ndarray | None) -> WalkNode:
        """The run from one side of a branching walk node, given its training
        rows (None in EOGT mode) and its restriction from the node's coin. Its
        mass is the fraction of rows on that side (GF) or the node's mass
        times that side's coin (EOGT); forced steps multiply it by exactly 1.0."""
        n = self.trees[node.t_idx].nodes[node.node]
        j, r = n.pred.feature, node.sides[right]
        if rows is None:
            mass = node.mass * (node.p if right else 1.0 - node.p)
        else:
            mass = len(rows) / self.dataset.m
        sup, fracs = self._narrowed(node.support, node.fracs, j, r)
        return self._walk_run(node.t_idx, n.right if right else n.left, sup, fracs, rows, mass, {j: r})

    def _walk_run(self, t_idx, node, sup, fracs, rows, mass, checks) -> WalkNode:
        """Follow the forced steps, whose coin is 0 or 1, from a sampler state
        to the next branching node or to the cell where every tree sits at a
        leaf. Both modes settle a step by ``_coin``: a support that misses a
        side of the split forces the step before any row is masked or mass
        computed. A run carries its support's uniform fractions (EOGT) or its
        compatible training rows (GF), and a step takes the side's
        restriction that its coin computed."""
        trees, skip = self.trees, 0
        while t_idx < len(trees):
            tree = trees[t_idx]
            n = tree.nodes[node]
            if n.is_leaf:
                t_idx, node = t_idx + 1, tree.root  # every tree's root is node 0
                continue
            p, sides, mask = self._coin(t_idx, node, sup, fracs, rows)
            if 0.0 < p < 1.0:
                # a GF node keeps its rows split by side, for its expansion
                split = None if mask is None else (rows[~mask], rows[mask])
                return WalkNode(t_idx, node, p, mass, skip, tuple(checks.items()), sup, fracs, split, sides)
            right = bool(p)
            j, r = n.pred.feature, sides[right]
            sup, fracs = self._narrowed(sup, fracs, j, r)
            checks[j] = r
            skip += 1
            node = n.right if right else n.left
        return WalkNode(t_idx, -1, None, mass, skip, tuple(checks.items()), sup, fracs, None, None)

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
        self.schema.check_row(values, complete=True)
        cells = self.walk_cells(values)
        if cells:
            (cell,) = cells
            p_cell, sup = cell.mass, cell.support
        elif not any(d.kind == REAL and d.lo < d.hi and x == d.lo for d, x in zip(self.schema.domains, values)):
            # a cell of zero mass is not on the walk. The only closed lower
            # end a real restriction has is its domain's, so away from those
            # ends the cell is wider than a point on every real feature, and
            # it holds the point's integer value and category: its volume is
            # positive, and the other trees need not be descended
            return 0.0, False
        else:
            p_cell, sup = 0.0, Support.full(self.schema)
            for t in self.trees:
                sup = sup.intersect(t.supports[t.leaf_of(values)])
        volume = uniform_mass(self.schema, sup) * self.domain_volume()
        if volume == 0.0:
            return p_cell, True
        return p_cell / volume, False

    # -- conversions / summaries --------------------------------------------

    def to_eogt(self) -> "GenerativeForest":
        """Annotate every internal node with its empirical right-branch
        probability and drop the dataset binding. An internal node without
        training rows, which only an edited model file can hold, has no such
        probability and raises ``DataError``."""
        if self.mode != "gf":
            return GenerativeForest(self.schema, self.trees, self.pi, "eogt", arc_p=self.arc_p)
        arc_p = []
        for t_idx, tree in enumerate(self.trees):
            probs = {}
            counts = self._node_counts(t_idx)
            for i, n in enumerate(tree.nodes):
                if n.is_leaf:
                    continue
                if counts[i] == 0:
                    raise DataError(
                        f"tree {t_idx}: internal node {i} holds no training rows, so it has no arc probability"
                    )
                probs[i] = counts[n.right] / counts[i]
            arc_p.append(probs)
        return GenerativeForest(self.schema, self.trees, self.pi, "eogt", arc_p=arc_p)

    def _node_counts(self, t_idx: int) -> dict[int, int]:
        """Per-node assigned row counts: leaf row lists are disjoint, so every
        internal count is the sum over its descendant leaves."""
        tree = self.trees[t_idx]
        counts = {leaf: len(rows) for leaf, rows in self.leaf_rows[t_idx].items()}
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
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise DataError("not a recognized model file")
        version = doc.get("version")
        if type(version) is not int or not 1 <= version <= MODEL_VERSION:
            raise DataError(
                f"model version {version!r} is not supported: this program reads versions 1 to {MODEL_VERSION}"
            )
        try:
            return cls._from_doc(doc, dataset)
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as e:
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
        return cls(schema, trees, pi=doc["pi"], mode="gf", dataset=dataset)


def _route_rows(tree: Tree, dataset: Dataset) -> dict[int, np.ndarray]:
    """The training rows that the splits of ``tree`` send to each of its
    leaves, by leaf id, on the routing columns as training routed them. A
    node's children are numbered after it, so one pass in node order routes
    every row to its leaf."""
    route = dataset.routing_columns()
    at = {tree.root: np.arange(dataset.m)}
    for i, n in enumerate(tree.nodes):
        if not n.is_leaf:
            rows = at.pop(i)
            right = n.pred.sends_right(tree.schema.domains[n.pred.feature], route[n.pred.feature][rows])
            at[n.left], at[n.right] = rows[~right], rows[right]
    return {leaf: at[leaf] for leaf in sorted(at)}


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
    ids, which ``arc_p`` is keyed by."""
    tree = Tree(schema)
    raw = doc["nodes"]
    for left, i in sorted((nd["left"], i) for i, nd in enumerate(raw) if not nd["leaf"]):
        nd = raw[i]
        if not (i < left == len(tree.nodes) and nd["right"] == left + 1):
            raise DataError(f"node {i}: children ({left}, {nd['right']}) are not a valid split sequence")
        try:
            pred = SplitPredicate(
                feature=nd["feature"],
                threshold=nd.get("threshold"),
                subset=frozenset(nd["subset"]) if "subset" in nd else None,
            )
            tree.split(i, pred)
        except (TypeError, ValueError) as e:
            raise DataError(f"node {i}: cannot replay its split: {e}") from e
    if len(tree.nodes) != len(raw):
        raise DataError("tree nodes do not match its splits")
    return tree
