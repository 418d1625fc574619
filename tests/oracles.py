"""Reference implementations the tests compare the program against: a
forest's cell of a complete point found by descending every tree, GF rows
taken from m-long per-node masks of support containment (not from the
split predicates that the program routes rows by), the EOGT branch
probability from full support intersections, the EOGT cell probability
chained along the leaf paths, the per-step sampler (one star update per
tree step) and generation with it, the leaf tuples of the cross-tree
partition built by the sequential chop over trees, the exact law of the
sampler's final cell in either tree order, row membership of a restriction
with missing values as wildcards, and the empirical masses, losses and
split deltas that the training objective is checked with."""

from dataclasses import dataclass

import numpy as np

from genforest.data import CATEGORICAL, MISSING_CODE, Dataset, FeatureDomain
from genforest.forest import GenerativeForest, SplitPredicate, Tree
from genforest.imputer import ConditionalTuple
from genforest.measure import IntRange, LossSpec, Restriction, Support, cell_risk, uniform_mass
from genforest.sampler import draw_uniform
from genforest.trainer import _affected_cells, _score_categorical, _score_numeric, _subset_rows

PARTITION_CAP_DEFAULT = 10**6


class PartitionSizeError(RuntimeError):
    """Cross-tree partition exceeded the configured element cap."""


@dataclass
class PartitionElement:
    leaf_ids: tuple[int, ...]
    support: Support
    count: int | None
    umass: float
    rows: np.ndarray | None = None


@dataclass
class SamplerState:
    """One in-flight observation of the per-step sampler: current
    intersection support, per-tree position, and (GF mode) the row indices
    still compatible."""

    support: Support
    positions: list[int]
    rows: np.ndarray | None


def init_sampling(forest: GenerativeForest) -> SamplerState:
    rows = np.arange(forest.dataset.m) if forest.mode == "gf" else None
    return SamplerState(
        support=Support.full(forest.schema),
        positions=[t.root for t in forest.trees],
        rows=rows,
    )


def descend(forest: GenerativeForest, state: SamplerState, t_idx: int, child: int) -> None:
    """Move tree ``t_idx`` to ``child`` of its current node and shrink the
    support (and the GF rows) accordingly. In place."""
    tree = forest.trees[t_idx]
    j = tree.nodes[state.positions[t_idx]].pred.feature
    new_r = state.support.restrictions[j].intersect(tree.supports[child].restrictions[j])
    if state.rows is not None:
        state.rows = state.rows[node_mask(forest, t_idx, child)[state.rows]]
    state.support = state.support.replace(j, new_r)
    state.positions[t_idx] = child


def path_to(tree: Tree, leaf: int) -> list[int]:
    """Node ids from root (exclusive) down to ``leaf`` (inclusive)."""
    parents = {}
    for i, n in enumerate(tree.nodes):
        if not n.is_leaf:
            parents[n.left] = i
            parents[n.right] = i
    path = []
    cur = leaf
    while cur != tree.root:
        path.append(cur)
        cur = parents[cur]
    return path[::-1]


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


def node_mask(forest: GenerativeForest, t_idx: int, node: int) -> np.ndarray:
    """m-long mask of the training rows under ``node`` of tree ``t_idx``: the
    rows whose routing values lie in the node's support."""
    mask = np.ones(forest.dataset.m, dtype=bool)
    restrictions = forest.trees[t_idx].supports[node].restrictions
    for dom, r, col in zip(forest.schema.domains, restrictions, forest.dataset.routing_columns()):
        mask &= restriction_mask(dom, r, col)
    return mask


def partition_element_of(forest: GenerativeForest, values) -> PartitionElement:
    """The unique partition element containing a complete observation."""
    if not Support.full(forest.schema).contains(values):
        raise ValueError("observation outside the learned domain")
    leaf_ids = tuple(t.leaf_of(values) for t in forest.trees)
    sup = Support.full(forest.schema)
    for t, l in zip(forest.trees, leaf_ids):
        sup = sup.intersect(t.supports[l])
    if forest.mode == "gf":
        member = np.ones(forest.dataset.m, dtype=bool)
        for t_idx, leaf in enumerate(leaf_ids):
            member &= node_mask(forest, t_idx, leaf)
        rows = np.flatnonzero(member)
    else:
        rows = None
    return PartitionElement(
        leaf_ids=leaf_ids,
        support=sup,
        count=len(rows) if rows is not None else None,
        umass=uniform_mass(forest.schema, sup),
        rows=rows,
    )


def eogt_branch_prob(forest: GenerativeForest, t_idx: int, node: int, support: Support) -> float:
    """The uniform-corrected right-branch probability at internal ``node``
    of tree ``t_idx``, p_U[C_t|X_r] p / (p_U[C_t|X_r] p + p_U[C_f|X_l] (1 - p)),
    from the support's full intersections C_t and C_f with the right and
    left children and every uniform mass computed anew. Where both corrected
    masses are 0 (below a zero-width cell): the arc probability if both
    intersections are non-empty, else the side that is."""
    tree = forest.trees[t_idx]
    n = tree.nodes[node]
    p_arc = forest.arc_p[t_idx][node]
    c_t = support.intersect(tree.supports[n.right])
    c_f = support.intersect(tree.supports[n.left])
    u_right = uniform_mass(forest.schema, tree.supports[n.right])
    u_left = uniform_mass(forest.schema, tree.supports[n.left])
    qt = (uniform_mass(forest.schema, c_t) / u_right) * p_arc if u_right > 0 else 0.0
    qf = (uniform_mass(forest.schema, c_f) / u_left) * (1.0 - p_arc) if u_left > 0 else 0.0
    denom = qt + qf
    if denom > 0:
        return qt / denom
    if c_t.is_empty():
        return 0.0
    return 1.0 if c_f.is_empty() else p_arc


def step_coin(forest: GenerativeForest, state: SamplerState, t_idx: int) -> float:
    """The per-step sampler's coin at the current node of tree ``t_idx``:
    the fraction of the state's rows under the right child's stored leaf
    rows (GF), or ``eogt_branch_prob`` (EOGT)."""
    node = state.positions[t_idx]
    if forest.mode == "gf":
        right = forest.trees[t_idx].nodes[node].right
        return int(np.count_nonzero(node_mask(forest, t_idx, right)[state.rows])) / len(state.rows)
    return eogt_branch_prob(forest, t_idx, node, state.support)


def eogt_cell_prob(forest: GenerativeForest, values) -> float:
    """Probability the approximate sampler lands in the cell of ``values``,
    following the deterministic iterative tree order."""
    cur = Support.full(forest.schema)
    prob = 1.0
    for t_idx, tree in enumerate(forest.trees):
        node = tree.root
        while not tree.nodes[node].is_leaf:
            n = tree.nodes[node]
            j = n.pred.feature
            p_hat = eogt_branch_prob(forest, t_idx, node, cur)
            go_right = tree.supports[n.right].restrictions[j].contains(values[j])
            prob *= p_hat if go_right else (1.0 - p_hat)
            node = n.right if go_right else n.left
            cur = cur.intersect(tree.supports[node])
    return prob


def density(forest: GenerativeForest, values) -> tuple[float, bool]:
    """``GenerativeForest.density`` from the element of ``values``."""
    elem = partition_element_of(forest, values)
    p_cell = elem.count / forest.dataset.m if forest.mode == "gf" else eogt_cell_prob(forest, values)
    volume = elem.umass * forest.domain_volume()
    if volume == 0.0:
        return p_cell, True
    return p_cell / volume, False


def stepping_generate(forest: GenerativeForest, n: int, seed: int) -> list[np.ndarray]:
    """``generate``'s columns from the per-step sampler in iterative tree
    order, with the per-row streams of ``generate``."""
    rows = []
    for stream in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(stream)
        state = init_sampling(forest)
        for t_idx, tree in enumerate(forest.trees):
            while not tree.is_leaf(state.positions[t_idx]):
                node = tree.nodes[state.positions[t_idx]]
                p = step_coin(forest, state, t_idx)
                descend(forest, state, t_idx, node.right if rng.random() < p else node.left)
        rows.append(draw_uniform(forest.schema, state.support, rng))
    return [np.array([r[j] for r in rows], dtype=np.int32 if d.kind == CATEGORICAL else np.float64)
            for j, d in enumerate(forest.schema.domains)]


def leaf_tuples(forest: GenerativeForest, observed=None, prune_empty: bool = False, cap: int = PARTITION_CAP_DEFAULT):
    """Every leaf tuple whose support intersection is non-empty and holds
    the observed values (``observed[j]`` is a raw value, or None where
    unobserved), built by the sequential chop over trees. Returns
    ``(leaf_ids, support, aux)`` triples, where ``aux`` is the training
    rows inside the support (GF) or the chained branch-probability mass
    (EOGT); ``prune_empty`` drops tuples with no rows / zero mass."""
    gf = forest.mode == "gf"
    states = [((), Support.full(forest.schema), np.arange(forest.dataset.m) if gf else 1.0)]
    for t_idx, tree in enumerate(forest.trees):
        nodes, supports = tree.nodes, tree.supports
        new_states = []
        for leaf_ids, sup, aux in states:
            stack = [(tree.root, sup, aux)]
            while stack:
                node_id, cur, cur_aux = stack.pop()
                node = nodes[node_id]
                if node.is_leaf:
                    new_states.append((leaf_ids + (node_id,), cur, cur_aux))
                    if len(new_states) > cap:
                        raise PartitionSizeError(f"partition exceeds cap {cap}")
                    continue
                j = node.pred.feature
                x = None if observed is None else observed[j]
                cur_r = cur.restrictions[j]
                if gf:
                    right = node_mask(forest, t_idx, node.right)[cur_aux]
                    sides = ((node.left, cur_aux[~right]), (node.right, cur_aux[right]))
                else:
                    sides = ((node.left, None), (node.right, None))
                children = []
                for child, child_aux in sides:
                    # GF rows first: an empty row set is the cheapest prune
                    if gf and prune_empty and len(child_aux) == 0:
                        continue
                    child_r = cur_r.intersect(supports[child].restrictions[j])
                    if child_r.is_empty() or (x is not None and not child_r.contains(x)):
                        continue
                    children.append((child, child_r, child_aux))
                if not gf and children:
                    p_hat = eogt_branch_prob(forest, t_idx, node_id, cur)
                for child, child_r, child_aux in children:
                    if not gf:
                        p = p_hat if child == node.right else 1.0 - p_hat
                        if prune_empty and p == 0.0:
                            continue
                        child_aux = cur_aux * p
                    child_sup = cur if child_r is cur_r else cur.replace(j, child_r)
                    stack.append((child, child_sup, child_aux))
        states = new_states
    return states


def conditional_tuples(forest: GenerativeForest, x_partial) -> list[ConditionalTuple]:
    """``imputer.conditional_tuples`` from the pruned leaf tuples."""
    m = forest.dataset.m if forest.mode == "gf" else None
    return [
        ConditionalTuple(sup, len(aux) / m if m else aux)
        for _, sup, aux in leaf_tuples(forest, x_partial, prune_empty=True)
    ]


def enumerate_partition(forest: GenerativeForest, cap: int = PARTITION_CAP_DEFAULT, prune_zero_count: bool = False):
    """All non-empty leaf-tuple support intersections. GF mode attaches
    exact counts and rows (each training row lives in exactly one element,
    per its per-tree leaf assignment)."""
    gf = forest.mode == "gf"
    return [
        PartitionElement(
            leaf_ids=leaf_ids,
            support=sup,
            count=len(aux) if gf else None,
            umass=uniform_mass(forest.schema, sup),
            rows=aux if gf else None,
        )
        for leaf_ids, sup, aux in leaf_tuples(forest, prune_empty=prune_zero_count, cap=cap)
    ]


def expected_depth(forest: GenerativeForest, cap: int = PARTITION_CAP_DEFAULT) -> float:
    """Summed leaf depth over the trees, in expectation over the cells:
    weighted by the empirical mass (GF) or the sampler's mass (EOGT)."""
    gf = forest.mode == "gf"
    return sum(
        (len(aux) / forest.dataset.m if gf else aux)
        * sum(len(path_to(t, l)) for t, l in zip(forest.trees, leaf_ids))
        for leaf_ids, _, aux in leaf_tuples(forest, prune_empty=True, cap=cap)
    )


def full_poprisk(forest: GenerativeForest, loss: LossSpec) -> float:
    """Objective recomputed from scratch over the whole partition (oracle for
    the incremental bookkeeping)."""
    elems = enumerate_partition(forest, prune_zero_count=True)
    m = forest.dataset.m
    return float(sum(cell_risk(loss, e.count / m, e.umass, forest.pi) for e in elems))


def support_distribution(forest: GenerativeForest, order: str = "iterative") -> list[tuple[PartitionElement, float]]:
    """Exact law of the final support under the given update order, obtained
    by branching the sampler walk instead of flipping coins."""
    out: dict[tuple, tuple[PartitionElement, float]] = {}

    def emit(state: SamplerState, prob: float) -> None:
        leaf_ids = tuple(state.positions)
        key = leaf_ids
        if key in out:
            elem, p0 = out[key]
            out[key] = (elem, p0 + prob)
        else:
            elem = PartitionElement(
                leaf_ids=leaf_ids,
                support=state.support,
                count=len(state.rows) if state.rows is not None else None,
                umass=uniform_mass(forest.schema, state.support),
                rows=state.rows,
            )
            out[key] = (elem, prob)

    def walk(state: SamplerState, prob: float) -> None:
        if order == "iterative":
            t_idx = next(
                (i for i, t in enumerate(forest.trees) if not t.is_leaf(state.positions[i])), None
            )
            choices = [] if t_idx is None else [t_idx]
        else:
            choices = [i for i, t in enumerate(forest.trees) if not t.is_leaf(state.positions[i])]
        if not choices:
            emit(state, prob)
            return
        w = 1.0 / len(choices)
        for t_idx in choices:
            tree = forest.trees[t_idx]
            node = tree.nodes[state.positions[t_idx]]
            p = step_coin(forest, state, t_idx)
            for child, pc in ((node.right, p), (node.left, 1.0 - p)):
                if pc == 0.0:
                    continue
                sub = SamplerState(state.support, list(state.positions), state.rows)
                descend(forest, sub, t_idx, child)
                walk(sub, prob * w * pc)

    walk(init_sampling(forest), 1.0)
    return list(out.values())


def element_reach_probability(forest: GenerativeForest, leaf_ids, interleaving) -> float:
    """GF mode: probability of ending at the given leaf tuple when the trees
    advance along their fixed root-to-leaf paths in the order given by
    ``interleaving`` (a sequence of tree indices, one entry per path step)."""
    assert forest.mode == "gf"
    paths = [path_to(t, l) for t, l in zip(forest.trees, leaf_ids)]
    pos = [0] * forest.T
    state = init_sampling(forest)
    prob = 1.0
    for t_idx in interleaving:
        target = paths[t_idx][pos[t_idx]]
        tree = forest.trees[t_idx]
        node = tree.nodes[state.positions[t_idx]]
        p = step_coin(forest, state, t_idx)
        prob *= p if target == node.right else 1.0 - p
        if prob == 0.0:
            return 0.0
        descend(forest, state, t_idx, target)
        pos[t_idx] += 1
    assert all(pos[i] == len(paths[i]) for i in range(forest.T)), "interleaving does not exhaust the paths"
    return prob


def path_interleavings(lengths: list[int]):
    """All sequences of tree indices with the given per-tree multiplicities."""
    total = sum(lengths)

    def rec(counts, prefix):
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                prefix.append(i)
                yield from rec(counts, prefix)
                prefix.pop()
                counts[i] += 1

    yield from rec(list(lengths), [])


def restriction_mask(dom: FeatureDomain, r: Restriction, col: np.ndarray) -> np.ndarray:
    """Vectorized membership (missing = wildcard) of a column slice."""
    if dom.kind == CATEGORICAL:
        missing = col == MISSING_CODE
        if len(r.codes) == len(dom.categories):
            return np.ones(len(col), dtype=bool)
        sel = np.zeros(len(dom.categories), dtype=bool)
        sel[list(r.codes)] = True
        ok = np.zeros(len(col), dtype=bool)
        obs = ~missing
        ok[obs] = sel[col[obs]]
        return ok | missing
    missing = np.isnan(col)
    if isinstance(r, IntRange):
        ok = (col >= r.a) & (col <= r.b)
    else:
        ok = (col > r.lo) if r.lo_open else (col >= r.lo)
        ok &= col <= r.hi
    return ok | missing


def compatible_rows(ds: Dataset, s: Support, rows: np.ndarray | None = None) -> np.ndarray:
    """Indices of rows compatible with the support; a missing value is a
    wildcard compatible with any restriction."""
    if rows is None:
        rows = np.arange(ds.m)
    keep = np.ones(len(rows), dtype=bool)
    for j, (dom, r) in enumerate(zip(ds.schema.domains, s.restrictions)):
        col = ds.columns[j][rows]
        keep &= restriction_mask(dom, r, col)
    return rows[keep]


def empirical_mass(ds: Dataset, s: Support, rows: np.ndarray | None = None) -> float:
    return len(compatible_rows(ds, s, rows)) / ds.m


def mixture_mass(r: float, u: float, pi: float) -> float:
    return pi * r + (1.0 - pi) * u


def poprisk_from_cells(loss: LossSpec, cells, pi: float) -> float:
    """Expected Bayes risk over a full partition given (r, u) mass pairs."""
    r = np.array([c[0] for c in cells])
    u = np.array([c[1] for c in cells])
    return float(np.sum(cell_risk(loss, r, u, pi)))


def partial_loss(loss: LossSpec, y: int, u) -> float:
    """Partial loss of ``loss`` for label ``y`` at prediction ``u``."""
    u = np.asarray(u, dtype=float)
    if loss.name == "square":
        return (1.0 - u) ** 2 if y == 1 else u**2
    if loss.name == "log":
        return -np.log(u) if y == 1 else -np.log(1.0 - u)
    if loss.name == "matusita":
        return np.sqrt((1.0 - u) / u) if y == 1 else np.sqrt(u / (1.0 - u))
    raise ValueError(loss.name)


def g_pi(loss: LossSpec, t, pi: float):
    """Perspective form (pi*t + 1 - pi) * bayes_risk(pi*t / (pi*t + 1 - pi))
    of ``loss``, the Jensen-gap potential of the partition identity."""
    t = np.asarray(t, dtype=float)
    denom = pi * t + (1.0 - pi)
    out = denom * loss.bayes_risk(np.where(denom > 0, pi * t / np.maximum(denom, 1e-300), 0.0))
    return out if out.ndim else float(out)


def risk_delta(forest: GenerativeForest, t_idx: int, leaf: int, pred: SplitPredicate, loss: LossSpec) -> float:
    """Incremental poprisk change of applying ``pred`` at a leaf of a trained
    GF; restricted to the affected cells, exact."""
    rows = forest.leaf_rows[t_idx][leaf]
    tree = forest.trees[t_idx]
    assign = assignment_arrays(forest.leaf_rows, forest.dataset.m)
    other = [t for t in range(forest.T) if t != t_idx]
    cells = _affected_cells(forest.trees, other, tree.supports[leaf], rows, assign, forest.schema)
    j = pred.feature
    dom = forest.schema.domains[j]
    col = forest.dataset.routing_columns()[j]
    if pred.threshold is not None:
        deltas = _score_numeric(
            cells, j, dom, np.array([pred.threshold]), col, loss, forest.pi, forest.dataset.m
        )
    else:
        block = _subset_rows([pred.subset], len(dom.categories))
        [(_, deltas)] = _score_categorical(
            cells, j, dom, [block], col, loss, forest.pi, forest.dataset.m, 0
        )
    return float(deltas[0])
