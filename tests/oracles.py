"""Reference implementations the tests compare the program against: a
forest's cell of a complete point found by descending every tree, GF rows
taken from m-long per-node row masks, the EOGT branch probability from full
support intersections, the EOGT cell probability chained along the leaf
paths, and generation by one star update per tree step."""

import numpy as np

from genforest.data import CATEGORICAL
from genforest.forest import GenerativeForest, PartitionElement, Tree, approx_branch_prob
from genforest.measure import Support, uniform_mass
from genforest.sampler import draw_uniform, init_sampling, update_support


def descendant_leaves(tree: Tree, node: int) -> list[int]:
    """Leaf ids in the subtree rooted at ``node``."""
    out, stack = [], [node]
    while stack:
        i = stack.pop()
        n = tree.nodes[i]
        if n.is_leaf:
            out.append(i)
        else:
            stack.extend((n.left, n.right))
    return out


def node_mask(forest: GenerativeForest, t_idx: int, node: int) -> np.ndarray:
    """m-long mask of the training rows under ``node`` of tree ``t_idx``: the
    union of its leaves' row lists."""
    mask = np.zeros(forest.dataset.m, dtype=bool)
    for leaf in descendant_leaves(forest.trees[t_idx], node):
        rows = forest.leaf_rows[t_idx].get(leaf)
        if rows is not None and len(rows):
            mask[rows] = True
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
    of tree ``t_idx``, from the support's full intersections with both
    children and the children's uniform masses computed anew."""
    tree = forest.trees[t_idx]
    n = tree.nodes[node]
    c_t = support.intersect(tree.supports[n.right])
    c_f = support.intersect(tree.supports[n.left])
    return approx_branch_prob(
        uniform_mass(forest.schema, c_t),
        uniform_mass(forest.schema, tree.supports[n.right]),
        uniform_mass(forest.schema, c_f),
        uniform_mass(forest.schema, tree.supports[n.left]),
        forest.arc_p[t_idx][node],
        c_t,
        c_f,
    )


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
    """``generate``'s columns from one star update per tree step in iterative
    order, with the per-row streams of ``generate``."""
    rows = []
    for stream in np.random.SeedSequence(seed).spawn(n):
        rng = np.random.default_rng(stream)
        state = init_sampling(forest)
        update_support(forest, state, rng)
        rows.append(draw_uniform(forest.schema, state.support, rng))
    return [np.array([r[j] for r in rows], dtype=np.int32 if d.kind == CATEGORICAL else np.float64)
            for j, d in enumerate(forest.schema.domains)]
