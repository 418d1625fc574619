"""Correctness checks computed apart from the program.

Every check takes the program's outputs plus the benchmark's own inputs and
raises ``CheckError`` when an output is wrong. Cell geometry is rebuilt here
from the trees' split predicates; counts come from interval containment over
the training routing columns, not from the program's partition code.
"""

from __future__ import annotations

import numpy as np
from scipy import stats as sp_stats
from scipy.optimize import linear_sum_assignment

INTEGER, CATEGORICAL = "integer", "categorical"

CHI2_FALSE_ALARM = 1e-6
POPRISK_REL_TOL = 1e-9
DENSITY_REL_TOL = 1e-9


class CheckError(Exception):
    """A program output failed a correctness check."""


def _require(ok, msg):
    if not ok:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# tree geometry, rebuilt from the split predicates


class TreeGeometry:
    """Per-node boxes of one tree. Numeric boxes are (lo, hi] with lo = -inf
    at the domain's closed lower end; categorical boxes are code masks."""

    def __init__(self, tree, domains):
        n = len(tree.nodes)
        self.nodes = tree.nodes
        self.lo = np.full((n, len(domains)), -np.inf)
        self.hi = np.full((n, len(domains)), np.inf)
        self.cats = {j: np.ones((n, len(d.categories)), dtype=bool)
                     for j, d in enumerate(domains) if d.kind == CATEGORICAL}
        # children always have larger ids than their parent
        for i, nd in enumerate(tree.nodes):
            if nd.pred is None:
                continue
            for child in (nd.left, nd.right):
                self.lo[child], self.hi[child] = self.lo[i], self.hi[i]
                for j, m in self.cats.items():
                    m[child] = m[i]
            j, p = nd.pred.feature, nd.pred
            if p.subset is not None:
                sub = np.zeros(len(domains[j].categories), dtype=bool)
                sub[list(p.subset)] = True
                self.cats[j][nd.right] &= sub
                self.cats[j][nd.left] &= ~sub
            else:
                self.hi[nd.left, j] = min(self.hi[i, j], p.threshold)
                self.lo[nd.right, j] = max(self.lo[i, j], p.threshold)

    def leaves_of(self, cols) -> np.ndarray:
        """Leaf id of every row: right iff x > threshold / code in subset."""
        n = len(cols[0])
        at = np.zeros(n, dtype=np.int64)
        for i, nd in enumerate(self.nodes):
            if nd.pred is None:
                continue
            here = at == i
            if not here.any():
                continue
            x = cols[nd.pred.feature][here]
            if nd.pred.subset is not None:
                right = np.isin(x, list(nd.pred.subset))
            else:
                right = x > nd.pred.threshold
            at[here] = np.where(right, nd.right, nd.left)
        return at


def forest_geometry(forest):
    return [TreeGeometry(t, forest.schema.domains) for t in forest.trees]


def leaf_tuples(geoms, cols) -> np.ndarray:
    return np.stack([g.leaves_of(cols) for g in geoms], axis=1)


def cell_box(geoms, leaf_ids, domains):
    """Intersection of the leaves' boxes, clipped to the domain."""
    lo = np.max([g.lo[l] for g, l in zip(geoms, leaf_ids)], axis=0)
    hi = np.min([g.hi[l] for g, l in zip(geoms, leaf_ids)], axis=0)
    cats = {}
    for j, d in enumerate(domains):
        if d.kind == CATEGORICAL:
            cats[j] = np.logical_and.reduce([g.cats[j][l] for g, l in zip(geoms, leaf_ids)])
    return lo, hi, cats


def box_volume(box, domains) -> float:
    lo, hi, cats = box
    vol = 1.0
    for j, d in enumerate(domains):
        if d.kind == CATEGORICAL:
            vol *= int(cats[j].sum())
        elif d.kind == INTEGER:
            a = d.lo if lo[j] == -np.inf else np.floor(lo[j]) + 1
            b = min(np.floor(hi[j]), d.hi)
            vol *= max(0.0, b - a + 1)
        else:
            vol *= max(0.0, min(hi[j], d.hi) - max(lo[j], d.lo))
    return vol


def box_count(box, cols, domains) -> int:
    """Rows of ``cols`` inside the box, by interval / code containment."""
    lo, hi, cats = box
    inside = np.ones(len(cols[0]), dtype=bool)
    for j, d in enumerate(domains):
        if d.kind == CATEGORICAL:
            inside &= cats[j][cols[j]]
        else:
            inside &= (cols[j] > lo[j]) & (cols[j] <= hi[j])
    return int(inside.sum())


# ---------------------------------------------------------------------------
# fit


def _leaf_bounds(tree, j, dom):
    """Per-node (low, high) bounds of feature ``j`` read off the supports:
    interval ends for numeric features, a code mask for categorical ones."""
    rs = [s.restrictions[j] for s in tree.supports]
    if dom.kind == CATEGORICAL:
        mask = np.zeros((len(rs), len(dom.categories)), dtype=bool)
        for i, r in enumerate(rs):
            mask[i, list(r.codes)] = True
        return mask, None
    if dom.kind == INTEGER:
        return np.array([r.a for r in rs], float), np.array([r.b for r in rs], float)
    return np.array([r.lo for r in rs]), np.array([r.hi for r in rs])


def square_poprisk(forest, m: int) -> float:
    """Square-loss cell risk pi(1-pi) r u / (pi r + (1-pi) u) summed over the
    non-empty cells, from ``leaf_rows`` and the leaf supports."""
    pi = forest.pi
    assign = np.full((m, forest.T), -1, dtype=np.int64)
    for t, per_tree in enumerate(forest.leaf_rows):
        for leaf, rows in per_tree.items():
            assign[rows, t] = leaf
    _require((assign >= 0).all(), "leaf_rows do not cover every training row")
    cells, counts = np.unique(assign, axis=0, return_counts=True)
    u = np.ones(len(cells))
    for j, dom in enumerate(forest.schema.domains):
        bounds = [_leaf_bounds(tree, j, dom) for tree in forest.trees]
        if dom.kind == CATEGORICAL:
            codes = np.logical_and.reduce([b[0][cells[:, t]] for t, b in enumerate(bounds)])
            u *= codes.sum(axis=1) / len(dom.categories)
            continue
        lo = np.max([b[0][cells[:, t]] for t, b in enumerate(bounds)], axis=0)
        hi = np.min([b[1][cells[:, t]] for t, b in enumerate(bounds)], axis=0)
        if dom.kind == INTEGER:
            u *= np.maximum(0.0, hi - lo + 1) / (dom.hi - dom.lo + 1)
        else:
            u *= np.maximum(0.0, hi - lo) / (dom.hi - dom.lo)
    r = counts / m
    return float(np.sum(pi * (1 - pi) * r * u / (pi * r + (1 - pi) * u)))


def _restriction_contains(dom, r, x) -> np.ndarray:
    if dom.kind == CATEGORICAL:
        return np.isin(x, list(r.codes))
    if dom.kind == INTEGER:
        return (x >= r.a) & (x <= r.b)
    low = x > r.lo if r.lo_open else x >= r.lo
    return low & (x <= r.hi)


def check_fit(forest, history, routing) -> None:
    """Strictly decreasing poprisk, final value equal to the recomputation,
    and every training row inside its leaf's support in every tree."""
    _require(len(history) > 0, "training applied no split")
    pi = forest.pi
    values = [pi * (1 - pi)] + [h.poprisk for h in history]
    for k in range(1, len(values)):
        _require(values[k] < values[k - 1],
                 f"poprisk does not decrease at split {k}: {values[k - 1]!r} -> {values[k]!r}")
    m = len(routing[0])
    own = square_poprisk(forest, m)
    final = history[-1].poprisk
    _require(abs(own - final) <= POPRISK_REL_TOL * abs(own),
             f"final poprisk {final!r} differs from recomputation {own!r}")
    domains = forest.schema.domains
    for t, per_tree in enumerate(forest.leaf_rows):
        tree = forest.trees[t]
        for leaf, rows in per_tree.items():
            _require(tree.nodes[leaf].pred is None, f"tree {t}: rows bound to internal node {leaf}")
            for j, dom in enumerate(domains):
                r = tree.supports[leaf].restrictions[j]
                ok = _restriction_contains(dom, r, routing[j][rows])
                _require(ok.all(), f"tree {t} leaf {leaf}: a row lies outside the support on feature {j}")


# ---------------------------------------------------------------------------
# generate


def check_generate(geoms, sample_cols, routing) -> None:
    """Every generated row lands in a cell with positive training count, and
    tree 0's leaf frequencies match its training leaf counts."""
    train_cells = leaf_tuples(geoms, routing)
    gen_cells = leaf_tuples(geoms, sample_cols)
    occupied = {tuple(c) for c in train_cells}
    empty = sum(tuple(c) not in occupied for c in gen_cells)
    _require(empty == 0, f"{empty} generated rows lie in cells without training rows")
    n, m = len(gen_cells), len(train_cells)
    leaves, train_counts = np.unique(train_cells[:, 0], return_counts=True)
    observed = np.array([(gen_cells[:, 0] == l).sum() for l in leaves], dtype=float)
    expected = n * train_counts / m
    # pool leaves whose expectation is too small for the chi-square law
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    _require(observed.sum() == n, "generated rows outside tree 0's occupied leaves")
    if len(observed) > 1:
        p = sp_stats.chisquare(observed, expected).pvalue
        _require(p >= CHI2_FALSE_ALARM, f"tree 0 leaf frequencies fail chi-square (p = {p:.2e})")


# ---------------------------------------------------------------------------
# density


def check_density(geoms, domains, points, answers, routing) -> None:
    """density(x) x cell volume equals count / m, with the cell and its count
    rebuilt here."""
    _require(None not in answers, "a density request failed")
    m = len(routing[0])
    cells = leaf_tuples(geoms, points)
    for i, (value, point_mass) in enumerate(answers):
        box = cell_box(geoms, cells[i], domains)
        vol = box_volume(box, domains)
        p_cell = box_count(box, routing, domains) / m
        got = value if point_mass else value * vol
        _require(abs(got - p_cell) <= DENSITY_REL_TOL * max(p_cell, 1e-300),
                 f"query {i}: density x volume = {got!r}, count / m = {p_cell!r}")


# ---------------------------------------------------------------------------
# impute


def standardized_rmse(filled_cols, truth_cols, mask, domains, stds) -> float:
    sq, n = 0.0, 0
    for j, d in enumerate(domains):
        if d.kind == CATEGORICAL or not mask[:, j].any():
            continue
        diff = (filled_cols[j][mask[:, j]] - truth_cols[j][mask[:, j]]) / stds[j]
        sq += float(np.sum(diff * diff))
        n += int(mask[:, j].sum())
    return float(np.sqrt(sq / n))


def check_impute(masked_cols, filled_cols, truth_cols, mask, domains, means, stds) -> float:
    """Observed cells unchanged, filled cells inside the domain, and the
    standardized RMSE below the column-mean baseline. Returns the RMSE."""
    for j, d in enumerate(domains):
        obs = ~mask[:, j]
        _require(np.array_equal(filled_cols[j][obs], masked_cols[j][obs]),
                 f"column {j}: an observed cell changed")
        v = filled_cols[j][mask[:, j]]
        if d.kind == CATEGORICAL:
            ok = (v >= 0) & (v < len(d.categories))
        else:
            ok = (v >= d.lo) & (v <= d.hi)
            if d.kind == INTEGER:
                ok &= v == np.round(v)
        _require(ok.all(), f"column {j}: a filled cell lies outside the domain")
    rmse = standardized_rmse(filled_cols, truth_cols, mask, domains, stds)
    baseline = [np.full(len(c), means[j]) for j, c in enumerate(truth_cols)]
    base = standardized_rmse(baseline, truth_cols, mask, domains, stds)
    _require(rmse < base, f"imputation RMSE {rmse:.4f} not below the column-mean baseline {base:.4f}")
    return rmse


# ---------------------------------------------------------------------------
# optimal transport


def l1_cost(a_cols, b_cols, domains, means, stds) -> np.ndarray:
    """Standardized L1 distance on numeric features plus 0/1 categorical
    mismatches; zero-variance numeric features contribute nothing."""
    cost = np.zeros((len(a_cols[0]), len(b_cols[0])))
    for j, d in enumerate(domains):
        if d.kind == CATEGORICAL:
            cost += a_cols[j][:, None] != b_cols[j][None, :]
        elif stds[j] > 0:
            cost += np.abs((a_cols[j][:, None] - b_cols[j][None, :]) / stds[j])
    return cost


def exact_ot(cost: np.ndarray) -> float:
    """Exact transport cost between two equally sized uniform samples."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def sinkhorn_tolerance(cost: np.ndarray, marginal_tol: float) -> float:
    """How far below the exact cost an entropic plan may read: its column
    marginals are off by at most ``marginal_tol`` each, so it is within L1
    distance n * marginal_tol of a feasible coupling."""
    return cost.shape[1] * marginal_tol * float(cost.max())


def check_ot(gen_ot: float, noise_ot: float, sinkhorn_cost: float, tol: float) -> None:
    _require(gen_ot < noise_ot, f"generated rows (OT {gen_ot:.4f}) not closer than uniform noise ({noise_ot:.4f})")
    _require(sinkhorn_cost >= gen_ot - tol,
             f"entropic cost {sinkhorn_cost!r} below the exact cost {gen_ot!r} by more than {tol:.2e}")


# ---------------------------------------------------------------------------
# threads


def check_prefix(full_cols, prefix_cols, what: str) -> None:
    """A request's output equals, byte for byte on the shorter one's rows,
    that of the same request for a prefix of the rows at another thread
    count."""
    k = len(prefix_cols[0])
    for j, (a, b) in enumerate(zip(full_cols, prefix_cols)):
        _require(np.ascontiguousarray(a[:k]).tobytes() == np.ascontiguousarray(b).tobytes(),
                 f"{what}: column {j} differs between thread counts")
