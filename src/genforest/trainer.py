"""Greedy top-down induction of generative forests.

Splits are chosen to minimize ``poprisk``, the expected Bayes risk of
discriminating the training data from uniform noise over the model's
cross-tree partition; every split strictly decreases it whenever the chosen
predicate separates data mass from volume.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, combinations, groupby

import numpy as np

from .data import CATEGORICAL, INTEGER, Dataset
from .forest import GenerativeForest, SplitPredicate, Tree, assignment_arrays
from .measure import (
    LossSpec,
    cell_risk,
    get_loss,
    restriction_mask,
    uniform_mass,
)


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 1
    n_splits: int = 0
    loss: str = "square"
    pi: float = 0.5
    mode: str = "gf"
    cat_cutoff: int = 22  # exhaustive subset search up to this many modalities
    cat_sample_size: int = 64  # random candidate subsets above the cutoff
    min_child_rows: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.n_splits < 0:
            raise ValueError("n_splits must be >= 0")
        if self.mode not in ("gf", "eogt"):
            raise ValueError(f"bad mode {self.mode!r}")
        if not 0 < self.pi < 1:
            raise ValueError("pi must be in (0, 1)")
        if self.cat_cutoff < 2:
            raise ValueError("cat_cutoff must be >= 2")
        if self.min_child_rows < 1:
            raise ValueError("min_child_rows must be >= 1")
        get_loss(self.loss)


@dataclass
class SplitRecord:
    """One training iteration: the applied split plus its weak-learning
    witness statistics."""

    iteration: int
    tree: int
    leaf: int
    feature: int
    threshold: float | None
    subset: tuple[int, ...] | None
    delta: float
    poprisk: float
    gamma_hat: float  # |p_R[pred | leaf] - p_U[pred | leaf]|
    kappa_hat: float  # pi p_R[leaf] / p_M[leaf]
    leaf_mass: float  # p_M[leaf]
    leaf_bound: float  # 1 / (number of leaves before the split)


def write_history_csv(history: list[SplitRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["iteration", "tree", "leaf", "feature", "threshold", "subset",
             "delta", "poprisk", "gamma_hat", "kappa_hat", "leaf_mass", "leaf_bound"]
        )
        for r in history:
            w.writerow(
                [r.iteration, r.tree, r.leaf, r.feature,
                 "" if r.threshold is None else repr(r.threshold),
                 "" if r.subset is None else " ".join(map(str, r.subset)),
                 repr(r.delta), repr(r.poprisk),
                 repr(r.gamma_hat), repr(r.kappa_hat),
                 repr(r.leaf_mass), repr(r.leaf_bound)]
            )


# ---------------------------------------------------------------------------
# split scoring


class Cells:
    """Array-backed view of the partition cells affected by one leaf split:
    the rows of every cell, grouped cell after cell, with per-cell sizes,
    per-feature restriction bounds (numeric) or modality masks (categorical),
    and per-feature uniform fractions."""

    __slots__ = ("rows", "sizes", "fracs", "restr")

    def __init__(self, rows, sizes, fracs, restr):
        self.rows = rows
        self.sizes = sizes
        self.fracs = fracs
        self.restr = restr

    def __len__(self):
        return len(self.sizes)


def _build_cells(trees, other, support, combos, rows, sizes, schema):
    """Assemble a Cells block from leaf-id combinations over the other trees
    by intersecting restriction bounds feature-wise, vectorized over cells."""
    n = len(sizes)
    restr = []
    fracs = np.empty((n, schema.d))
    for j, dom in enumerate(schema.domains):
        base = support.restrictions[j]
        if dom.kind == CATEGORICAL:
            n_cats = len(dom.categories)
            sel = np.zeros((n, n_cats), dtype=bool)
            sel[:, list(base.codes)] = True
            for c, t_idx in enumerate(other):
                tree = trees[t_idx]
                node_sel = np.zeros((len(tree.nodes), n_cats), dtype=bool)
                for nid in set(combos[:, c].tolist()):
                    node_sel[nid, list(tree.supports[nid].restrictions[j].codes)] = True
                sel &= node_sel[combos[:, c]]
            restr.append(("cat", sel))
            fracs[:, j] = sel.sum(axis=1) / n_cats
        elif dom.kind == INTEGER:
            a = np.full(n, base.a, dtype=np.int64)
            b = np.full(n, base.b, dtype=np.int64)
            for c, t_idx in enumerate(other):
                tree = trees[t_idx]
                node_a = np.array([r.restrictions[j].a for r in tree.supports], dtype=np.int64)
                node_b = np.array([r.restrictions[j].b for r in tree.supports], dtype=np.int64)
                np.maximum(a, node_a[combos[:, c]], out=a)
                np.minimum(b, node_b[combos[:, c]], out=b)
            restr.append(("int", a, b))
            fracs[:, j] = (b - a + 1) / dom.n_values()
        else:
            lo = np.full(n, base.lo)
            hi = np.full(n, base.hi)
            for c, t_idx in enumerate(other):
                tree = trees[t_idx]
                node_lo = np.array([r.restrictions[j].lo for r in tree.supports])
                node_hi = np.array([r.restrictions[j].hi for r in tree.supports])
                np.maximum(lo, node_lo[combos[:, c]], out=lo)
                np.minimum(hi, node_hi[combos[:, c]], out=hi)
            restr.append(("num", lo, hi))
            width = dom.hi - dom.lo
            fracs[:, j] = np.maximum(hi - lo, 0.0) / width if width > 0 else 1.0
    return Cells(rows, sizes, fracs, restr)


def _affected_cells(trees, skip_tree, support, rows, ds, assign) -> Cells:
    """Non-empty partition cells inside ``support``: group the leaf's rows by
    their leaf assignment in every other tree. Zero-count cells carry zero
    risk before and after any split, so they never materialize."""
    other = [t for t in range(len(trees)) if t != skip_tree]
    if not other:
        return _one_cell(trees, support, rows, ds.schema)
    # one integer key per row, mixed radix over the other trees' node ids,
    # ranks the rows' leaf-id tuples lexicographically; the key is renumbered
    # densely whenever the next digit could overflow it
    key = np.zeros(len(rows), dtype=np.int64)
    bound = 1
    for t in other:
        n_nodes = len(trees[t].nodes)
        if bound * n_nodes >= 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            bound = len(rows)
        key = key * n_nodes + assign[t][rows]
        bound *= n_nodes
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    uniq = np.stack([assign[t][rows[first]] for t in other], axis=1)
    # a stable sort groups the rows cell after cell, each cell in row order
    grouped = rows[np.argsort(inverse, kind="stable")]
    sizes = np.bincount(inverse, minlength=len(first))
    return _build_cells(trees, other, support, uniq.astype(np.int32), grouped, sizes, ds.schema)


def _one_cell(trees, support, rows, schema) -> Cells:
    return _build_cells(
        trees, [], support, np.zeros((1, 0), dtype=np.int32), rows, np.array([len(rows)]), schema
    )


def _leaf_only_cells(trees, t_idx, leaf, rows, schema) -> Cells:
    return _one_cell(trees, trees[t_idx].supports[leaf], rows, schema)


def _flatten_cells(cells: Cells, col):
    """The cells' column values, grouped by cell, with their cell ids."""
    cell_flat = np.repeat(np.arange(len(cells)), cells.sizes)
    return cells.sizes, cell_flat, col[cells.rows]


# (cell, candidate) pairs per candidate block in _score_numeric and (subset,
# cell) pairs per subset chunk in _score_categorical: a block and the float
# temporaries of its size stay in a 2 MB cache
_SCORE_BLOCK = 1 << 14


def _candidate_blocks(n_cells: int, k: int):
    """Column ranges covering ``k`` candidates in blocks of about
    ``_SCORE_BLOCK`` (cell, candidate) pairs. No block has a single column
    unless ``k`` is 1: a one-column sum over cells may reduce in another order
    than a column of a wider block, and every candidate's delta must not
    depend on the block it lands in."""
    width = max(2, _SCORE_BLOCK // max(n_cells, 1))
    starts = list(range(0, k, width))
    if len(starts) > 1 and k - starts[-1] < 2:
        starts.pop()
    return zip(starts, starts[1:] + [k])


def _score_numeric(cells: Cells, j, dom, cand, col, loss, pi, m):
    """Risk delta of every (sorted) candidate threshold. ``col`` is the
    full-length routing column (no missing).

    A candidate below a cell's range on feature j, or at or above its top,
    sends the whole cell to one side, and the other side is empty with zero
    risk; such a pair adds the cell's unsplit risk. ``cell_risk`` runs only at
    the in-range pairs, which are one contiguous run of candidates per cell.
    Each candidate block is filled with the per-cell constants, the in-range
    risks are scattered into it, and its columns are summed over cells in cell
    order, as over the dense (cell, candidate) matrix, so every delta is the
    dense one to the last bit."""
    n_cells, k = len(cells), len(cand)
    fracs = cells.fracs
    u_rest = np.prod(np.delete(fracs, j, axis=1), axis=1)  # (n_cells,)

    if dom.kind == INTEGER:
        _, ia, ib = cells.restr[j]
        lo, hi = ia.astype(float), ib.astype(float)
        width = dom.n_values()
        span = hi - lo + 1.0
        u_whole = u_rest * span / width
    else:
        _, lo, hi = cells.restr[j]
        width = dom.hi - dom.lo
        u_whole = u_rest * (hi - lo) / width if width > 0 else np.zeros(n_cells)
    sizes, cell_flat, vals = _flatten_cells(cells, col)
    whole = cell_risk(loss, sizes / m, u_whole, pi)

    # candidate t splits cell i iff lo_i <= t < hi_i (for integers, iff
    # a_i <= floor(t) < b_i); value v reaches the left child iff v <= t, i.e.
    # iff its bin searchsorted(cand, v) is <= t's index, so a cell's left
    # count is a rank among the sorted (cell, bin) keys
    first = np.searchsorted(cand, lo, side="left")
    stop = np.searchsorted(cand, hi, side="left")
    keys = np.sort(cell_flat * (k + 1) + np.searchsorted(cand, vals, side="left"))
    cell_start = np.cumsum(sizes) - sizes

    # in-range pairs before each candidate; consecutive blocks starting in
    # the same _SCORE_BLOCK pairs are scored in one pass, so that blocks with
    # few in-range pairs share the numpy calls and memory stays near a block's
    cover = np.cumsum(np.bincount(first, minlength=k + 1) - np.bincount(stop, minlength=k + 1))
    pairs_before = np.concatenate([[0], np.cumsum(cover[:k])])
    deltas = np.empty(k)
    blocks = _candidate_blocks(n_cells, k)
    for _, batch in groupby(blocks, key=lambda b: pairs_before[b[0]] // _SCORE_BLOCK):
        # the batch's in-range pairs, ordered by candidate
        batch = list(batch)
        t0, t1 = batch[0][0], batch[-1][1]
        p0 = np.maximum(first, t0)
        n_in = np.maximum(np.minimum(stop, t1) - p0, 0)
        ci = np.repeat(np.arange(n_cells), n_in)
        ti = np.arange(len(ci)) + np.repeat(p0 - (np.cumsum(n_in) - n_in), n_in)
        n_left = np.searchsorted(keys, ci * (k + 1) + ti, side="right") - cell_start[ci]
        r_l = n_left / m
        r_r = (sizes[ci] - n_left) / m
        # an in-range candidate cuts inside the cell, so no clipping to it
        if dom.kind == INTEGER:
            c_left = np.floor(cand[ti]) - lo[ci] + 1.0
            u_l = u_rest[ci] * c_left / width
            u_r = u_rest[ci] * (span[ci] - c_left) / width
        else:
            u_l = u_rest[ci] * (cand[ti] - lo[ci]) / width
            u_r = u_rest[ci] * (hi[ci] - cand[ti]) / width
        risk = cell_risk(loss, r_l, u_l, pi) + cell_risk(loss, r_r, u_r, pi)
        by_cand = np.argsort(ti, kind="stable")
        ci, ti, risk = ci[by_cand], ti[by_cand], risk[by_cand]
        bounds = np.searchsorted(ti, [c0 for c0, _ in batch] + [t1])
        for (c0, c1), q0, q1 in zip(batch, bounds, bounds[1:]):
            post = np.repeat(whole[:, None], c1 - c0, axis=1)
            post[ci[q0:q1], ti[q0:q1] - c0] = risk[q0:q1]
            deltas[c0:c1] = post.sum(axis=0)

    pre = cell_risk(loss, sizes / m, u_rest * fracs[:, j], pi)
    return deltas - float(np.sum(pre))


def _subset_rows(subsets, n_cats):
    """(len(subsets), n_cats) 0/1 float matrix of the right-branch codes."""
    lens = np.fromiter(map(len, subsets), dtype=np.intp, count=len(subsets))
    codes = np.fromiter(chain.from_iterable(subsets), dtype=np.intp, count=int(lens.sum()))
    out = np.zeros((len(subsets), n_cats))
    out[np.repeat(np.arange(len(subsets)), lens), codes] = 1.0
    return out


def _subset_chunks(n_subsets, n_cells):
    """Subset ranges of about ``_SCORE_BLOCK`` (subset, cell) pairs each."""
    step = max(1, _SCORE_BLOCK // max(n_cells, 1))
    return ((s0, min(s0 + step, n_subsets)) for s0 in range(0, n_subsets, step))


def _score_categorical(cells: Cells, j, dom, subsets, col, loss, pi, m):
    """Risk delta of every candidate right-branch subset. ``col`` is the
    full-length routing column (no missing).

    Each chunk of subsets is one (subsets, cells) block: the children's row
    and modality counts are products of the 0/1 subset rows with the per-cell
    code counts and modality masks, sums of integers and hence exact, and each
    subset's risk is summed over its contiguous row of cells."""
    n_cats = len(dom.categories)
    n_cells = len(cells)
    fracs = cells.fracs
    u_rest = np.prod(np.delete(fracs, j, axis=1), axis=1)
    sizes, cell_flat, vals = _flatten_cells(cells, col)
    counts = np.bincount(
        cell_flat * n_cats + vals.astype(np.int64), minlength=n_cells * n_cats
    ).reshape(n_cells, n_cats).astype(float)
    sel = cells.restr[j][1].astype(float)
    pre = float(np.sum(cell_risk(loss, sizes / m, u_rest * fracs[:, j], pi)))

    deltas = np.empty(len(subsets))
    for s0, s1 in _subset_chunks(len(subsets), n_cells):
        right = _subset_rows(subsets[s0:s1], n_cats)
        left = 1.0 - right
        r_r = (right @ counts.T) / m
        r_l = (left @ counts.T) / m
        u_r = u_rest * (right @ sel.T) / n_cats
        u_l = u_rest * (left @ sel.T) / n_cats
        post_r = cell_risk(loss, r_r, u_r, pi).sum(axis=1)
        deltas[s0:s1] = post_r + cell_risk(loss, r_l, u_l, pi).sum(axis=1) - pre
    return deltas


def _numeric_candidates(col):
    """Midpoints of consecutive distinct observed values. Midpoints keep both
    children at positive width (and hence positive uniform mass), so no
    candidate can carve a degenerate zero-volume cell out of the domain."""
    obs = col[~np.isnan(col)]
    vals = np.unique(obs)
    if len(vals) < 2:
        return vals[:0]
    return 0.5 * (vals[:-1] + vals[1:])


def _categorical_candidates(codes, cfg, rng_key):
    """Right-branch subsets: all binary partitions of the leaf's modalities
    when small, a seeded random sample otherwise. Canonical order: anchored on
    the smallest code staying left, subsets by size then lexicographically."""
    codes = sorted(codes)
    if len(codes) < 2:
        return []
    rest = codes[1:]
    if len(codes) <= cfg.cat_cutoff:
        out = []
        for r in range(1, len(rest) + 1):
            out.extend(frozenset(c) for c in combinations(rest, r))
        return out
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_key))
    seen = set()
    for _ in range(cfg.cat_sample_size * 2):
        mask = rng.random(len(rest)) < 0.5
        sub = frozenset(np.asarray(rest)[mask].tolist())
        if sub:
            seen.add(sub)
        if len(seen) >= cfg.cat_sample_size:
            break
    return sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))


def split_pred(trees, t_idx, leaf, rows, ds, cfg, loss, iteration, assign):
    """Best admissible split of a leaf, or None. GF mode scores candidates over
    every non-empty partition cell inside the leaf; EOGT mode scores the leaf
    alone (empirical cell masses prorated by volume collapse to the leaf's own
    mass pair). Ties break toward the lowest feature index, then the lowest
    threshold / first canonical subset."""
    tree = trees[t_idx]
    sup = tree.supports[leaf]
    m = ds.m
    route = ds.routing_columns()
    if cfg.mode == "gf":
        cells = _affected_cells(trees, t_idx, sup, rows, ds, assign)
    else:
        cells = _leaf_only_cells(trees, t_idx, leaf, rows, ds.schema)

    best = None  # (delta, feature, kind_key, predicate)
    for j, dom in enumerate(ds.schema.domains):
        col = route[j][rows]
        if dom.kind == CATEGORICAL:
            subsets = _categorical_candidates(
                sup.restrictions[j].codes, cfg, (cfg.seed, iteration, j)
            )
            if not subsets:
                continue
            # admissibility: both children keep >= min_child_rows rows
            cnts = np.bincount(col.astype(np.int64), minlength=len(dom.categories))
            n_r = np.concatenate([
                _subset_rows(subsets[s0:s1], len(dom.categories)) @ cnts
                for s0, s1 in _subset_chunks(len(subsets), 1)
            ])
            ok = (n_r >= cfg.min_child_rows) & (len(rows) - n_r >= cfg.min_child_rows)
            kept_sets = [sub for sub, keep in zip(subsets, ok) if keep]
            if not kept_sets:
                continue
            deltas = _score_categorical(cells, j, dom, kept_sets, route[j], loss, cfg.pi, m)
            i = int(np.argmin(deltas))
            key = (len(kept_sets[i]), tuple(sorted(kept_sets[i])))
            cand_best = (float(deltas[i]), j, key, SplitPredicate(j, subset=kept_sets[i]))
        else:
            cand = _numeric_candidates(col)
            if len(cand) == 0:
                continue
            obs = np.sort(col)
            n_left = np.searchsorted(obs, cand, side="right")
            ok = (n_left >= cfg.min_child_rows) & (len(rows) - n_left >= cfg.min_child_rows)
            cand = cand[ok]
            if len(cand) == 0:
                continue
            deltas = _score_numeric(cells, j, dom, cand, route[j], loss, cfg.pi, m)
            i = int(np.argmin(deltas))
            cand_best = (float(deltas[i]), j, float(cand[i]), SplitPredicate(j, threshold=float(cand[i])))
        if best is None or (cand_best[0], cand_best[1]) < (best[0], best[1]):
            best = cand_best
    if best is None:
        return None
    return best[3], best[0]


def risk_delta(forest: GenerativeForest, t_idx: int, leaf: int, pred: SplitPredicate, loss: LossSpec) -> float:
    """Incremental poprisk change of applying ``pred`` at a leaf of a trained
    GF; restricted to the affected cells, exact."""
    rows = forest.leaf_rows[t_idx][leaf]
    tree = forest.trees[t_idx]
    assign = assignment_arrays(forest.leaf_rows, forest.dataset.m)
    cells = _affected_cells(forest.trees, t_idx, tree.supports[leaf], rows, forest.dataset, assign)
    j = pred.feature
    dom = forest.schema.domains[j]
    col = forest.dataset.routing_columns()[j]
    if pred.threshold is not None:
        deltas = _score_numeric(
            cells, j, dom, np.array([pred.threshold]), col, loss, forest.pi, forest.dataset.m
        )
    else:
        deltas = _score_categorical(
            cells, j, dom, [pred.subset], col, loss, forest.pi, forest.dataset.m
        )
    return float(deltas[0])


# ---------------------------------------------------------------------------
# the training loop


def pick_tree_and_leaf(leaf_rows, skip=()):
    """Heaviest leaf by empirical mass; ties break by (tree index, leaf id)."""
    best = None
    for t_idx, per_tree in enumerate(leaf_rows):
        for leaf, rows in per_tree.items():
            if (t_idx, leaf) in skip:
                continue
            key = (-len(rows), t_idx, leaf)
            if best is None or key < best[0]:
                best = (key, t_idx, leaf)
    if best is None:
        return None
    return best[1], best[2]


def train(ds: Dataset, cfg: TrainConfig) -> tuple[GenerativeForest, list[SplitRecord]]:
    """Grow ``n_trees`` trees with ``n_splits`` greedy splits overall, always
    splitting the heaviest splittable leaf. Deterministic given the config.
    Stops early when no leaf admits a split."""
    if ds.m == 0:
        raise ValueError("empty dataset")
    loss = get_loss(cfg.loss)
    trees = [Tree(ds.schema) for _ in range(cfg.n_trees)]
    leaf_rows: list[dict[int, np.ndarray]] = [{0: np.arange(ds.m)} for _ in trees]
    assign = [np.zeros(ds.m, dtype=np.int32) for _ in trees]
    route = ds.routing_columns()
    unsplittable: set[tuple[int, int]] = set()
    poprisk = cell_risk(loss, 1.0, 1.0, cfg.pi)
    history: list[SplitRecord] = []

    for it in range(cfg.n_splits):
        applied = False
        skip = set(unsplittable)
        while True:
            pick = pick_tree_and_leaf(leaf_rows, skip=skip)
            if pick is None:
                break
            t_idx, leaf = pick
            res = split_pred(trees, t_idx, leaf, leaf_rows[t_idx][leaf], ds, cfg, loss, it, assign)
            if res is None:
                unsplittable.add((t_idx, leaf))
                skip.add((t_idx, leaf))
                continue
            pred, delta = res
            tree = trees[t_idx]
            rows = leaf_rows[t_idx].pop(leaf)
            li, ri = tree.split(leaf, pred)
            j = pred.feature
            dom = ds.schema.domains[j]
            col = route[j][rows]
            go_left = restriction_mask(dom, tree.supports[li].restrictions[j], col)
            rows_l = rows[go_left]
            rows_r = rows[~go_left]
            assign[t_idx][rows_r] = ri
            assign[t_idx][rows_l] = li
            leaf_rows[t_idx][li] = rows_l
            leaf_rows[t_idx][ri] = rows_r

            n_leaves_before = sum(len(d) for d in leaf_rows) - 1
            r_leaf = len(rows) / ds.m
            u_leaf = uniform_mass(ds.schema, tree.supports[leaf])
            u_right = uniform_mass(ds.schema, tree.supports[ri])
            p_pred_r = len(rows_r) / len(rows)
            p_pred_u = u_right / u_leaf if u_leaf > 0 else 0.0
            p_m = cfg.pi * r_leaf + (1 - cfg.pi) * u_leaf
            poprisk += delta
            history.append(
                SplitRecord(
                    iteration=it, tree=t_idx, leaf=leaf, feature=j,
                    threshold=pred.threshold,
                    subset=tuple(sorted(pred.subset)) if pred.subset else None,
                    delta=delta, poprisk=poprisk,
                    gamma_hat=abs(p_pred_r - p_pred_u),
                    kappa_hat=cfg.pi * r_leaf / p_m,
                    leaf_mass=p_m,
                    leaf_bound=1.0 / n_leaves_before,
                )
            )
            applied = True
            break
        if not applied:
            break  # no splittable leaf anywhere

    forest = GenerativeForest(
        ds.schema, trees, pi=cfg.pi, mode="gf", dataset=ds, leaf_rows=leaf_rows
    )
    if cfg.mode == "eogt":
        forest = forest.to_eogt()
    return forest, history
