"""Greedy top-down induction of generative forests.

Splits are chosen to minimize ``poprisk``, the expected Bayes risk of
discriminating the training data from uniform noise over the model's
cross-tree partition; every split strictly decreases it whenever the chosen
predicate separates data mass from volume.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, combinations, groupby, islice

import numpy as np

from .data import CATEGORICAL, INTEGER, Dataset
from .forest import MODES, GenerativeForest, SplitPredicate, Tree
from .measure import cell_risk, get_loss, uniform_mass

# random candidate subsets above ``TrainConfig.cat_cutoff``
CAT_SAMPLE_SIZE = 64

# fewest training rows a split leaves in either child
MIN_CHILD_ROWS = 1


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 1
    n_splits: int = 0
    loss: str = "square"
    pi: float = 0.5
    mode: str = "gf"
    # a leaf keeping up to this many modalities scores all 2^(k-1) - 1 subsets
    # (memory bounded by one block, time not); above it, CAT_SAMPLE_SIZE
    # random ones
    cat_cutoff: int = 22
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.n_splits < 0:
            raise ValueError("n_splits must be >= 0")
        if self.mode not in MODES:
            raise ValueError(f"bad mode {self.mode!r}")
        if not 0 < self.pi < 1:
            raise ValueError("pi must be in (0, 1)")
        if self.cat_cutoff < 2:
            raise ValueError("cat_cutoff must be >= 2")
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


def _affected_cells(trees, other, support, rows, assign, schema) -> Cells:
    """Non-empty partition cells inside ``support``: the leaf's rows grouped
    by their leaf in each tree of ``other``, one cell holding every row when
    ``other`` is empty. Zero-count cells carry zero risk before and after any
    split, so they never materialize. A cell's restriction on each feature
    intersects the leaf's with those of its leaves in the other trees, read
    from one table over the other trees' nodes."""
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
    # a stable sort groups the rows cell after cell, each cell in row order
    grouped = rows[np.argsort(inverse, kind="stable")]
    sizes = np.bincount(inverse, minlength=len(first))

    # the node table stacks the other trees' nodes, tree after tree; ids[i, c]
    # is the row of cell i's leaf in tree other[c], read off the cell's first row
    n = len(first)
    nodes = [sup.restrictions for t in other for sup in trees[t].supports]
    ids = np.empty((n, len(other)), dtype=np.intp)
    offset = 0
    for c, t in enumerate(other):
        ids[:, c] = offset + assign[t][rows[first]]
        offset += len(trees[t].nodes)

    restr = []
    fracs = np.empty((n, schema.d))
    for j, dom in enumerate(schema.domains):
        base = support.restrictions[j]
        column = [r[j] for r in nodes]
        if dom.kind == CATEGORICAL:
            n_cats = len(dom.categories)
            node_sel = _subset_rows([r.codes for r in column], n_cats).astype(bool)
            sel = np.zeros((n, n_cats), dtype=bool)
            sel[:, list(base.codes)] = True
            for c in range(len(other)):
                sel &= node_sel[ids[:, c]]
            restr.append(("cat", sel))
            fracs[:, j] = sel.sum(axis=1) / n_cats
        elif dom.kind == INTEGER:
            node_a = np.array([r.a for r in column], dtype=np.int64)
            node_b = np.array([r.b for r in column], dtype=np.int64)
            a = np.maximum.reduce(node_a[ids], axis=1, initial=base.a)
            b = np.minimum.reduce(node_b[ids], axis=1, initial=base.b)
            restr.append(("int", a, b))
            fracs[:, j] = (b - a + 1) / dom.n_values()
        else:
            node_lo = np.array([r.lo for r in column], dtype=float)
            node_hi = np.array([r.hi for r in column], dtype=float)
            lo = np.maximum.reduce(node_lo[ids], axis=1, initial=base.lo)
            hi = np.minimum.reduce(node_hi[ids], axis=1, initial=base.hi)
            restr.append(("num", lo, hi))
            width = dom.hi - dom.lo
            fracs[:, j] = np.maximum(hi - lo, 0.0) / width if width > 0 else 1.0
    return Cells(grouped, sizes, fracs, restr)


def _flatten_cells(cells: Cells, col):
    """The cells' column values, grouped by cell, with their cell ids."""
    cell_flat = np.repeat(np.arange(len(cells)), cells.sizes)
    return cells.sizes, cell_flat, col[cells.rows]


# (cell, candidate) pairs per candidate block in _score_numeric and (subset,
# cell) pairs per subset block of _categorical_candidates: a block and the
# float temporaries of its size stay in a 2 MB cache
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


def _score_categorical(cells: Cells, j, dom, blocks, col, loss, pi, m, min_rows):
    """Risk deltas of the admissible right-branch subsets of each 0/1 block
    in ``blocks``: yields (admissible rows, their deltas) per block that keeps
    any. A subset is admissible when both children keep ``min_rows`` rows.
    ``col`` is the full-length routing column (no missing).

    The children's row and modality counts are products of the 0/1 subset
    rows with the per-cell code counts and modality masks, sums of integers
    and hence exact, and each subset's risk is summed over its contiguous row
    of cells."""
    n_cats = len(dom.categories)
    n_cells = len(cells)
    fracs = cells.fracs
    u_rest = np.prod(np.delete(fracs, j, axis=1), axis=1)
    sizes, cell_flat, vals = _flatten_cells(cells, col)
    counts = np.bincount(
        cell_flat * n_cats + vals.astype(np.int64), minlength=n_cells * n_cats
    ).reshape(n_cells, n_cats)
    code_rows = counts.sum(axis=0)
    counts = counts.astype(float)
    sel = cells.restr[j][1].astype(float)
    pre = float(np.sum(cell_risk(loss, sizes / m, u_rest * fracs[:, j], pi)))
    n_rows = len(vals)

    for right in blocks:
        n_r = right @ code_rows
        right = right[(n_r >= min_rows) & (n_rows - n_r >= min_rows)]
        if not len(right):
            continue
        left = 1.0 - right
        r_r = (right @ counts.T) / m
        r_l = (left @ counts.T) / m
        u_r = u_rest * (right @ sel.T) / n_cats
        u_l = u_rest * (left @ sel.T) / n_cats
        post_r = cell_risk(loss, r_r, u_r, pi).sum(axis=1)
        yield right, post_r + cell_risk(loss, r_l, u_l, pi).sum(axis=1) - pre


def _numeric_candidates(col):
    """Midpoints of consecutive distinct observed values. Midpoints keep both
    children at positive width (and hence positive uniform mass), so no
    candidate can carve a degenerate zero-volume cell out of the domain."""
    obs = col[~np.isnan(col)]
    vals = np.unique(obs)
    if len(vals) < 2:
        return vals[:0]
    return 0.5 * (vals[:-1] + vals[1:])


def _categorical_candidates(codes, cutoff, rng_key, n_cats, n_cells):
    """Right-branch subsets as 0/1 blocks of about ``_SCORE_BLOCK`` (subset,
    cell) pairs: all binary partitions of the leaf's modalities when at most
    ``cutoff``, a seeded random sample otherwise. Canonical order: anchored on
    the smallest code staying left, subsets by size then lexicographically."""
    codes = sorted(codes)
    rest = codes[1:]
    if len(codes) <= cutoff:
        subsets = chain.from_iterable(combinations(rest, r) for r in range(1, len(rest) + 1))
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_key))
        seen = set()
        for _ in range(CAT_SAMPLE_SIZE * 2):
            sub = tuple(np.asarray(rest)[rng.random(len(rest)) < 0.5].tolist())
            if sub:
                seen.add(sub)
            if len(seen) >= CAT_SAMPLE_SIZE:
                break
        subsets = iter(sorted(seen, key=lambda s: (len(s), s)))
    step = max(1, _SCORE_BLOCK // max(n_cells, 1))
    while chunk := list(islice(subsets, step)):
        yield _subset_rows(chunk, n_cats)


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
    other = [t for t in range(len(trees)) if t != t_idx] if cfg.mode == "gf" else []
    cells = _affected_cells(trees, other, sup, rows, assign, ds.schema)

    best = None  # (delta, feature, predicate)
    for j, dom in enumerate(ds.schema.domains):
        col = route[j][rows]
        if dom.kind == CATEGORICAL:
            blocks = _categorical_candidates(
                sup.restrictions[j].codes, cfg.cat_cutoff, (cfg.seed, iteration, j),
                len(dom.categories), len(cells),
            )
            # the first minimum in canonical order, as an argmin over all blocks
            delta, row = np.inf, None
            scored = _score_categorical(cells, j, dom, blocks, route[j], loss, cfg.pi, m, MIN_CHILD_ROWS)
            for right, deltas in scored:
                i = int(np.argmin(deltas))
                if deltas[i] < delta:
                    delta, row = deltas[i], right[i]
            if row is None:
                continue
            cand_best = (float(delta), j, SplitPredicate(j, subset=frozenset(np.flatnonzero(row).tolist())))
        else:
            cand = _numeric_candidates(col)
            if len(cand) == 0:
                continue
            obs = np.sort(col)
            n_left = np.searchsorted(obs, cand, side="right")
            ok = (n_left >= MIN_CHILD_ROWS) & (len(rows) - n_left >= MIN_CHILD_ROWS)
            cand = cand[ok]
            if len(cand) == 0:
                continue
            deltas = _score_numeric(cells, j, dom, cand, route[j], loss, cfg.pi, m)
            i = int(np.argmin(deltas))
            cand_best = (float(deltas[i]), j, SplitPredicate(j, threshold=float(cand[i])))
        if best is None or cand_best[:2] < best[:2]:
            best = cand_best
    if best is None:
        return None
    return best[2], best[0]


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
        while True:
            pick = pick_tree_and_leaf(leaf_rows, skip=unsplittable)
            if pick is None:
                break
            t_idx, leaf = pick
            res = split_pred(trees, t_idx, leaf, leaf_rows[t_idx][leaf], ds, cfg, loss, it, assign)
            if res is not None:
                break
            unsplittable.add((t_idx, leaf))
        if pick is None:
            break  # no splittable leaf anywhere
        pred, delta = res
        tree = trees[t_idx]
        rows = leaf_rows[t_idx].pop(leaf)
        li, ri = tree.split(leaf, pred)
        j = pred.feature
        right = pred.sends_right(ds.schema.domains[j], route[j][rows])
        rows_l = rows[~right]
        rows_r = rows[right]
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

    forest = GenerativeForest(ds.schema, trees, pi=cfg.pi, mode="gf", dataset=ds)
    if cfg.mode == "eogt":
        forest = forest.to_eogt()
    return forest, history
