"""The benchmark's inputs and workloads.

Inputs come from the benchmark's own seeded generators; the program only
sees the generated rows. Each workload runs in four phases:

- setup: input generation and anything a server does before its first
  request (``serve-2d`` trains and converts its model here);
- window: whole rounds of the same operations, back to back from one
  caller, until the run's seconds are spent;
- evaluation: fixed-size requests whose outputs give the quality metrics and
  feed the checks; on ``fit-2d``, whose window only trains, they also give
  the serving rates;
- checks: see ``checks.py``.
"""

from __future__ import annotations

import csv
import os
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import checks

import genforest
from genforest import Dataset, FeatureDomain, Schema, TrainConfig
from genforest.data import CATEGORICAL, INTEGER, MISSING_CODE, REAL

THREADS = min(2, os.cpu_count() or 1)

# The training tables, the evaluation rows and the evaluation requests come
# from this fixed seed, so every run trains the same models and their
# quality figures repeat exactly for a given program; --seed draws the timed
# requests. With the tables drawn from --seed too, the models' costs and
# quality moved by up to 37 % between seeds, which would hide the changes
# the benchmark is meant to show.
FIXED_SEED = 20230807


# ---------------------------------------------------------------------------
# inputs


class Mixture2D:
    """Fixed 2-D Gaussian mixture: ten components along a wavy band, so that
    one coordinate mostly tells the other and neighbouring components
    overlap. Only the sample drawn from it depends on the seed."""

    t = np.linspace(-2.5, 2.5, 10)
    means = np.c_[t, 0.7 * t + 0.5 * np.sin(2.2 * t)]
    sigma = 0.25
    weights = np.array([3, 1, 2, 2, 1, 3, 2, 1, 2, 3], float) / 20

    def draw(self, n, rng):
        comp = rng.choice(len(self.weights), size=n, p=self.weights)
        return self.means[comp] + self.sigma * rng.standard_normal((n, 2))

    def posterior(self, pts):
        d2 = ((pts[:, None, :] - self.means[None]) ** 2).sum(-1)
        ll = np.log(self.weights)[None] - d2 / (2 * self.sigma**2)
        ll -= ll.max(axis=1, keepdims=True)
        p = np.exp(ll)
        return p / p.sum(axis=1, keepdims=True)


MIXED_NAMES = ("r0", "r1", "i0", "i1", "c_low", "c_high")
MIXED_KINDS = (REAL, REAL, INTEGER, INTEGER, CATEGORICAL, CATEGORICAL)
C_LOW, C_HIGH = 6, 30  # modalities; cat_cutoff 8 lies between them


def mixed_table(n, rng):
    """Mixed table driven by a latent class that every column reveals in
    part: two real, two integer and two categorical columns (``c_high``
    nests six modalities in each class). Returns raw columns; categories are
    strings."""
    z = rng.choice(5, size=n, p=[0.3, 0.25, 0.2, 0.15, 0.1])
    r0 = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])[z] + rng.normal(0.0, 0.5, n)
    r1 = 0.8 * r0 + rng.normal(0.0, 0.5, n)
    i0 = np.clip(np.round(25 + 10 * z + rng.normal(0.0, 3.0, n)), 18, 80)
    i1 = np.minimum(2 * z + rng.poisson(0.7, n), 12).astype(float)
    noisy = rng.random((n, 2)) < [0.15, 0.1]
    c_low = np.where(noisy[:, 0], rng.integers(C_LOW, size=n), z)
    c_high = np.where(noisy[:, 1], rng.integers(C_HIGH, size=n), 6 * z + rng.integers(6, size=n))
    return [r0, r1, i0, i1,
            np.array([f"L{c}" for c in c_low]), np.array([f"H{c:02d}" for c in c_high])]


def mcar_mask(n, d, rate, rng):
    """Each cell missing with probability ``rate``; rows keep at least one
    observed and one missing cell, so every row is an imputation request."""
    mask = rng.random((n, d)) < rate
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, rng.integers(d)] = True
    for i in np.flatnonzero(mask.all(axis=1)):
        mask[i, rng.integers(d)] = False
    return mask


def masked_columns(cols, mask, domains):
    out = []
    for j, (c, d) in enumerate(zip(cols, domains)):
        c = c.copy()
        c[mask[:, j]] = MISSING_CODE if d.kind == CATEGORICAL else np.nan
        out.append(c)
    return out


def in_domain(cols, domains):
    """Rows whose every value lies inside the learned domain."""
    ok = np.ones(len(cols[0]), dtype=bool)
    for c, d in zip(cols, domains):
        if d.kind != CATEGORICAL:
            ok &= (c >= d.lo) & (c <= d.hi)
    return ok


def column_stats(ds):
    """Means and standard deviations of the observed numeric training values."""
    means, stds = [], []
    for c, d in zip(ds.columns, ds.schema.domains):
        if d.kind == CATEGORICAL:
            means.append(0.0)
            stds.append(0.0)
        else:
            v = c[~np.isnan(c)]
            means.append(float(v.mean()))
            stds.append(float(v.std()))
    return means, stds


# ---------------------------------------------------------------------------
# operation ledger


class Ledger:
    """Every request with its phase, operation kind, units of work and wall
    interval; attempt and failure counts."""

    def __init__(self):
        self.records = []  # (phase, op, units, t0, t1)
        self.attempted = 0
        self.failed = 0
        self.summary = None

    def call(self, phase, op, units, fn, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed request is counted, and the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.records.append((phase, op, units, t0, time.perf_counter()))
        return result

    def summarize(self, normalize):
        """Per (phase, op): the units and the time of every request, each
        time scaled by ``normalize(t0, t1)``."""
        times = normalize([r[3] for r in self.records], [r[4] for r in self.records])
        self.summary = defaultdict(list)
        for (phase, op, units, _, _), t in zip(self.records, times):
            self.summary[phase, op].append((units, float(t)))

    def _requests(self, op, phases):
        for phase in phases:
            if self.summary.get((phase, op)):
                return self.summary[phase, op]
        raise KeyError(op)

    def rate(self, op, phases=("window", "eval")):
        """Median units per second over the requests of the first phase
        that ran ``op``."""
        return float(np.median([u / t for u, t in self._requests(op, phases)]))

    def median_time(self, op, phases=("window", "setup")):
        return float(np.median([t for _, t in self._requests(op, phases)]))


# ---------------------------------------------------------------------------
# workloads


class Requests:
    """Rows a workload sends: complete held-out rows (density queries and
    the transport reference) and imputation rows with their masks."""

    def __init__(self, heldout, imp_truth, imp_mask, domains):
        self.heldout = heldout
        self.imp_truth = imp_truth
        self.imp_mask = imp_mask
        self.imp_masked = masked_columns(imp_truth, imp_mask, domains)


class Workload:
    """Shared request helpers; subclasses set up inputs and define a round."""

    train_cfg: TrainConfig
    ot_blocks = 16
    ot_block_rows = 150
    eval_gen_rows = ot_blocks * ot_block_rows
    eval_impute_rows = 400
    eval_density_queries = 200
    prefix_rows = 40
    threads = 1
    mcar_rate = 0.3
    gen_request_rows = 100
    impute_request_rows = 40
    density_per_round = 100

    def __init__(self, seed, ledger, workdir):
        self.seed = seed
        self.ledger = ledger
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.fixed_rng = np.random.default_rng(FIXED_SEED)
        self.round_no = 0
        self.forest = self.history = self.eogt = None

    # -- requests --------------------------------------------------------

    def fit(self, phase):
        res = self.ledger.call(phase, "fit", 1, genforest.trainer.train, self.train, self.train_cfg)
        if res is not None:
            self.forest, self.history = res

    def to_eogt(self, phase):
        self.eogt = self.ledger.call(phase, "to_eogt", 1, self.forest.to_eogt)

    def generate(self, phase, model, op, n, key, threads=1):
        return self.ledger.call(phase, op, n, genforest.sampler.generate, model, n,
                                seed=key, threads=threads)

    def density(self, phase, points, batch=50):
        """Density queries, one request per ``batch`` points: a single query
        takes well under a millisecond, too short to time one by one."""
        rows = [[c[i].item() for c in points] for i in range(len(points[0]))]
        answers = []
        for b in range(0, len(rows), batch):
            part = rows[b:b + batch]
            got = self.ledger.call(phase, "density", len(part),
                                   lambda xs: [self.forest.density(x) for x in xs], part)
            answers.extend(got or [None] * len(part))
        return answers

    def impute(self, phase, requests, rows, threads=1, key=0, op="impute"):
        ds = Dataset(self.schema, [c[rows] for c in requests.imp_masked])
        return self.ledger.call(phase, op, len(rows), genforest.imputer.impute_dataset,
                                self.forest, ds, seed=key, threads=threads)

    def serve(self, phase, r, req=None, seed=None):
        """One round of serving requests: exact and EOGT generation, density
        at generated and held-out points, imputation. Requests come from
        ``req`` and ``seed``, by default the run's own."""
        req = req or self.window
        seed = self.seed if seed is None else seed
        gen = None
        for k in range(2):
            gen = self.generate(phase, self.forest, "generate", self.gen_request_rows,
                                key=[seed, r, k], threads=self.threads) or gen
        for k in range(2):
            self.generate(phase, self.eogt, "generate_eogt", self.gen_request_rows, key=[seed, r, 2 + k])
        q = self.density_per_round // 2
        held = (np.arange(q) + r * q) % len(req.heldout[0])
        self.density(phase, [np.concatenate([g[:q], h[held]]) for g, h in zip(gen.columns, req.heldout)])
        n = self.impute_request_rows
        for k in range(2):
            rows = (np.arange(n) + (2 * r + k) * n) % len(req.imp_truth[0])
            self.impute(phase, req, rows, threads=self.threads, key=[seed, r, k])

    # -- phases ----------------------------------------------------------

    def setup(self):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def evaluate(self):
        """Fixed requests on fixed rows against the final model. Their
        outputs feed the checks and the quality metrics."""
        ev = self.evalset
        self.eval_rows = np.arange(min(self.eval_impute_rows, len(ev.imp_truth[0])))
        self.eval_imputed = self.impute("eval", ev, self.eval_rows, threads=self.threads, key=FIXED_SEED)
        self.eval_sample = self.generate("eval", self.forest, "generate", self.eval_gen_rows,
                                         key=FIXED_SEED, threads=self.threads)
        # the same requests at the other thread count, on a prefix of the rows
        k, other = self.prefix_rows, 1 if self.threads > 1 else THREADS
        self.prefix_sample = self.generate("eval", self.forest, "generate_prefix", k,
                                           key=FIXED_SEED, threads=other)
        self.prefix_imputed = self.impute("eval", ev, self.eval_rows[:k], threads=other, key=FIXED_SEED,
                                          op="impute_prefix")
        q = self.eval_density_queries // 2
        self.density_points = [np.concatenate([g[:q], h[:q]])
                               for g, h in zip(self.eval_sample.columns, ev.heldout)]
        self.density_answers = self.density("eval", self.density_points)

    def uniform_noise(self, n):
        rng = np.random.default_rng([FIXED_SEED, 7])
        cols = []
        for d in self.schema.domains:
            if d.kind == CATEGORICAL:
                cols.append(rng.integers(len(d.categories), size=n).astype(np.int32))
            elif d.kind == INTEGER:
                cols.append(rng.integers(int(d.lo), int(d.hi) + 1, size=n).astype(float))
            else:
                cols.append(rng.uniform(d.lo, d.hi, size=n))
        return cols

    # -- checks and metrics ------------------------------------------------

    def run_checks(self):
        """Runs every check; returns the quality figures they computed."""
        domains = self.schema.domains
        ev = self.evalset
        routing = self.train.routing_columns()
        checks.check_fit(self.forest, self.history, routing)
        geoms = checks.forest_geometry(self.forest)
        checks.check_generate(geoms, self.eval_sample.columns, routing)
        checks.check_density(geoms, domains, self.density_points, self.density_answers, routing)
        rows = self.eval_rows
        truth = [c[rows] for c in ev.imp_truth]
        mask = ev.imp_mask[rows]
        masked = [c[rows] for c in ev.imp_masked]
        rmse = checks.check_impute(masked, self.eval_imputed.columns, truth, mask,
                                   domains, self.means, self.stds)
        # exact transport between equally sized blocks of generated and
        # held-out rows (the held-out rows at the end of the pool, away from
        # the density queries); one block's cost varies too much between
        # samples, so gen_ot is the mean over the blocks
        n, blocks = self.ot_block_rows, self.ot_blocks
        held_all = [c[-n * blocks:] for c in ev.heldout]
        costs = [checks.l1_cost([c[b * n:(b + 1) * n] for c in self.eval_sample.columns],
                                [c[b * n:(b + 1) * n] for c in held_all],
                                domains, self.means, self.stds) for b in range(blocks)]
        gen_ot = float(np.mean([checks.exact_ot(c) for c in costs]))
        held = [c[:n] for c in held_all]
        noise_ot = checks.exact_ot(checks.l1_cost(self.uniform_noise(n), held, domains, self.means, self.stds))
        # the entropic solver against the exact cost of the first block
        stats = genforest.evaluator.TrainStats(tuple(self.means), tuple(self.stds))
        gen = [c[:n] for c in self.eval_sample.columns]
        sink = genforest.evaluator.sinkhorn_ot(Dataset(self.schema, gen), Dataset(self.schema, held),
                                               stats=stats, metric="l1")
        first = checks.exact_ot(costs[0])
        checks.check_ot(first, noise_ot, sink.cost, checks.sinkhorn_tolerance(costs[0], 1e-6))
        checks.check_prefix(self.eval_sample.columns, self.prefix_sample.columns, "generate")
        checks.check_prefix(self.eval_imputed.columns, self.prefix_imputed.columns, "impute")
        return {"impute_rmse": rmse, "impute_perr": self.perr(truth, mask), "gen_ot": gen_ot}

    def end_to_end(self, quality, setup_s, peak_rss_mb):
        led = self.ledger
        return {
            "setup_s": (setup_s, "s"),
            "fit_s": (led.median_time("fit"), "s"),
            "fit_poprisk": (self.history[-1].poprisk, "poprisk"),
            "generate_rows_per_s": (led.rate("generate"), "rows/s"),
            "generate_eogt_rows_per_s": (led.rate("generate_eogt"), "rows/s"),
            "density_queries_per_s": (led.rate("density"), "queries/s"),
            "impute_rows_per_s": (led.rate("impute"), "rows/s"),
            "impute_rmse": (quality["impute_rmse"], "std_units"),
            "impute_perr": (quality["impute_perr"], "probability"),
            "gen_ot": (quality["gen_ot"], "std_L1"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }


class Mixture2DWorkload(Workload):
    train_rows = 2000
    pool_rows = 3000
    mixture = Mixture2D()

    def make_inputs(self):
        pts = self.mixture.draw(self.train_rows, self.fixed_rng)
        domains = tuple(FeatureDomain(REAL, lo=float(pts[:, j].min()), hi=float(pts[:, j].max()))
                        for j in range(2))
        self.schema = Schema(("x0", "x1"), domains)
        self.train = Dataset(self.schema, [pts[:, 0].copy(), pts[:, 1].copy()])
        self.means, self.stds = column_stats(self.train)
        self.evalset = self.requests(self.fixed_rng)
        self.window = self.requests(self.rng)

    def requests(self, rng):
        """Held-out rows inside the learned domain; imputation requests are
        the same rows, MCAR-masked."""
        pool = self.mixture.draw(self.pool_rows, rng)
        pool = pool[in_domain([pool[:, 0], pool[:, 1]], self.schema.domains)]
        cols = [pool[:, 0].copy(), pool[:, 1].copy()]
        return Requests(cols, cols, mcar_mask(len(pool), 2, self.mcar_rate, rng), self.schema.domains)

    def perr(self, truth, mask):
        """Probability that the imputed and the true row belong to different
        mixture components, from the known component posteriors."""
        filled = np.c_[self.eval_imputed.columns[0], self.eval_imputed.columns[1]]
        true = np.c_[truth[0], truth[1]]
        agree = (self.mixture.posterior(filled) * self.mixture.posterior(true)).sum(axis=1)
        return float(np.mean(1.0 - agree))


class Fit2D(Mixture2DWorkload):
    """Many shallow trees on a 2-D mixture; the window only trains."""

    train_cfg = TrainConfig(n_trees=50, n_splits=200)
    eval_impute_rows = 240
    serve_rounds = 6

    def setup(self):
        self.make_inputs()

    def round(self):
        self.fit("window")

    def evaluate(self):
        # the window only trains: serving rounds of the fixed evaluation
        # requests give the serving rates, after one round that fills the
        # node caches as the window of serve-2d does
        self.to_eogt("eval")
        self.serve("warmup", 0, self.evalset, FIXED_SEED)
        for r in range(1, 1 + self.serve_rounds):
            self.serve("eval", r, self.evalset, FIXED_SEED)
        super().evaluate()


class Serve2D(Mixture2DWorkload):
    """A fixed ten-tree model answering generation, density and imputation
    requests; the trainer runs only in setup."""

    train_cfg = TrainConfig(n_trees=10, n_splits=100)

    def setup(self):
        self.make_inputs()
        self.fit("setup")
        self.to_eogt("setup")

    def round(self):
        self.serve("window", self.round_no)
        self.round_no += 1


class TabularMixed(Workload):
    """Few deep trees on a mixed real / integer / categorical table read back
    from CSV, with holes in the training data and two threads for
    generation and imputation."""

    train_rows = 4000
    pool_rows = 3000
    train_missing = 0.05
    train_cfg = TrainConfig(n_trees=4, n_splits=160, cat_cutoff=8)
    mcar_rate = 0.25
    eval_impute_rows = 500
    impute_request_rows = 50
    threads = THREADS

    def setup(self):
        raw = mixed_table(self.train_rows, self.fixed_rng)
        self.holes = self.fixed_rng.random((self.train_rows, len(raw))) < self.train_missing
        path = os.path.join(self.workdir, f"tabular-{self.seed}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(MIXED_NAMES)
            for i in range(self.train_rows):
                w.writerow(["" if self.holes[i, j] else _cell(raw[j][i], MIXED_KINDS[j])
                            for j in range(len(raw))])
        self.train = self.ledger.call("setup", "load_csv", 1, genforest.data.load_csv, path)
        self.schema = self.train.schema
        self.means, self.stds = column_stats(self.train)
        self.evalset = self.requests(self.fixed_rng)
        self.window = self.requests(self.rng)
        self.model_path = os.path.join(self.workdir, f"tabular-{self.seed}.model.json")

    def requests(self, rng):
        """Held-out rows inside the learned domain; imputation requests are
        complete training rows, MCAR-masked anew. Held-out rows can meet
        only empty cells, and the training rows' own holes were routed by
        random surrogates (see CHANGES.md)."""
        domains = self.schema.domains
        cols = self.encode(mixed_table(self.pool_rows, rng))
        keep = in_domain(cols, domains)
        for c, d in zip(cols, domains):
            if d.kind == CATEGORICAL:
                keep &= c >= 0
        rows = rng.permutation(np.flatnonzero(~self.holes.any(axis=1)))
        truth = [c[rows] for c in self.train.columns]
        return Requests([c[keep] for c in cols], truth,
                        mcar_mask(len(rows), len(domains), self.mcar_rate, rng), domains)

    def encode(self, raw):
        """Raw columns in the loaded schema's encoding; unknown modalities
        become -1."""
        cols = []
        for c, d in zip(raw, self.schema.domains):
            if d.kind == CATEGORICAL:
                code = {s: k for k, s in enumerate(d.categories)}
                cols.append(np.array([code.get(s, -1) for s in c], dtype=np.int32))
            else:
                cols.append(c.astype(float))
        return cols

    def round(self):
        # every fit gives the same model; requests go to the first one, so
        # that they meet warm node caches as on serve-2d and not the fresh
        # caches of each refit
        served = self.forest
        self.fit("window")
        if served is None:
            self.to_eogt("window")
        else:
            self.forest = served
        for _ in range(4):
            self.serve("window", self.round_no)
            self.round_no += 1
        self.ledger.call("window", "save", 1, self.forest.save, self.model_path)

    def perr(self, truth, mask):
        """Error probability over the masked categorical cells."""
        errs = total = 0
        for j, d in enumerate(self.schema.domains):
            if d.kind != CATEGORICAL:
                continue
            holes = mask[:, j]
            total += int(holes.sum())
            errs += int((self.eval_imputed.columns[j][holes] != truth[j][holes]).sum())
        return errs / total


def _cell(v, kind):
    if kind == CATEGORICAL:
        return str(v)
    return str(int(v)) if kind == INTEGER else repr(float(v))


WORKLOADS = {"fit-2d": Fit2D, "serve-2d": Serve2D, "tabular-mixed": TabularMixed}
