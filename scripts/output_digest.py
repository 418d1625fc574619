#!/usr/bin/env python3
"""Digest of every output a fixed set of small fits produces: one sha256 per
model over its split-history CSV and saved model file, ``generate`` at one
and two threads, ``density`` at the generated rows and ``impute_dataset`` of
the generated rows with holes punched in them.

Two checkouts produce the same bytes on these fits when they print the same
lines. The script imports the package from PYTHONPATH, so one copy of it can digest
both:

    PYTHONPATH=src python3 scripts/output_digest.py > new.txt
    PYTHONPATH=../parent/src python3 scripts/output_digest.py > old.txt
    diff old.txt new.txt
"""

import csv
import hashlib
import os
import sys
import tempfile

import numpy as np

from genforest import TrainConfig, generate, impute_dataset, load_csv, synth_domain, train
from genforest.data import apply_mcar
from genforest.imputer import raw_row
from genforest.trainer import write_history_csv

GENERATED_ROWS = 150


def mixed_csv(path, n=600, seed=7):
    """A table with real, integer and categorical columns and 8 % holes,
    driven by a latent class that every column reveals in part."""
    rng = np.random.default_rng(seed)
    z = rng.choice(4, size=n, p=[0.4, 0.3, 0.2, 0.1])
    x = np.array([-3.0, -1.0, 1.0, 3.0])[z] + rng.normal(0.0, 0.6, n)
    k = np.clip(np.round(10 + 5 * z + rng.normal(0.0, 2.0, n)), 0, 30).astype(int)
    c_low = np.where(rng.random(n) < 0.2, rng.integers(5, size=n), z)
    c_high = np.where(rng.random(n) < 0.1, rng.integers(12, size=n), 3 * z + rng.integers(3, size=n))
    holes = rng.random((n, 4)) < 0.08
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "k", "c_low", "c_high"])
        for i in range(n):
            cells = [repr(float(x[i])), str(k[i]), f"L{c_low[i]}", f"H{c_high[i]:02d}"]
            w.writerow(["" if holes[i, j] else cells[j] for j in range(4)])


def fits(workdir):
    """(name, training table, config) of every digested fit."""
    ring = synth_domain("ringGauss", seed=0)
    ring_holes, _ = apply_mcar(ring, 0.1, seed=3)
    path = os.path.join(workdir, "mixed.csv")
    mixed_csv(path)
    mixed = load_csv(path)
    return [
        ("ring-gf", ring, TrainConfig(n_trees=10, n_splits=100)),
        ("ring-eogt", ring, TrainConfig(n_trees=6, n_splits=48, mode="eogt")),
        ("ring-holes-matusita", ring_holes, TrainConfig(n_trees=3, n_splits=30, loss="matusita")),
        ("mixed-gf", mixed, TrainConfig(n_trees=3, n_splits=40, cat_cutoff=8)),
        ("mixed-eogt", mixed, TrainConfig(n_trees=3, n_splits=40, cat_cutoff=8, mode="eogt")),
        ("mixed-log-cutoff22", mixed, TrainConfig(n_trees=3, n_splits=40, loss="log")),
    ]


def digest(ds, cfg, workdir) -> str:
    h = hashlib.sha256()
    forest, history = train(ds, cfg)
    history_path = os.path.join(workdir, "history.csv")
    model_path = os.path.join(workdir, "model.json")
    write_history_csv(history, history_path)
    forest.save(model_path)
    for path in (history_path, model_path):
        with open(path, "rb") as fh:
            h.update(fh.read())
    rows = generate(forest, GENERATED_ROWS, seed=1, threads=1)
    h.update(rows.canonical_bytes())
    h.update(generate(forest, GENERATED_ROWS, seed=1, threads=2).canonical_bytes())
    for i in range(rows.m):
        val, point = forest.density(raw_row(rows, i))
        h.update(f"{val!r} {int(point)}\n".encode())
    masked, _ = apply_mcar(rows, 0.3, seed=2)
    h.update(impute_dataset(forest, masked, seed=4, threads=1).canonical_bytes())
    return h.hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        for name, ds, cfg in fits(workdir):
            print(f"{name} {digest(ds, cfg, workdir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
