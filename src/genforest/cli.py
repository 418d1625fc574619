"""Command-line front end: train / generate / impute / density / eval /
synth / convert.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal assertion.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import evaluator, imputer
from .data import (
    DataError,
    SYNTH_SIZES,
    apply_mask,
    apply_mcar,
    load_csv,
    load_mask,
    save_mask,
    synth_domain,
)
from .forest import MODES, GenerativeForest
from .measure import LOSSES, get_loss
from .sampler import generate
from .trainer import TrainConfig, train, write_history_csv


def _add_common_train_flags(p: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    p.add_argument("--trees", type=int, required=True, help="number of trees")
    p.add_argument("--splits", type=int, required=True, help="total number of splits")
    p.add_argument("--mode", choices=MODES, default=defaults.mode)
    p.add_argument("--loss", choices=list(LOSSES), default=defaults.loss)
    p.add_argument("--prior", type=float, default=defaults.pi, help="mixing weight of the real data")
    p.add_argument("--cat-cutoff", type=int, default=defaults.cat_cutoff)
    p.add_argument("--seed", type=int, default=defaults.seed)


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(
        n_trees=args.trees,
        n_splits=args.splits,
        loss=args.loss,
        pi=args.prior,
        mode=args.mode,
        cat_cutoff=args.cat_cutoff,
        seed=args.seed,
    )


def _load_model(path, train_csv):
    """Load a model; GF models need their training CSV alongside."""
    ds = load_csv(train_csv) if train_csv else None
    return GenerativeForest.load(path, dataset=ds)


def cmd_train(args) -> int:
    ds = load_csv(args.data)
    cfg = _train_cfg(args)
    forest, history = train(ds, cfg)
    forest.save(args.out)
    if args.history:
        write_history_csv(history, args.history)
    final = history[-1].poprisk if history else get_loss(cfg.loss).bayes_risk(cfg.pi)
    print(f"final poprisk: {final:.6f}")
    print(f"splits applied: {len(history)}/{cfg.n_splits}")
    print(f"leaves per tree: {forest.leaf_count_summary()}")
    return 0


def cmd_generate(args) -> int:
    forest = _load_model(args.model, args.train)
    out = generate(forest, args.n, seed=args.seed, threads=args.threads)
    out.to_csv(args.out)
    print(f"wrote {out.m} rows to {args.out}")
    return 0


def _load_mask_for(path, ds) -> np.ndarray:
    mask = load_mask(path)
    if mask.shape != (ds.m, ds.d):
        raise DataError(f"mask shape {mask.shape} does not match data shape {(ds.m, ds.d)}")
    return mask


def _each_row(ds, fn) -> list:
    """``fn`` of each row's raw values; a ValueError (a value outside the
    model's domain) becomes a DataError naming the CSV row."""
    out = []
    for i in range(ds.m):
        try:
            out.append(fn(imputer.raw_row(ds, i)))
        except ValueError as e:
            raise DataError(f"row {i + 2}: {e}") from e
    return out


def cmd_impute(args) -> int:
    forest = _load_model(args.model, args.train)
    ds = load_csv(args.data, schema=forest.schema)
    if args.mask:
        ds = apply_mask(ds, _load_mask_for(args.mask, ds))
    _each_row(ds, forest.schema.check_row)
    out = imputer.impute_dataset(forest, ds, seed=args.seed, threads=args.threads)
    assert not out.missing_mask().any(), "imputation left missing cells"
    out.to_csv(args.out)
    print(f"imputed {int(ds.missing_mask().sum())} cells, wrote {args.out}")
    return 0


def cmd_density(args) -> int:
    forest = _load_model(args.model, args.train)
    ds = load_csv(args.data, schema=forest.schema)
    if ds.missing_mask().any():
        raise DataError("density requires complete observations")
    rows = _each_row(ds, forest.density)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["density", "point_mass"])
            for val, point in rows:
                w.writerow([repr(val), int(point)])
    else:
        for val, point in rows:
            print(f"{val!r}\t{'point-mass' if point else ''}".rstrip())
    return 0


def cmd_eval_impute_metrics(args) -> int:
    truth = load_csv(args.truth)
    imputed = load_csv(args.imputed, schema=truth.schema)
    if imputed.m != truth.m:
        raise DataError(f"imputed data has {imputed.m} rows, truth has {truth.m}")
    mask = _load_mask_for(args.mask, truth)
    out = {
        "perr": evaluator.perr(imputed, truth, mask),
        "rmse": evaluator.rmse(imputed, truth, mask),
    }
    print(json.dumps({k: v for k, v in out.items() if v is not None}, indent=1))
    return 0


def cmd_eval_lifelike(args) -> int:
    ds = load_csv(args.data)
    if args.generator == "forest":
        gen = evaluator.forest_generator(_train_cfg(args))
    elif args.generator == "uniform":
        gen = evaluator.uniform_generator()
    elif args.generator == "copy":
        gen = evaluator.copy_generator()
    else:
        gen = evaluator.subsample_generator()
    res = evaluator.kfold_lifelike(ds, args.k, gen, eps=args.eps, seed=args.seed)
    if args.out:
        res.to_csv(args.out)
    print(res.to_json())
    return 0


def cmd_synth(args) -> int:
    ds = synth_domain(args.name, seed=args.seed)
    if args.mcar > 0:
        ds, mask = apply_mcar(ds, args.mcar, seed=args.seed)
        if args.mask_out:
            save_mask(mask, args.mask_out)
    ds.to_csv(args.out)
    print(f"wrote {ds.m} rows to {args.out}")
    return 0


def cmd_convert(args) -> int:
    ds = load_csv(args.train)
    forest = GenerativeForest.load(args.model, dataset=ds)
    forest.to_eogt().save(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="genforest", description=__doc__)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for generate and impute (default 1: the work is "
                        "pure Python, so more threads contend for the interpreter lock and "
                        "run slower); results are identical for any value")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="fit a model to a CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--history", help="write the per-split training history CSV")
    _add_common_train_flags(t)
    t.set_defaults(fn=cmd_train)

    g = sub.add_parser("generate", help="sample observations from a model")
    g.add_argument("--model", required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--train", help="training CSV (needed by gf models)")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    i = sub.add_parser("impute", help="fill missing cells of a CSV")
    i.add_argument("--model", required=True)
    i.add_argument("--data", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--mask", help="optional 0/1 mask CSV applied before imputing")
    i.add_argument("--train", help="training CSV (needed by gf models)")
    i.add_argument("--seed", type=int, default=0)
    i.set_defaults(fn=cmd_impute)

    d = sub.add_parser("density", help="evaluate the model density at given points")
    d.add_argument("--model", required=True)
    d.add_argument("--data", required=True)
    d.add_argument("--train", help="training CSV (needed by gf models)")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_density)

    e = sub.add_parser("eval", help="metrics")
    esub = e.add_subparsers(dest="eval_command", required=True)
    em = esub.add_parser("impute-metrics", help="perr / rmse against ground truth")
    em.add_argument("--imputed", required=True)
    em.add_argument("--truth", required=True)
    em.add_argument("--mask", required=True)
    em.set_defaults(fn=cmd_eval_impute_metrics)
    el = esub.add_parser("lifelike", help="k-fold generate-and-score transport cost")
    el.add_argument("--data", required=True)
    el.add_argument("--k", type=int, default=5)
    el.add_argument("--eps", type=float, default=0.5)
    el.add_argument("--generator", choices=["forest", "uniform", "copy", "subsample"], default="forest")
    el.add_argument("--out")
    _add_common_train_flags(el)
    el.set_defaults(fn=cmd_eval_lifelike)

    s = sub.add_parser("synth", help="write a synthetic benchmark CSV")
    s.add_argument("--name", choices=sorted(SYNTH_SIZES), required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--mcar", type=float, default=0.0)
    s.add_argument("--mask-out")
    s.set_defaults(fn=cmd_synth)

    c = sub.add_parser("convert", help="turn a gf model into a standalone eogt model")
    c.add_argument("--model", required=True)
    c.add_argument("--train", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_convert)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return args.fn(args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
