"""Per-layer tracing from outside the program.

The tracer replaces module and class attributes that callers look up at call
time (``genforest.trainer.split_pred``, ``genforest.trainer.cell_risk``,
``GenerativeForest.density``, ...) with wrappers that record one span per
call. A function imported into several modules (``cell_risk`` lives in
``measure`` and is bound again in ``trainer``) is replaced under every name
that refers to it, so calls are seen whichever module makes them.

Each thread keeps its own spans and counters, merged when they are read, so
counts stay exact when calls run on the program's pool threads without a
lock on every call. Times are summed over calls; calls that overlap on
several threads each add their own duration.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _cell_risk_evals(args, kwargs, result):
    # cell_risk(loss, r, u, pi): one risk evaluation per broadcast element
    r = kwargs["r"] if "r" in kwargs else args[1]
    u = kwargs["u"] if "u" in kwargs else args[2]
    return int(np.prod(np.broadcast_shapes(np.shape(r), np.shape(u))))


def _saved_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


# (module, attribute path, metric prefix, extra counters); the extra
# counters map a metric suffix to fn(args, kwargs, result) -> int
TARGETS = [
    ("genforest.data", "load_csv", "data.load_csv", {}),
    ("genforest.data", "Dataset.content_hash", "data.content_hash", {}),
    ("genforest.data", "Dataset.routing_columns", "data.routing_columns", {}),
    ("genforest.measure", "cell_risk", "measure.cell_risk", {"evals": _cell_risk_evals}),
    ("genforest.measure", "uniform_mass", "measure.uniform_mass", {}),
    ("genforest.forest", "GenerativeForest.node_member_mask", "forest.node_member_mask", {}),
    ("genforest.forest", "GenerativeForest.density", "forest.density", {}),
    ("genforest.forest", "GenerativeForest.to_eogt", "forest.to_eogt", {}),
    ("genforest.forest", "GenerativeForest.save", "forest.save", {"bytes": _saved_bytes}),
    ("genforest.sampler", "generate", "sampler.generate", {}),
    ("genforest.sampler", "sample_one", "sampler.sample_one", {}),
    ("genforest.sampler", "star_update", "sampler.star_update", {}),
    ("genforest.sampler", "branch_probability", "sampler.branch_probability", {}),
    ("genforest.sampler", "draw_uniform", "sampler.draw_uniform", {}),
    ("genforest.trainer", "train", "trainer.train", {}),
    ("genforest.trainer", "split_pred", "trainer.split_pred",
     {"none": lambda a, k, r: int(r is None)}),
    ("genforest.imputer", "impute", "imputer.impute", {}),
    ("genforest.imputer", "conditional_tuples", "imputer.conditional_tuples",
     {"tuples": lambda a, k, r: len(r)}),
    ("genforest.evaluator", "sinkhorn_ot", "evaluator.sinkhorn_ot",
     {"iterations": lambda a, k, r: r.iterations}),
]

# per-layer metric name -> (tracer key, unit); the order is the report order
PER_LAYER = {
    "trainer.train_s": ("trainer.train:s", "s"),
    "trainer.split_pred_s": ("trainer.split_pred:s", "s"),
    "trainer.split_pred_calls": ("trainer.split_pred:calls", "count"),
    "trainer.split_pred_none": ("trainer.split_pred:none", "count"),
    "measure.cell_risk_s": ("measure.cell_risk:s", "s"),
    "measure.cell_risk_calls": ("measure.cell_risk:calls", "count"),
    "measure.cell_risk_evals": ("measure.cell_risk:evals", "count"),
    "measure.uniform_mass_s": ("measure.uniform_mass:s", "s"),
    "measure.uniform_mass_calls": ("measure.uniform_mass:calls", "count"),
    "forest.node_member_mask_s": ("forest.node_member_mask:s", "s"),
    "forest.node_member_mask_calls": ("forest.node_member_mask:calls", "count"),
    "forest.density_s": ("forest.density:s", "s"),
    "forest.density_calls": ("forest.density:calls", "count"),
    "forest.to_eogt_s": ("forest.to_eogt:s", "s"),
    "forest.save_s": ("forest.save:s", "s"),
    "forest.save_bytes": ("forest.save:bytes", "bytes"),
    "sampler.generate_s": ("sampler.generate:s", "s"),
    "sampler.sample_one_calls": ("sampler.sample_one:calls", "count"),
    "sampler.star_update_calls": ("sampler.star_update:calls", "count"),
    "sampler.branch_probability_s": ("sampler.branch_probability:s", "s"),
    "sampler.draw_uniform_s": ("sampler.draw_uniform:s", "s"),
    "imputer.impute_s": ("imputer.impute:s", "s"),
    "imputer.impute_calls": ("imputer.impute:calls", "count"),
    "imputer.conditional_tuples_s": ("imputer.conditional_tuples:s", "s"),
    "imputer.tuples_enumerated": ("imputer.conditional_tuples:tuples", "count"),
    "data.load_csv_s": ("data.load_csv:s", "s"),
    "data.content_hash_s": ("data.content_hash:s", "s"),
    "data.content_hash_calls": ("data.content_hash:calls", "count"),
    "data.routing_columns_s": ("data.routing_columns:s", "s"),
    "evaluator.sinkhorn_ot_s": ("evaluator.sinkhorn_ot:s", "s"),
    "evaluator.sinkhorn_ot_iterations": ("evaluator.sinkhorn_ot:iterations", "count"),
}


class Tracer:
    """Installs wrappers over the TARGETS and collects spans and counters.

    ``install`` and ``uninstall`` may alternate; totals accumulate over every
    installed period.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list = []  # per-thread state, merged on report
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def _state(self):
        """This thread's span stack, spans and totals; no lock per call."""
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = ([], [], defaultdict(float))
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, fn, prefix, extras):
        state, ids = self._state, self._ids
        key_s, key_calls = prefix + ":s", prefix + ":calls"
        extra_keys = [(f"{prefix}:{k}", f) for k, f in extras.items()]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans, totals = state()
            parent = stack[-1] if stack else -1
            span_id = next(ids)  # atomic under the interpreter lock
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, prefix, threading.get_ident(), t0, t1))
                totals[key_s] += t1 - t0
                totals[key_calls] += 1
            for key, f in extra_keys:
                totals[key] += f(args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, *_ in TARGETS:
            importlib.import_module(mod_name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "genforest" or name.startswith("genforest.")]
        for mod_name, attr, prefix, extras in TARGETS:
            owner = sys.modules[mod_name]
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__[name]
            wrapper = self._wrap(fn, prefix, extras)
            if path:  # a method: replace it on its class
                self._saved.append((owner, name, fn))
                setattr(owner, name, wrapper)
                continue
            # a function: replace every module binding that callers look up
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def totals(self) -> dict:
        out = defaultdict(float)
        with self._lock:
            for _, _, totals in self._threads:
                for k, v in totals.items():
                    out[k] += v
        return out

    def per_layer(self) -> dict:
        totals = self.totals()
        return {name: {"value": totals[key] if unit == "s" else int(totals[key]), "unit": unit}
                for name, (key, unit) in PER_LAYER.items()}

    def write_spans(self, path) -> None:
        """One JSON object per span: id, parent, name, thread, start, end
        (seconds on the process's performance counter)."""
        with self._lock:
            spans = sorted(s for _, thread_spans, _ in self._threads for s in thread_spans)
        with open(path, "w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "name", "thread", "start", "end"), s))))
                fh.write("\n")
