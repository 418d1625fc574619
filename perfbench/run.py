#!/usr/bin/env python3
"""genforest benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload fit-2d --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Inputs,
the model file and the span file go to ``.perfbench_out`` in the checkout.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


_T0 = time.perf_counter()
_AGE0 = _process_age()  # before the heavy imports, so set-up counts them

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import genforest from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import genforest
    except ImportError as e:
        sys.exit(f"perfbench: cannot import genforest from {src}: {e}")
    if Path(genforest.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: genforest imported from {genforest.__file__}, not from {src}")
    import genforest.evaluator  # noqa: F401  (not imported by the package itself)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one CPU for the benchmark and its speed probe, which must see the CPU
    # the requests run on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    from probe import Probe

    probe = Probe(cpu)
    t_probe = time.perf_counter()
    age_at_probe = _AGE0 + (t_probe - _T0)
    try:
        return run(ap, args, probe, t_probe, age_at_probe)
    finally:
        if probe.starts is None:
            probe.stop()


def run(ap, args, probe, t_probe, age_at_probe) -> int:
    _import_program()
    from checks import CheckError
    from tracing import Tracer
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    ledger = Ledger()
    w = WORKLOADS[args.workload](args.seed, ledger, str(out_dir))
    tracer = Tracer() if args.trace else None

    if tracer:
        tracer.install()
    w.setup()
    t_setup = time.perf_counter()
    if tracer:
        # one untraced round, then the same round traced: the gap is the
        # tracing overhead, and the traced round gives the per-layer figures
        tracer.uninstall()
        rounds = [time.perf_counter()]
        w.round()
        rounds.append(time.perf_counter())
        tracer.install()
        w.round()
        rounds.append(time.perf_counter())
        tracer.uninstall()
    else:
        start = time.perf_counter()
        while True:
            w.round()
            if time.perf_counter() - start >= args.seconds:
                break
    w.evaluate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    ledger.summarize(probe.normalize)
    setup_s = age_at_probe + float(probe.normalize([t_probe], [t_setup])[0])

    if tracer:
        tracer.install()  # the checks call the program only for sinkhorn_ot
    try:
        quality = w.run_checks()
        correct = True
    except CheckError as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        quality, correct = None, False
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        metrics = tracer.per_layer()
        base_s, traced_s = probe.normalize(rounds[:2], rounds[1:])
        metrics["trace.overhead_pct"] = {"value": float(100.0 * (traced_s - base_s) / base_s), "unit": "%"}
        tracer.write_spans(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    elif correct:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in w.end_to_end(quality, setup_s, peak_rss_mb).items()}
    else:
        metrics = {}
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": metrics}
    line = json.dumps(result)
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
