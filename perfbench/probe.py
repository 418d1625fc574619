"""CPU-speed probe.

On shared virtual machines a CPU can switch between speed levels about
1.5x apart for seconds at a time, so raw wall times of the same work differ
by up to 50 % between runs. The benchmark therefore pins itself and this
probe to one CPU. The probe wakes every ``PERIOD`` seconds, times a fixed
kernel, and on end of input writes the sample times and
durations to standard output. ``normalize`` then scales each operation's
wall time by ``K_REF`` over the kernel time measured around it: the result
is the time the operation would take on a CPU where the kernel takes
``K_REF`` seconds.

    python3 perfbench/probe.py CPU
"""

from __future__ import annotations

import array
import os
import select
import sys
import time

import numpy as np

PERIOD = 0.025
K_REF = 0.6e-3  # reference kernel time, seconds
WINDOW = 0.05  # samples this close to an operation describe its CPU speed


def kernel(a) -> float:
    """Bytecode and small-array NumPy calls, the mix the program runs."""
    d = {j: 0 for j in range(64)}
    s = 0
    for i in range(1500):
        d[i & 63] = i
        s += d[(i * 7) & 63]
    for i in range(40):
        s += float(np.sum(a * 1.5 + i))
    return s


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    a = np.arange(200.0)
    starts, durations = array.array("d"), array.array("d")
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        t0 = time.perf_counter()
        kernel(a)
        starts.append(t0)
        durations.append(time.perf_counter() - t0)
    sys.stdout.buffer.write(len(starts).to_bytes(8, "little") + starts.tobytes() + durations.tobytes())


class Probe:
    """Runs the probe process on ``cpu`` until ``stop``."""

    def __init__(self, cpu: int):
        import subprocess

        self._proc = subprocess.Popen([sys.executable, __file__, str(cpu)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.starts = self.durations = None

    def stop(self) -> None:
        out, _ = self._proc.communicate(b"stop\n", timeout=60)
        if self._proc.returncode != 0:
            raise RuntimeError(f"speed probe exited with {self._proc.returncode}")
        n = int.from_bytes(out[:8], "little")
        self.starts = np.frombuffer(out[8:8 + 8 * n])
        self.durations = np.frombuffer(out[8 + 8 * n:8 + 16 * n])

    def normalize(self, t0, t1):
        """Wall times t1 - t0 scaled to the reference CPU speed."""
        if len(self.starts) < 5:
            raise RuntimeError("speed probe took fewer than five samples")
        t0, t1 = np.asarray(t0, float), np.asarray(t1, float)
        # a rolling median of five drops samples the probe lost the CPU in
        k = np.median(np.lib.stride_tricks.sliding_window_view(
            np.pad(self.durations, 2, mode="edge"), 5), axis=1)
        csum = np.concatenate([[0.0], np.cumsum(k)])
        lo = np.searchsorted(self.starts, t0 - WINDOW)
        hi = np.searchsorted(self.starts, t1 + WINDOW)
        # an operation with no sample near it takes the nearest one
        empty = hi <= lo
        lo = np.where(empty, np.clip(lo - 1, 0, len(k) - 1), lo)
        hi = np.where(empty, lo + 1, hi)
        speed = (csum[hi] - csum[lo]) / (hi - lo)
        return (t1 - t0) * K_REF / speed


if __name__ == "__main__":
    main()
