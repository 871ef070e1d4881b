"""Machine-speed calibration: a fixed reference loop timed inside each run.

The benchmark shares its machine with other tenants, and the speed of
the same code drifts by up to 2x, in bursts of a second or two and over
minutes.  So every timing is taken next to a fresh timing of this
reference loop (pure Python, like most of the program) and reported as
it would read at the loop's nominal speed:

    reported = raw * REF_NOMINAL_S / (reference time just before)

The loop is the benchmark's own code, so no change to the program can
move it, and a real speed-up of the program shows in full.  Raw values
are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time
from typing import List, Tuple

from .stats import median

#: The reference loop's time on an unloaded 2-vCPU, 2.0 GHz VM (where the
#: benchmark was defined).  Only sets the scale of reported timings.
REF_NOMINAL_S = 0.00125
REPS = 5


def _reference_loop() -> List[int]:
    d: dict = {}
    for i in range(10000):
        k = i & 255
        d[k] = d.get(k, 0) + i * i
    return sorted(d.values())


def reference_s() -> float:
    """Median of a few timed reference loops, seconds."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return median(times)


class SpeedProbe:
    """The latest reference time, refreshed at most every ``every_s`` seconds.

    Call :meth:`poll` between timed regions, in the thread that does the
    timing; :meth:`scale` turns a raw timing taken just after into its
    nominal-speed value.  The speed of this machine changes within a
    second or two, so a run-wide average would not track it.
    """

    def __init__(self, every_s: float = 0.25):
        self.every_s = every_s
        self.latest = REF_NOMINAL_S
        self._next = 0.0

    def poll(self) -> float:
        """Refresh the reference time if it is due; returns the current scale."""
        now = time.perf_counter()
        if now >= self._next:
            self.latest = reference_s()
            self._next = time.perf_counter() + self.every_s
        return self.scale()

    def scale(self) -> float:
        return REF_NOMINAL_S / self.latest


class ProbeProcess:
    """A child process timing the reference loop every ``every_s`` seconds.

    Used where the timed work runs in other processes (the serve
    workload): probing there from the load generator would compete with
    its sender threads for the interpreter lock.  Samples are
    ``(time.monotonic(), reference seconds)`` pairs.
    """

    def __init__(self, every_s: float = 0.25):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=root)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.clock", str(every_s)], cwd=root, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: List[Tuple[float, float]] = []

    def stop(self) -> None:
        """Stop sampling and collect the samples."""
        try:
            out, _ = self.proc.communicate("", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.samples = [tuple(json.loads(line)) for line in out.splitlines() if line]

    def scale_at(self, when: float) -> float:
        """Scale from the last sample taken at or before ``when``."""
        times = [t for t, _ in self.samples]
        i = max(0, bisect.bisect_right(times, when) - 1)
        return REF_NOMINAL_S / self.samples[i][1]


def _sample_until_eof(every_s: float) -> None:
    while True:
        print(json.dumps([time.monotonic(), reference_s()]), flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], every_s)
        if ready and not sys.stdin.readline():
            return


if __name__ == "__main__":
    _sample_until_eof(float(sys.argv[1]))
