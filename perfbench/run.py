"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run of the same inputs (spans and counters are
written under ``.perfbench/``).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any output check fails or the run cannot start.

The work happens in a child process (``perfbench.worker``) so that
imports count towards set-up time and peak RSS belongs to the process
doing the work.  Set-up runs ``SETUP_RUNS`` times; ``setup_s`` is the
median.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.clock import SpeedProbe  # noqa: E402
from perfbench.stats import median, percentile, supported  # noqa: E402
from perfbench.worker import PER_LAYER, SLO_MS  # noqa: E402

WORKLOADS = ("synth", "frontier", "serve")
SETUP_RUNS = 5
#: Hard wall-clock limit for the whole command, seconds.
TIME_LIMIT_S = 170.0

#: (name, unit) of every end-to-end metric in the JSON result line.
END_TO_END = (("setup_s", "s"), ("p50_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {
    "assign.share": "1", "engine.refreshes": "count", "engine.nodes_recomputed": "count",
    "engine.cache_hit_ratio": "1", "engine.refresh_s": "s", "engine.traceback_s": "s",
    "engine.batch_lanes": "count", "engine.batch_groups": "count", "serve.hit_ratio": "1",
    "serve.solves": "count", "serve.cache_entries": "count", "serve.retained_roots": "count",
    "obs.overhead_ratio": "1",
}


class Worker:
    """A ``perfbench.worker`` child in its own process group."""

    def __init__(self, args: argparse.Namespace, setup_only: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
        cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     stdin=subprocess.DEVNULL, text=True, start_new_session=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def next_line(self, deadline: float) -> Optional[str]:
        try:
            return self.lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise TimeoutError("worker did not answer in time") from None

    def wait_ready(self, deadline: float) -> float:
        """Seconds from spawn until the worker printed ``READY``."""
        while True:
            line = self.next_line(deadline)
            if line is None:
                raise RuntimeError(f"worker exited during set-up (code {self.proc.wait()})")
            if line == "READY":
                return time.monotonic() - self.started

    def result(self, deadline: float) -> Dict[str, Any]:
        last = None
        while True:
            line = self.next_line(deadline)
            if line is None:
                break
            last = line
        code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0 or last is None:
            raise RuntimeError(f"worker failed with exit code {code}")
        return json.loads(last)

    def kill(self) -> None:
        """Kill whatever is left of the worker's process group (server, probe)."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.reader.join(timeout=5)


def run_worker(args: argparse.Namespace, deadline: float) -> Tuple[List[float], Dict[str, Any]]:
    setups: List[float] = []
    probe = SpeedProbe(every_s=0.0)
    for i in range(SETUP_RUNS):
        scale = probe.poll()
        worker = Worker(args, setup_only=i < SETUP_RUNS - 1)
        try:
            setups.append(worker.wait_ready(deadline) * scale)
            if i == SETUP_RUNS - 1:
                return setups, worker.result(deadline)
            worker.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            worker.kill()
    raise AssertionError("unreachable")


def pct(values: List[float], p: float) -> Optional[float]:
    return percentile(values, p) if supported(len(values), p) else None


def end_to_end(workload: str, setups: List[float], res: Dict[str, Any]) -> Dict[str, Any]:
    """Every end-to-end number of a run; ``None`` where the sample is too small.

    Timings are at nominal machine speed (see ``perfbench/clock.py``);
    ``raw.*`` are as measured.  ``slo_ratio`` judges raw latencies,
    because the limit is a user's.
    """
    lat = res["latencies_ms"]
    out: Dict[str, Any] = {
        "setup_s": median(setups),
        "p50_ms": pct(res.get("slot_ms", lat), 50),
        "ops_per_s": res["work"] / res["busy_s"],
        "raw.p50_ms": pct(res.get("raw_slot_ms", res.get("raw_latencies_ms", [])), 50),
        "raw.ops_per_s": res["work"] / res["raw_busy_s"],
        "p90_ms": pct(lat, 90),
        "fail_ratio": res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    if workload == "serve":
        out.update({
            "warm_p50_ms": pct(res["warm_ms"], 50), "warm_p90_ms": pct(res["warm_ms"], 90),
            "cold_p50_ms": pct(res["cold_ms"], 50), "cold_p90_ms": pct(res["cold_ms"], 90),
            "slo_ratio": res["slo_ok"] / res["attempted"],
            "loadgen.late_p90_ms": pct(res["late_ms"], 90),
        })
    return out


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "fail_ratio": "1", "peak_rss_mb": "MB",
         "slo_ratio": "1", "raw.ops_per_s": "1/s"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups, res = run_worker(args, deadline)
    except (RuntimeError, TimeoutError, ValueError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} "
          f"({res.get('passes', 1)} pass(es), {res['attempted']} ops attempted, "
          f"{res['failed']} failed)")
    for op_id, problems in res["problems"].items():
        print(f"  CHECK FAILED {op_id}: {'; '.join(problems)}")
    if args.trace:
        metrics = {name: res["per_layer"].get(name, 0.0) for name in PER_LAYER}
        for name in PER_LAYER:
            unit = PER_LAYER_UNITS.get(name, "ms")
            print(f"  {name:<26} {metrics[name]:12.4f} {unit}")
        print(f"  trace files: {', '.join(res['trace_files'])}")
        json_metrics = {name: {"value": metrics[name], "unit": PER_LAYER_UNITS.get(name, "ms")}
                        for name in PER_LAYER}
    else:
        numbers = end_to_end(args.workload, setups, res)
        for name, value in numbers.items():
            unit = UNITS.get(name, "ms")
            shown = "n/a (too few samples)" if value is None else f"{value:12.4f}"
            print(f"  {name:<26} {shown} {unit}")
        if args.workload == "serve":
            print(f"  slo limit {SLO_MS:g} ms; per class sent/succeeded/failed:")
            for cls, row in sorted(res["classes"].items()):
                print(f"    {cls:<16} {row['sent']:4d} {row['succeeded']:4d} {row['failed']:4d}")
        json_metrics = {name: {"value": numbers[name], "unit": unit} for name, unit in END_TO_END}
        missing = [name for name, _ in END_TO_END if numbers[name] is None]
        if missing:
            print(f"error: too few samples for {missing}", file=sys.stderr)
            return 1
    print(f"output digest {res['digest']}")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": json_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
