"""One workload run: set up, print ``READY``, measure, print one JSON line.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` with
``src`` on ``PYTHONPATH``.  The closed loops (``synth``, ``frontier``)
run inside this process; ``serve`` drives a server process over HTTP
from here.  With ``--trace 1`` the same op sequence runs untraced and
traced, and the traced pass records spans and program counters.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import inputs
from .check import check_frontier, check_outcome, translate
from .clock import ProbeProcess, SpeedProbe
from .spans import Recorder, total
from .stats import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Closed loops: nominal seconds per pass of the op list (sets the pass count).
PASS_SECONDS = {"synth": 5.0, "frontier": 10.0}
#: serve: a request answered correctly within this many ms meets the SLO.
SLO_MS = 250.0
#: serve: connections the load generator may hold open at once.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: serve: per-request socket timeout, seconds.
REQUEST_TIMEOUT_S = 30.0

PER_LAYER = (
    "assign.ms", "assign.share", "sched.lower_bound_ms", "sched.min_r_ms",
    "engine.refreshes", "engine.nodes_recomputed", "engine.cache_hit_ratio",
    "engine.refresh_s", "engine.traceback_s", "engine.batch_lanes",
    "engine.batch_groups", "io.canonicalize_ms", "serve.batch_ms",
    "serve.http_ms", "serve.wait_ms", "serve.hit_ratio", "serve.solves",
    "serve.cache_entries", "serve.retained_roots", "obs.overhead_ratio",
    "loadgen.late_p90_ms",
)


def peak_rss_mb(pid: Any = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def digest(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# closed loops: synth and frontier
# ----------------------------------------------------------------------
class ClosedLoop:
    """A fixed op list run in whole passes by one caller."""

    def __init__(self, workload: str, seed: int):
        import repro
        from repro.errors import InfeasibleError

        self.workload = workload
        self.repro = repro
        self.infeasible = InfeasibleError
        raw = inputs.synth_ops(seed) if workload == "synth" else inputs.frontier_ops(seed)
        self.ops = [dict(op, program=inputs.to_repro(op["inst"])) for op in raw]
        self.probe = SpeedProbe()

    def call(self, op: Dict[str, Any]) -> Tuple[Any, Optional[str]]:
        """One op: the public call only, no checking."""
        dfg, table = op["program"]
        try:
            if self.workload == "synth":
                doc = self.repro.synthesize(dfg, table, op["deadline"]).to_dict()
                doc.pop("timings")
                return doc, None
            points = self.repro.assign.dfg_frontier(dfg, table, max_deadline=op["max_deadline"])
            return [
                {"deadline": p.deadline, "cost": p.cost, "assignment": dict(p.assignment.items())}
                for p in points
            ], None
        except self.infeasible:
            return None, "InfeasibleError"
        except Exception as exc:  # an unexpected failure is a counted outcome
            return None, f"{type(exc).__name__}: {exc}"

    def warm_up(self) -> None:
        """Untimed calls so lazy imports and first-call costs land outside the loop.

        synth calls one op per graph and verdict (the ops take several code
        paths); every frontier op takes one path, so its smallest op suffices.
        """
        if self.workload == "synth":
            firsts: Dict[Tuple[str, bool], Dict[str, Any]] = {}
            for op in self.ops:
                key = (op["inst"]["name"], op["deadline"] < inputs.tmin(op["inst"]))
                firsts.setdefault(key, op)
            ops = list(firsts.values())
        else:
            ops = [min(self.ops, key=lambda op: len(op["inst"]["nodes"]))]
        for op in ops:
            self.call(op)

    def check(self, op: Dict[str, Any], out: Any, err: Optional[str]) -> List[str]:
        if self.workload == "synth":
            return check_outcome(op["inst"], op["deadline"], out, err)
        if err is not None:
            return [f"frontier raised {err}"]
        return check_frontier(op["inst"], op["max_deadline"], out)

    def work(self, op: Dict[str, Any]) -> int:
        """Ops counted by ``ops_per_s``: instances, or deadline points swept."""
        if self.workload == "synth":
            return 1
        return op["max_deadline"] - inputs.tmin(op["inst"]) + 1

    def run_pass(self, expected: Dict[str, str], problems: Dict[str, List[str]],
                 wrap: Optional[Callable[[Dict[str, Any]], Any]] = None
                 ) -> List[Tuple[float, float]]:
        """Run every op once; returns per-op (raw, nominal-speed) seconds.

        The first pass checks each output and records its digest; later
        passes must reproduce the digest exactly.
        """
        call = wrap or self.call
        latencies = []
        for op in self.ops:
            scale = self.probe.poll()
            t0 = time.perf_counter()
            out, err = call(op)
            raw = time.perf_counter() - t0
            latencies.append((raw, raw * scale))
            d = digest([out, err])
            if op["id"] not in expected:
                expected[op["id"]] = d
                found = self.check(op, out, err)
                if found:
                    problems[op["id"]] = found
            elif expected[op["id"]] != d:
                problems.setdefault(op["id"], []).append("output differs from the first pass")
        return latencies

    def passes(self, seconds: float) -> int:
        """Whole passes that fill about ``seconds`` at nominal machine speed.

        A fixed count (not "until the clock runs out") keeps every run's
        sample the same size whatever the machine's speed that minute.
        """
        return max(2, round(seconds / PASS_SECONDS[self.workload]))

    def measure(self, seconds: float) -> Dict[str, Any]:
        """Each op's time is its median over the passes."""
        expected: Dict[str, str] = {}
        problems: Dict[str, List[str]] = {}
        self.warm_up()
        passes = self.passes(seconds)
        runs = [self.run_pass(expected, problems) for _ in range(passes)]
        per_op = [(median([r[k][0] for r in runs]), median([r[k][1] for r in runs]))
                  for k in range(len(self.ops))]
        failed_ids = set(problems)
        return {
            "latencies_ms": [x[1] * 1000.0 for x in per_op],
            "raw_latencies_ms": [x[0] * 1000.0 for x in per_op],
            "work": sum(self.work(op) for op in self.ops),
            "busy_s": sum(x[1] for x in per_op),
            "raw_busy_s": sum(x[0] for x in per_op),
            "passes": passes,
            "attempted": passes * len(self.ops),
            "failed": passes * len(failed_ids),
            "problems": {k: v[:3] for k, v in sorted(problems.items())[:10]},
            "digest": digest([expected[op["id"]] for op in self.ops]),
            "peak_rss_mb": peak_rss_mb(),
        }

    # -- traced run -----------------------------------------------------
    def root_span(self) -> str:
        """The benchmark's span around one op: the public call itself."""
        return "synthesize" if self.workload == "synth" else "assign"

    def traced_call(self, recorder: Recorder,
                    counters: List[Dict[str, float]]) -> Callable[[Dict[str, Any]], Any]:
        """One op under a fresh installed Tracer, inside the op's root span."""
        from repro.obs import Tracer, use_tracer

        def call(op: Dict[str, Any]) -> Tuple[Any, Optional[str]]:
            tracer = Tracer()
            recorder.op = op["id"]
            with use_tracer(tracer), recorder.span(self.root_span()):
                result = self.call(op)
            counters.append({k: c.value for k, c in tracer.metrics.counters.items()})
            return result

        return call

    def layer_spans(self, recorder: Recorder) -> ExitStack:
        """synth: spans around the phase-1 and phase-2 calls ``synthesize`` makes."""
        stack = ExitStack()
        if self.workload == "synth":
            import repro.synthesis as synthesis

            stack.enter_context(
                recorder.wrap(synthesis, "lower_bound_configuration", "sched.lower_bound"))
            stack.enter_context(recorder.wrap(synthesis, "min_resource_schedule", "sched.min_r"))
            for name in list(synthesis.ALGORITHMS):
                stack.enter_context(recorder.wrap(synthesis.ALGORITHMS, name, "assign"))
        return stack

    def measure_traced(self, seconds: float) -> Dict[str, Any]:
        recorder = Recorder()
        counters: List[Dict[str, float]] = []
        expected: Dict[str, str] = {}
        problems: Dict[str, List[str]] = {}
        plain_s = traced_s = 0.0
        traced_ops = 0
        self.warm_up()
        traced = self.traced_call(recorder, counters)
        for _ in range(max(1, self.passes(seconds) // 2)):
            plain_s += sum(x[1] for x in self.run_pass(expected, problems))
            with self.layer_spans(recorder):
                traced_s += sum(x[1] for x in self.run_pass(expected, problems, wrap=traced))
            traced_ops += len(self.ops)
        spans = recorder.spans
        summed = sum_counters(counters)
        op_wall = total(spans, self.root_span())
        phase1 = total(spans, "assign")
        metrics = engine_metrics(summed, traced_ops)
        metrics.update({
            "assign.ms": 1000.0 * phase1 / traced_ops,
            "assign.share": ratio(phase1, op_wall),
            "sched.lower_bound_ms": 1000.0 * total(spans, "sched.lower_bound") / traced_ops,
            "sched.min_r_ms": 1000.0 * total(spans, "sched.min_r") / traced_ops,
            "obs.overhead_ratio": ratio(traced_s, plain_s) - 1.0,
        })
        return {
            "per_layer": metrics, "spans": spans, "counters": counters,
            "attempted": 2 * traced_ops, "failed": len(problems),
            "problems": {k: v[:3] for k, v in sorted(problems.items())[:10]},
            "digest": digest([expected[op["id"]] for op in self.ops]),
        }


def sum_counters(rows: List[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for row in rows:
        for k, v in row.items():
            out[k] = out.get(k, 0.0) + v
    return out


def engine_metrics(c: Dict[str, float], ops: int) -> Dict[str, float]:
    """``dp.*`` per op and ``engine.batch.*`` per run, from program counters."""
    return {
        "engine.refreshes": c.get("dp.refreshes", 0.0) / ops,
        "engine.nodes_recomputed": c.get("dp.nodes_recomputed", 0.0) / ops,
        "engine.cache_hit_ratio": ratio(c.get("dp.cache_hits", 0.0), c.get("dp.nodes_visited", 0.0)),
        "engine.refresh_s": c.get("dp.seconds_refresh", 0.0) / ops,
        "engine.traceback_s": c.get("dp.seconds_traceback", 0.0) / ops,
        "engine.batch_lanes": c.get("engine.batch.lanes", 0.0),
        "engine.batch_groups": c.get("engine.batch.groups", 0.0),
    }


# ----------------------------------------------------------------------
# serve: open loop against a server process
# ----------------------------------------------------------------------
class ServerProcess:
    """A serve process on an ephemeral port, started and stopped here."""

    def __init__(self, traced: bool):
        env = dict(os.environ)
        paths = [os.path.join(ROOT, "src")] + ([ROOT] if traced else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        cmd = [sys.executable, "-m", "perfbench.server"] if traced else \
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self.traced = traced
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "server.log"), "a", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                stdin=subprocess.PIPE if traced else subprocess.DEVNULL, text=True,
            )
        line = self.proc.stdout.readline() if self.proc.stdout else ""
        match = re.search(r"http://([^:]+):(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"server did not report its port: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _ = self.request("GET", "/v1/health", None)
                if status == 200:
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never answered /v1/health")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: Optional[bytes]) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self) -> Dict[str, Any]:
        """Stop the server; the traced server reports its spans on exit."""
        report: Dict[str, Any] = {}
        if self.proc.poll() is None:
            report["peak_rss_mb"] = peak_rss_mb(self.proc.pid)
        try:
            if self.traced and self.proc.poll() is None:
                out, _ = self.proc.communicate("stop\n", timeout=30)
                lines = out.strip().splitlines()
                if lines:
                    report.update(json.loads(lines[-1]))
            else:
                self.proc.send_signal(signal.SIGINT)
                self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return report


class OpenLoop:
    """The serve workload: pre-warm, then replay the arrival schedule."""

    def __init__(self, seed: int, seconds: float):
        self.plan = inputs.serve_plan(seed, seconds)
        self.server: Optional[ServerProcess] = None
        self.warm_results: List[Optional[Dict[str, Any]]] = []

    def start(self, traced: bool) -> List[str]:
        """Start a server and pre-warm its cache; returns setup problems."""
        self.server = ServerProcess(traced)
        problems: List[str] = []
        self.warm_results = []
        for entry in self.plan["prewarm"]:
            status, data = self.server.request("POST", "/v1/batch", entry["body"])
            result = None
            if status != 200:
                problems.append(f"{entry['id']}: HTTP {status}")
            else:
                response = json.loads(data)["responses"][0]
                result = response["result"]
                found = check_outcome(entry["inst"], entry["deadline"], result, None)
                problems.extend(f"{entry['id']}: {p}" for p in found)
            self.warm_results.append(result)
        return problems

    def stop(self) -> Dict[str, Any]:
        assert self.server is not None
        report = self.server.stop()
        self.server = None
        return report

    def _send(self, op: Dict[str, Any], due: float) -> Dict[str, Any]:
        assert self.server is not None
        rec: Dict[str, Any] = {"sent": time.monotonic(), "due": due}
        try:
            rec["status"], rec["data"] = self.server.request("POST", "/v1/batch", op["body"])
        except (OSError, http.client.HTTPException) as exc:
            rec.update(status=0, data=b"", error=f"{type(exc).__name__}: {exc}")
        rec["end"] = time.monotonic()
        return rec

    def replay(self) -> List[Dict[str, Any]]:
        """Send every op at its due time; latency counts from due time.

        A probe process times the reference loop meanwhile, so each
        request carries the machine-speed scale of its moment.
        """
        ops = self.plan["ops"]
        probe = ProbeProcess()
        try:
            t0 = time.monotonic() + 0.1
            with ThreadPoolExecutor(max_workers=CONNECTIONS) as pool:
                futures = []
                for op in ops:
                    due = t0 + op["due"]
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    futures.append(pool.submit(self._send, op, due))
                records = [f.result() for f in futures]
        finally:
            probe.stop()
        for rec in records:
            rec["scale"] = probe.scale_at(rec["due"])
        return records

    def check(self, op: Dict[str, Any], rec: Dict[str, Any]) -> Tuple[List[str], Any]:
        """Problems of one POST, and the response content for the digest."""
        if rec["status"] != 200:
            return [rec.get("error") or f"HTTP {rec['status']}"], None
        responses = json.loads(rec["data"])["responses"]
        content = [{k: r[k] for k in ("key", "ok", "label", "result", "error")} for r in responses]
        if len(responses) != len(op["checks"]):
            return [f"{len(responses)} responses for {len(op['checks'])} requests"], content
        problems: List[str] = []
        for r, want in zip(responses, op["checks"]):
            if r["label"] != op["id"]:
                problems.append(f"label {r['label']!r} echoed for {op['id']!r}")
            err = r["error"]["type"] if r["error"] else None
            problems.extend(check_outcome(want["inst"], want["deadline"], r["result"], err))
            if "warm" in want and not problems:
                cold = self.warm_results[want["warm"]]
                got = r["result"] if want["back"] is None else translate(r["result"], want["back"])
                if got != cold:
                    problems.append("warm response differs from its cold response")
        return problems, content

    def evaluate(self, records: List[Dict[str, Any]]) -> Dict[str, Any]:
        ops = self.plan["ops"]
        problems: Dict[str, List[str]] = {}
        contents = []
        classes: Dict[str, Dict[str, int]] = {}
        lat: Dict[str, List[float]] = {"all": [], "warm": [], "cold": [], "raw": []}
        ok_in_slo = 0
        for op, rec in zip(ops, records):
            found, content = self.check(op, rec)
            contents.append([op["id"], content])
            row = classes.setdefault(op["class"], {"sent": 0, "succeeded": 0, "failed": 0})
            row["sent"] += 1
            raw_ms = 1000.0 * (rec["end"] - rec["due"])
            ms = raw_ms * rec["scale"]
            lat["raw"].append(raw_ms)
            if found:
                problems[op["id"]] = found
                row["failed"] += 1
            else:
                row["succeeded"] += 1
                ok_in_slo += raw_ms <= SLO_MS
            lat["all"].append(ms)
            lat["warm" if op["class"].startswith("warm") else "cold"].append(ms)
        t_first = min(r["due"] for r in records)
        t_last = max(r["end"] for r in records)
        # A slot's best round: a burst of machine load lengthens the queue,
        # which the speed scale cannot undo, and a later round usually
        # misses the burst.
        slots: Dict[int, List[Tuple[float, float]]] = {}
        for op, ms, raw_ms in zip(ops, lat["all"], lat["raw"]):
            slots.setdefault(op["slot"], []).append((ms, raw_ms))
        return {
            "latencies_ms": lat["all"],
            "slot_ms": [min(x[0] for x in slots[k]) for k in sorted(slots)],
            "raw_slot_ms": [min(x[1] for x in slots[k]) for k in sorted(slots)],
            "warm_ms": lat["warm"],
            "cold_ms": lat["cold"],
            "late_ms": [1000.0 * (r["sent"] - r["due"]) for r in records],
            "work": len(ops) - len(problems),
            "busy_s": t_last - t_first,
            "raw_busy_s": t_last - t_first,
            "attempted": len(ops),
            "failed": len(problems),
            "slo_ok": ok_in_slo,
            "classes": classes,
            "problems": {k: v[:3] for k, v in sorted(problems.items())[:10]},
            "digest": digest(contents),
        }

    def measure(self) -> Dict[str, Any]:
        result = self.evaluate(self.replay())
        result.update(self.stop())
        return result

    def measure_traced(self, setup_problems: List[str]) -> Dict[str, Any]:
        """Untraced replay on ``repro-hls serve``, then traced on the benchmark server."""
        plain = self.evaluate(self.replay())
        self.stop()
        setup_problems.extend(self.start(traced=True))
        records = self.replay()
        traced = self.evaluate(records)
        report = self.stop()
        recorder = Recorder()
        measured = {op["id"]: (op, rec) for op, rec in zip(self.plan["ops"], records)}
        per_op = {row["op"]: row for row in report.get("ops", [])}
        server_spans = report.get("spans", [])
        batch_by_op = {s["op"]: s for s in server_spans if s["name"] == "serve.batch"}
        canon = sum(s["end"] - s["start"] for s in server_spans
                    if s["name"] == "io.canonicalize" and s["op"] in measured)
        counters = sum_counters([per_op[k]["counters"] for k in measured if k in per_op])
        instances = sum(per_op[k]["requests"] for k in measured if k in per_op)
        batch_s = http_s = wait_s = 0.0
        for op_id, (op, rec) in measured.items():
            root = recorder.add("serve.request", rec["due"], rec["end"], op=op_id)
            post = recorder.add("serve.post", rec["sent"], rec["end"], parent=root, op=op_id)
            span = batch_by_op.get(op_id)
            if span is None:
                continue
            batch = recorder.add("serve.batch", span["start"], span["end"], parent=post, op=op_id)
            for s in server_spans:
                if s["op"] == op_id and s["name"] == "io.canonicalize":
                    recorder.add(s["name"], s["start"], s["end"], parent=batch, op=op_id)
            batch_s += span["end"] - span["start"]
            http_s += (rec["end"] - rec["sent"]) - (span["end"] - span["start"])
            wait_s += span["start"] - rec["due"]
        n = len(measured)
        hits = counters.get("serve.cache.hits", 0.0)
        misses = counters.get("serve.cache.misses", 0.0)
        from .stats import percentile

        metrics = engine_metrics(counters, n)
        metrics.update({
            "io.canonicalize_ms": 1000.0 * ratio(canon, instances),
            "serve.batch_ms": 1000.0 * batch_s / n,
            "serve.http_ms": 1000.0 * http_s / n,
            "serve.wait_ms": 1000.0 * wait_s / n,
            "serve.hit_ratio": ratio(hits, hits + misses),
            "serve.solves": counters.get("serve.solves", 0.0),
            "serve.cache_entries": float(report.get("cache_entries", 0)),
            "serve.retained_roots": float(report.get("retained_roots", 0)),
            "obs.overhead_ratio": ratio(sum(traced["latencies_ms"]), sum(plain["latencies_ms"])) - 1.0,
            "loadgen.late_p90_ms": percentile(plain["late_ms"], 90),
        })
        failed = plain["failed"] + traced["failed"] + (plain["digest"] != traced["digest"])
        problems = dict(plain["problems"], **traced["problems"])
        if plain["digest"] != traced["digest"]:
            problems["digest"] = ["traced outputs differ from untraced outputs"]
        return {
            "per_layer": metrics, "spans": recorder.spans, "counters": [per_op[k] for k in sorted(per_op)],
            "attempted": plain["attempted"] + traced["attempted"], "failed": failed,
            "problems": problems, "digest": plain["digest"],
        }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=("synth", "frontier", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup_problems: List[str] = []
    if args.workload == "serve":
        runner: Any = OpenLoop(args.seed, args.seconds)
        setup_problems = runner.start(traced=False)
    else:
        runner = ClosedLoop(args.workload, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        if args.workload == "serve":
            runner.stop()
        return 0

    if args.trace:
        result = runner.measure_traced(args.seconds) if args.workload != "serve" \
            else runner.measure_traced(setup_problems)
        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
        recorder = Recorder()
        recorder.spans = result.pop("spans")
        recorder.write(stem + ".spans.jsonl")
        with open(stem + ".counters.json", "w", encoding="utf-8") as fh:
            json.dump(result.pop("counters"), fh, sort_keys=True)
        result["trace_files"] = [stem + ".spans.jsonl", stem + ".counters.json"]
    else:
        result = runner.measure(args.seconds) if args.workload != "serve" else runner.measure()
    if setup_problems:
        result["failed"] += 1
        result["problems"]["setup"] = setup_problems[:3]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
