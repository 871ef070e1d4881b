"""Traced serve process: ``repro.serve`` with benchmark-owned spans.

Serves ``/v1/*`` exactly like ``repro-hls serve --port 0`` but through a
:class:`SynthesisService` subclass that times the public
``solve_batch`` and snapshots the service counters around it, with
``repro.io.canonical_order`` wrapped in a span as well.  It prints its
port, serves until a line (or EOF) arrives on stdin, then prints one
JSON line with the spans, per-op counters, cache size, retained trace
roots and peak RSS, and exits.
"""

from __future__ import annotations

import json
import sys
import threading
from contextlib import ExitStack
from typing import Any, Dict, List, Sequence

import repro.io
import repro.serve.jobs
from repro.obs import Tracer
from repro.serve import SynthesisService, make_server
from repro.serve.jobs import Request, Response

from .spans import Recorder
from .worker import peak_rss_mb


class TracedService(SynthesisService):
    """Records one ``serve.batch`` span and counter delta per batch."""

    def __init__(self, recorder: Recorder, **kwargs: Any):
        super().__init__(**kwargs)
        self.recorder = recorder
        self.ops: List[Dict[str, Any]] = []

    def solve_batch(self, requests: Sequence[Request]) -> List[Response]:
        self.recorder.op = requests[0].label if requests else None
        before = self.metrics()
        try:
            with self.recorder.span("serve.batch"):
                return super().solve_batch(requests)
        finally:
            after = self.metrics()
            self.ops.append({
                "op": self.recorder.op,
                "requests": len(requests),
                "counters": {k: v - before.get(k, 0.0) for k, v in after.items()
                             if v != before.get(k, 0.0)},
            })


def main() -> int:
    recorder = Recorder()
    service = TracedService(recorder, tracer=Tracer())
    server = make_server("127.0.0.1", 0, service)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    with ExitStack() as stack:
        stack.enter_context(recorder.wrap(repro.io, "canonical_order", "io.canonicalize"))
        stack.enter_context(recorder.wrap(repro.serve.jobs, "canonical_order", "io.canonicalize"))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        sys.stdin.readline()
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
    print(json.dumps({
        "spans": recorder.spans,
        "ops": service.ops,
        "cache_entries": len(service.cache),
        "retained_roots": len(service.tracer.roots),
        "peak_rss_mb": peak_rss_mb(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
