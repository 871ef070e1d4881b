"""The benchmark's own spans, recorded around calls into the program.

A :class:`Recorder` keeps spans in memory (name, op id, start, end,
parent) and writes them out once, at the end of a traced run.
:meth:`Recorder.wrap` swaps a module attribute (or a dict entry) for a
timed wrapper for the length of a ``with`` block; nothing inside
``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional


class Recorder:
    """In-memory span store with one open-span stack per recorder."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            op: Optional[str] = None) -> int:
        """Record a finished span; returns its id."""
        self.spans.append({
            "id": len(self.spans), "name": name, "op": op if op is not None else self.op,
            "start": start, "end": end, "parent": parent,
        })
        return len(self.spans) - 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the ``with`` body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.monotonic(), 0.0, parent)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.monotonic()

    def timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def wrap(self, target: Any, attr: Any, name: str) -> Iterator[None]:
        """Replace ``target.attr`` (or ``target[attr]`` for a dict) by a timed wrapper."""
        is_dict = isinstance(target, dict)
        original = target[attr] if is_dict else getattr(target, attr)
        wrapped = self.timed(name, original)
        if is_dict:
            target[attr] = wrapped
        else:
            setattr(target, attr, wrapped)
        try:
            yield
        finally:
            if is_dict:
                target[attr] = original
            else:
                setattr(target, attr, original)

    def write(self, path: str) -> None:
        """Write every span, with its self time, as one JSON line."""
        own = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(record, self_s=own[record["id"]]), sort_keys=True) + "\n")


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span duration minus the part of it that its children cover."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    out: Dict[int, float] = {}
    for record in spans:
        covered, cursor = 0.0, record["start"]
        for child in sorted(children.get(record["id"], []), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], record["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["id"]] = (record["end"] - record["start"]) - covered
    return out


def total(spans: List[Dict[str, Any]], name: str) -> float:
    """Summed duration (seconds) of every span called ``name``."""
    return sum(r["end"] - r["start"] for r in spans if r["name"] == name)
