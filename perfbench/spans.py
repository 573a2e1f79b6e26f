"""Host-time spans around calls into the program's public functions.

The benchmark never edits the program's files to trace it.  Instead a
:class:`SpanRecorder` replaces, at run time in the traced process, a
public function or method by a thin
wrapper that records one span per call — name, start, end, parent span
and the spec the call belongs to — and calls the original.  Spans stay
in memory and are written out as JSON lines when the run ends.

A span's spec is either given by the wrapper (``spec_of``) or inherited
from its parent, so every span below one spec's root shares its ID.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from checks import CheckFailed

SpecOf = Callable[[Tuple[Any, ...], Dict[str, Any]], Optional[str]]
AttrsOf = Callable[[Tuple[Any, ...], Dict[str, Any], Any], Dict[str, Any]]


class SpanRecorder:
    """Records nested spans (single-threaded: one open-span stack)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def open(self, name: str, spec: Optional[str] = None) -> Dict[str, Any]:
        parent = self._stack[-1] if self._stack else None
        if spec is None and parent is not None:
            spec = parent["spec"]
        span = {"id": len(self.spans) + 1, "name": name,
                "parent": parent["id"] if parent is not None else None,
                "spec": spec, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")

    @contextmanager
    def span(self, name: str,
             spec: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        """Record the ``with`` block as one span; yields the span."""
        span = self.open(name, spec)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, owner: Any, attr: str, name: str,
             spec_of: Optional[SpecOf] = None,
             attrs_of: Optional[AttrsOf] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = getattr(owner, attr)
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            spec = spec_of(args, kwargs) if spec_of is not None else None
            span = recorder.open(name, spec)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped function (newest first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def read_spans(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name (a nested
    call of the same function is not counted twice).  Self time is a
    span's duration minus the part of it its child spans cover.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"],
                               {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["self_s"] += duration - _covered(children.get(span["id"], ()))
        ancestor = by_id.get(span["parent"])
        while ancestor is not None and ancestor["name"] != span["name"]:
            ancestor = by_id.get(ancestor["parent"])
        if ancestor is None:
            row["inclusive_s"] += duration
    return table


def check_spans(spans: List[Dict[str, Any]]) -> None:
    """Every span closed, nested in its parent, and on its parent's spec."""
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            raise CheckFailed(
                f"span {span['id']} ({span['name']}) not closed")
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        if span["start"] < parent["start"] or span["end"] > parent["end"]:
            raise CheckFailed(f"span {span['id']} escapes its parent")
        if parent["spec"] is not None and span["spec"] != parent["spec"]:
            raise CheckFailed(f"span {span['id']} left its parent's spec")
