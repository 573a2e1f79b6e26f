"""Causal frame-lifecycle tracing: spans stitched from the event stream.

The paper's claims are temporal — detection fires inside the 13–20 bit ID
window, counterattacks begin before EOF, victims never reach bus-off — and
aggregate metrics cannot show them per frame.  :class:`TraceCollector`
folds the typed events the simulator records (``sim.events``) from the
moment it is attached, and at :meth:`~TraceCollector.finalize` stitches
them into **causal spans**: every transmission attempt becomes a
``frame`` span with ``queue_wait`` / ``arbitration`` children, detection
verdicts and counterattack windows attach to the frame they interrupted,
and bus-off episodes become per-node root spans.  Spans carry bit-time
begin/end, parent/child links and a small attribute dict, and export as
schema-versioned JSONL or as Chrome ``trace_event`` JSON loadable in
Perfetto / ``chrome://tracing`` (``repro trace export``).

Engine neutrality: the collector is a pure function of the recorded
events (plus the final clock at :meth:`~TraceCollector.finalize`).
Fast-forward spans are event-free by construction and never enclose a
lifecycle boundary — SOF, arbitration, detection, error and EOF handling
all stay per-bit — so the fast and bit engines *synthesize identical span
streams* with no special-casing; the differential suite asserts byte equality.
:class:`~repro.bus.fastforward.SpanCommit` subscriptions
(``include_engine_spans=True``) add purely diagnostic ``ff.body`` /
``ff.idle`` annotation spans on a separate track; they are engine
artifacts, never recorded in ``sim.events``, so this one subscription
stays live, and they are excluded from the equality contract.

Span taxonomy (see ``docs/tracing.md``):

========================  ====================================================
``frame``                 One transmission attempt, SOF to outcome.  Outcomes:
                          ``transmitted`` | ``arb-lost`` | ``error`` |
                          ``busoff`` | ``open`` (cut off at finalize).
``queue_wait``            Enqueue to SOF (first attempt only).
``arbitration``           SOF through the arbitration field (loss time for
                          losers, the nominal 13-bit ID window for winners).
``detection``             Point span: a defense flagged the in-flight frame.
``counterattack``         Defender's dominant-drive window against the frame.
``error``                 Point span: a protocol error verdict.
``busoff``                Per-node episode, entry to recovery.
========================  ====================================================
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.bus.events import (
    ArbitrationLost,
    AttackDetected,
    BusOffEntered,
    BusOffRecovered,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    FrameStarted,
    FrameTransmitted,
)
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.bus.fastforward import SpanCommit
    from repro.bus.simulator import CanBusSimulator

#: Bump when the span dict layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: The JSONL header's format marker.
TRACE_KIND = "repro.obs.trace"

#: Nominal arbitration-field length in raw bits: 1 SOF + 11 ID + 1 RTR.
ARBITRATION_WINDOW_BITS = 13

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class Span:
    """One causal span: a named interval attributed to a node.

    ``end is None`` while the span is open; point spans (``detection``,
    ``error``) have ``end == begin``.  ``parent_id`` links children to the
    enclosing ``frame`` span (None for roots).
    """

    span_id: int
    name: str
    node: str
    begin: int
    end: Optional[int] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> int:
        return (self.end if self.end is not None else self.begin) - self.begin

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "node": self.node,
            "begin": self.begin,
            "end": self.end,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        return cls(
            span_id=data["span_id"],
            name=data["name"],
            node=data.get("node", ""),
            begin=data.get("begin", 0),
            end=data.get("end"),
            parent_id=data.get("parent_id"),
            attrs=dict(data.get("attrs", {})),
        )


class TraceCollector:
    """Stitches the recorded events into frame-lifecycle spans.

    Attach before running; only events recorded after the attach count::

        collector = TraceCollector(sim)
        sim.advance(20_000)
        spans = collector.finalize()
        write_trace(spans, "run.trace.jsonl")

    Args:
        sim: Simulator to observe; spans are built from the events it
            records from now on.
        include_engine_spans: Also record fast-forward ``SpanCommit``
            annotations into :attr:`engine_spans` (diagnostics only; the
            bit engine never produces them, so they are kept out of
            :attr:`spans` to preserve engine-identical traces).

    Attributes:
        spans: All lifecycle spans, in creation (= event) order; filled
            by :meth:`finalize`.
        engine_spans: Fast-forward annotation spans (separate id space).
    """

    def __init__(self, sim: "CanBusSimulator",
                 include_engine_spans: bool = False) -> None:
        self.sim = sim
        self.spans: List[Span] = []
        self.engine_spans: List[Span] = []
        self._next_id = 1
        self._next_engine_id = 1
        #: node name -> open "frame" span for the in-flight attempt
        self._open_frames: Dict[str, Span] = {}
        #: node name -> open "arbitration" child of that frame span
        self._open_arbs: Dict[str, Span] = {}
        #: node name -> open "busoff" root span
        self._open_busoffs: Dict[str, Span] = {}
        #: defender name -> open "counterattack" span
        self._open_counters: Dict[str, Span] = {}
        self._start = len(sim.events)
        self._stop: Optional[int] = None
        self._finalized = False
        self._unsubscribe_spans = None
        if include_engine_spans:
            self._unsubscribe_spans = sim._engine().on_span(
                self._on_span_commit)
        self.closed = False

    # ------------------------------------------------------------ plumbing

    def _span(self, name: str, node: str, begin: int,
              parent: Optional[Span] = None,
              **attrs: Any) -> Span:
        span = Span(span_id=self._next_id, name=name, node=node, begin=begin,
                    parent_id=parent.span_id if parent is not None else None,
                    attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        return span

    def _inflight(self) -> Optional[Span]:
        """The unique open frame span, when arbitration has resolved.

        During arbitration several frame spans are open at once and no
        single frame "owns" the bus yet; verdict/counterattack events all
        fire after resolution, when exactly one span remains open.
        """
        if len(self._open_frames) != 1:
            return None
        return next(iter(self._open_frames.values()))

    def _close_frame(self, node: str, end: int, outcome: str) -> None:
        span = self._open_frames.pop(node, None)
        if span is None:
            return
        span.end = end
        span.attrs["outcome"] = outcome
        arb = self._open_arbs.pop(node, None)
        if arb is not None and arb.end is None:
            # Winner: the arbitration field nominally spans 13 raw bits;
            # clamp to the frame in case the frame ended even earlier.
            arb.end = min(arb.begin + ARBITRATION_WINDOW_BITS, end)

    # ----------------------------------------------------------- handlers

    def _on_frame_started(self, event: FrameStarted) -> None:
        stale = self._open_frames.get(event.node)
        if stale is not None:  # defensive: should have closed via an outcome
            self._close_frame(event.node, event.time, "superseded")
        frame = self._span(
            "frame", event.node, event.time,
            can_id=event.frame.can_id, attempt=event.attempt,
            enqueued_at=event.enqueued_at)
        self._open_frames[event.node] = frame
        if event.attempt == 1 and event.enqueued_at < event.time:
            wait = self._span("queue_wait", event.node, event.enqueued_at,
                              parent=frame)
            wait.end = event.time
        self._open_arbs[event.node] = self._span(
            "arbitration", event.node, event.time, parent=frame)

    def _on_frame_transmitted(self, event: FrameTransmitted) -> None:
        self._close_frame(event.node, event.time, "transmitted")

    def _on_arbitration_lost(self, event: ArbitrationLost) -> None:
        arb = self._open_arbs.pop(event.node, None)
        if arb is not None:
            arb.end = event.time
            arb.attrs["lost_at_bit"] = event.bit_position
        self._close_frame(event.node, event.time, "arb-lost")

    def _on_error_detected(self, event: ErrorDetected) -> None:
        error = event.error
        parent = (self._open_frames.get(event.node)
                  if error.as_transmitter else self._inflight())
        point = self._span("error", event.node, event.time, parent=parent,
                           error_type=error.error_type.value,
                           as_transmitter=error.as_transmitter)
        point.end = event.time
        if error.as_transmitter:
            self._close_frame(event.node, event.time, "error")

    def _on_busoff_entered(self, event: BusOffEntered) -> None:
        self._close_frame(event.node, event.time, "busoff")
        self._open_busoffs[event.node] = self._span(
            "busoff", event.node, event.time, tec=event.tec)

    def _on_busoff_recovered(self, event: BusOffRecovered) -> None:
        span = self._open_busoffs.pop(event.node, None)
        if span is not None:
            span.end = event.time

    def _on_attack_detected(self, event: AttackDetected) -> None:
        point = self._span(
            "detection", event.node, event.time, parent=self._inflight(),
            attack_kind=event.attack_kind, target_id=event.target_id,
            detection_bit=event.detection_bit)
        point.end = event.time

    def _on_counterattack_started(self, event: CounterattackStarted) -> None:
        self._open_counters[event.node] = self._span(
            "counterattack", event.node, event.time, parent=self._inflight(),
            target_id=event.target_id, detection_bit=event.detection_bit)

    def _on_counterattack_ended(self, event: CounterattackEnded) -> None:
        span = self._open_counters.pop(event.node, None)
        if span is not None:
            span.end = event.time

    _DISPATCH = {
        FrameStarted: _on_frame_started,
        FrameTransmitted: _on_frame_transmitted,
        ArbitrationLost: _on_arbitration_lost,
        ErrorDetected: _on_error_detected,
        BusOffEntered: _on_busoff_entered,
        BusOffRecovered: _on_busoff_recovered,
        AttackDetected: _on_attack_detected,
        CounterattackStarted: _on_counterattack_started,
        CounterattackEnded: _on_counterattack_ended,
    }

    # ------------------------------------------------------- engine spans

    def _on_span_commit(self, commit: "SpanCommit") -> None:
        span = Span(span_id=self._next_engine_id,
                    name=f"ff.{commit.kind}",
                    node=commit.node or "engine",
                    begin=commit.start, end=commit.end)
        self._next_engine_id += 1
        self.engine_spans.append(span)

    # ----------------------------------------------------------- lifecycle

    def finalize(self) -> List[Span]:
        """Build the spans from the events recorded since the attach (up
        to a :meth:`close`), close every still-open span at the current
        clock and return the span list (idempotent; also detaches the
        engine-span subscription)."""
        if self._finalized:
            return self.spans
        self.close()
        dispatch = self._DISPATCH
        for event in self.sim.events[self._start:self._stop]:
            handler = dispatch.get(type(event))
            if handler is not None:
                handler(self, event)
        now = self.sim.time
        for span in self.spans:
            if span.end is None:
                span.end = now
                span.attrs["open"] = True
                if span.name == "frame":
                    span.attrs.setdefault("outcome", "open")
        self._open_frames.clear()
        self._open_arbs.clear()
        self._open_busoffs.clear()
        self._open_counters.clear()
        self._finalized = True
        return self.spans

    def close(self) -> None:
        """Stop at the events recorded so far and detach the engine-span
        subscription (idempotent)."""
        if not self.closed:
            self._stop = len(self.sim.events)
            if self._unsubscribe_spans is not None:
                self._unsubscribe_spans()
            self.closed = True


# ------------------------------------------------------------------- JSONL

def write_trace(spans: List[Span], path: PathLike,
                meta: Optional[Dict[str, Any]] = None) -> str:
    """Write spans as schema-versioned JSONL (header + one span per line)."""
    header = {"kind": TRACE_KIND, "schema_version": TRACE_SCHEMA_VERSION}
    header.update(meta or {})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for span in spans:
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
    return os.fspath(path)


def read_trace(path: PathLike) -> Tuple[Dict[str, Any], List[Span]]:
    """Load a JSONL trace, validating the header; returns (header, spans)."""
    with open(path, encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ConfigurationError(
                f"trace file {os.fspath(path)!r} is empty")
        header = json.loads(header_line)
        if header.get("kind") != TRACE_KIND:
            raise ConfigurationError(
                f"{os.fspath(path)!r} is not a trace "
                f"(kind={header.get('kind')!r})")
        version = header.get("schema_version")
        if version != TRACE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"trace file {os.fspath(path)!r} has schema version "
                f"{version!r}; this build reads "
                f"version {TRACE_SCHEMA_VERSION}")
        spans = [Span.from_dict(json.loads(line))
                 for line in handle if line.strip()]
    return header, spans


# ------------------------------------------------------------ Chrome trace

def chrome_trace(spans: List[Span], bus_speed: int = 1_000_000,
                 engine_spans: Optional[List[Span]] = None,
                 ) -> Dict[str, Any]:
    """Convert spans to Chrome ``trace_event`` JSON (Perfetto-loadable).

    Bit times become microseconds at ``bus_speed`` bits/second; each node
    gets its own named thread track, engine annotation spans (if given) a
    dedicated ``[engine]`` track.  Point spans become instant events.
    """
    scale = 1e6 / bus_speed

    def us(bits: int) -> float:
        return round(bits * scale, 3)

    engine_spans = engine_spans or []
    nodes = sorted({span.node for span in spans})
    tids = {node: index + 1 for index, node in enumerate(nodes)}
    engine_tid = len(nodes) + 1
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
        "args": {"name": "repro CAN bus"},
    }]
    for node, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": tid, "args": {"name": node}})
        events.append({"ph": "M", "name": "thread_sort_index", "pid": 1,
                       "tid": tid, "args": {"sort_index": tid}})
    if engine_spans:
        events.append({"ph": "M", "name": "thread_name", "pid": 1,
                       "tid": engine_tid, "args": {"name": "[engine]"}})
    for span in spans:
        end = span.end if span.end is not None else span.begin
        args = {"span_id": span.span_id, "parent_id": span.parent_id,
                "begin_bit": span.begin, "end_bit": end, **span.attrs}
        base = {"name": span.name, "cat": span.name, "pid": 1,
                "tid": tids[span.node], "ts": us(span.begin), "args": args}
        if end == span.begin:
            events.append({**base, "ph": "i", "s": "t"})
        else:
            events.append({**base, "ph": "X", "dur": us(end - span.begin)})
    for span in engine_spans:
        events.append({
            "ph": "X", "name": span.name, "cat": "engine", "pid": 1,
            "tid": engine_tid, "ts": us(span.begin),
            "dur": us((span.end or span.begin) - span.begin),
            "args": {"node": span.node},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"kind": TRACE_KIND,
                          "schema_version": TRACE_SCHEMA_VERSION,
                          "bus_speed": bus_speed}}


def write_chrome_trace(spans: List[Span], path: PathLike,
                       bus_speed: int = 1_000_000,
                       engine_spans: Optional[List[Span]] = None) -> str:
    """Write the Chrome ``trace_event`` JSON for ``spans``; returns path."""
    payload = chrome_trace(spans, bus_speed=bus_speed,
                           engine_spans=engine_spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    return os.fspath(path)


def render_spans(spans: List[Span], limit: Optional[int] = None) -> str:
    """A compact indented text rendering of (the head of) a span list."""
    chosen = spans[:limit] if limit else spans
    if not chosen:
        return "(no spans)"
    lines = []
    for span in chosen:
        indent = "  " if span.parent_id is not None else ""
        end = span.end if span.end is not None else span.begin
        detail = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        lines.append(
            f"{indent}#{span.span_id:<4} {span.name:<13} {span.node:<14} "
            f"[{span.begin:>8}, {end:>8})"
            + (f"  {detail}" if detail else ""))
    if limit and len(spans) > limit:
        lines.append(f"... {len(spans) - limit} more span(s)")
    return "\n".join(lines)
