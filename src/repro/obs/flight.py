"""Crash flight recorder: the last milliseconds of a run, on disk.

When a campaign worker dies — an injected fault raising mid-run, a hard
``os._exit`` crash, or the parent terminating it on timeout — the
aggregate report says only *that* it died.  :class:`FlightRecorder`
preserves *why* in one append-only JSONL *log* at ``autoflush_path``: a
header line, then one line per event, each encoded once, reaching the OS
every ``flush_every`` events (a hard crash loses at most that many).
:meth:`FlightRecorder.flush` appends a *checkpoint* line (reason, time,
node states, fast-forward counters, wire tail) for the start, abort,
timeout and complete routes.  Once the log holds ``ROTATE_FACTOR``
rings' worth of lines it is rewritten atomically from the header, the
ring and the last checkpoint, so it stays bounded over any run.
:func:`load_dump` folds a log into a dump dict, which the campaign
engine attaches to a :class:`~repro.experiments.campaign.RunFailure` and
``repro trace postmortem`` renders; :meth:`FlightRecorder.dump` is the
same fold over the recorder's ring and a live checkpoint.

The event callback reads only the event it is handed and flushes by
count, never by wall clock, so the recorder is ``@replay_safe``: the
fast-forward engine keeps replaying fight cycles under it.
"""

from __future__ import annotations

import enum
import json
import json.encoder
import os
from collections import deque
from dataclasses import fields as dataclass_fields
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Sequence, Tuple, Union)

from repro.bus.events import Event
from repro.bus.simulator import replay_safe
from repro.can.errors import CanError
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.bus.simulator import CanBusSimulator

#: Bump when the dump or log layout changes incompatibly.
#: v2: an append-only event log; the periodic node samples are gone.
FLIGHT_SCHEMA_VERSION = 2

#: The log header's (and a dump's) format marker.
FLIGHT_KIND = "repro.obs.flight"

#: Default bounded-ring capacities.
DEFAULT_EVENT_CAPACITY = 256
DEFAULT_WIRE_TAIL_BITS = 512

#: The log is rewritten from the ring once it holds this many
#: ``event_capacity``'s worth of lines.
ROTATE_FACTOR = 4

PathLike = Union[str, "os.PathLike[str]"]


def _line_encoder() -> Callable[[Any], str]:
    """Compact one-line JSON through the C encoder, built once.

    ``json.dumps`` rebuilds the C encoder on every call, which is about a
    third of an event line's cost; ``json.dump`` never uses it at all.
    """
    plain = json.JSONEncoder(separators=(",", ":"), check_circular=False)
    make = getattr(json.encoder, "c_make_encoder", None)
    if make is None:  # an interpreter without the _json accelerator
        return plain.encode
    chunks = make(None, plain.default, json.encoder.encode_basestring_ascii,
                  None, ":", ",", False, False, True)
    return lambda value: "".join(chunks(value, 0))


_encode_line = _line_encoder()


def _encode_value(value: Any) -> Any:
    """JSON-safe encoding of one event field (total: never raises)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, CanFrame):
        return {"can_id": value.can_id, "data": value.data.hex(),
                "extended": value.extended, "remote": value.remote}
    if isinstance(value, CanError):
        return {"error_type": value.error_type.value, "detail": value.detail,
                "as_transmitter": value.as_transmitter}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _encode_value(v) for k, v in value.items()}
    return str(value)


#: Field values the log stores as they are.
_PLAIN = frozenset({type(None), bool, int, float, str})


def _header(bus_speed: int, event_capacity: int) -> Dict[str, Any]:
    """A log's first line (``format`` stays so that older builds read it)."""
    return {"kind": FLIGHT_KIND, "schema_version": FLIGHT_SCHEMA_VERSION,
            "format": "log", "bus_speed": bus_speed,
            "event_capacity": event_capacity}


def _text(lines: List[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class FlightRecorder:
    """Bounded black-box recording of a simulator's recent past.

    Args:
        sim: Simulator to observe; subscribes immediately.
        event_capacity: Ring size for the most recent events.
        autoflush_path: When set, the recorder keeps its append-only log
            here (hard-crash survival); the header is written at once.
            Without it the ring lives in memory only, for :meth:`dump`.
        flush_every: Event count between writes of the log's pending
            lines to the OS.
    """

    def __init__(self, sim: "CanBusSimulator",
                 event_capacity: int = DEFAULT_EVENT_CAPACITY,
                 autoflush_path: Optional[PathLike] = None,
                 flush_every: int = 64) -> None:
        if event_capacity <= 0:
            raise ConfigurationError(
                f"event capacity must be positive, got {event_capacity}")
        if flush_every <= 0:
            raise ConfigurationError(
                f"flush period must be positive, got {flush_every}")
        self.sim = sim
        self.event_capacity = event_capacity
        self.autoflush_path = (
            os.fspath(autoflush_path) if autoflush_path is not None else None)
        self.flush_every = flush_every
        #: The most recent events as log lines, without their newlines:
        #: what :meth:`dump` folds and a rotation rewrites.
        self._lines: Deque[str] = deque(maxlen=event_capacity)
        #: Encoded event lines not yet handed to the OS.
        self._pending: List[str] = []
        #: Event class -> the field names its entries carry.
        self._fields: Dict[type, Tuple[str, ...]] = {}
        #: Events recorded since the last checkpoint line.
        self._since_checkpoint = 0
        self._checkpoint_line: Optional[str] = None
        self._fd: Optional[int] = None
        self._log_lines = 0
        self._head = _header(sim.bus_speed, event_capacity)
        if self.autoflush_path is not None:
            self._rewrite_log([])
        self._unsubscribe = sim.on_event(self._on_event)
        self.closed = False

    # ------------------------------------------------------------- capture

    def _encode_event(self, event: Event) -> Dict[str, Any]:
        cls = type(event)
        names = self._fields.get(cls)
        if names is None:
            names = self._fields[cls] = tuple(
                spec.name for spec in dataclass_fields(event)
                if spec.name not in ("time", "node"))
        entry: Dict[str, Any] = {"type": cls.__name__,
                                 "time": event.time, "node": event.node}
        for name in names:
            value = getattr(event, name)
            entry[name] = (value if type(value) in _PLAIN
                           else _encode_value(value))
        return entry

    @replay_safe
    def _on_event(self, event: Event) -> None:
        line = _encode_line(self._encode_event(event))
        self._lines.append(line)
        if self._fd is None:
            return
        self._pending.append(line)
        self._since_checkpoint += 1
        if len(self._pending) >= self.flush_every:
            self._write_pending()

    # ----------------------------------------------------------------- log

    def _write_pending(self, extra: Optional[str] = None) -> None:
        """Hand the pending lines (plus ``extra``) to the OS, rotating the
        log when it would outgrow its bound."""
        # Swap first: a signal handler flushing mid-write sees an empty
        # list, so no line is written twice.
        pending, self._pending = self._pending, []
        if extra is not None:
            pending.append(extra)
        if self._log_lines + len(pending) > \
                ROTATE_FACTOR * self.event_capacity:
            self._rewrite_log(self._ring_lines())
            return
        _write_all(self._fd, _text(pending))
        self._log_lines += len(pending)

    def _ring_lines(self) -> List[str]:
        """The ring as log lines, the last checkpoint at its place in it."""
        ring = list(self._lines)
        if self._checkpoint_line is not None:
            ring.insert(max(0, len(ring) - self._since_checkpoint),
                        self._checkpoint_line)
        return ring

    def _rewrite_log(self, lines: List[str]) -> None:
        """Atomically replace the log with the header plus ``lines`` and
        keep appending to the new file."""
        path = self.autoflush_path
        tmp = path + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
                     0o644)
        try:
            _write_all(fd, _text([_encode_line(self._head), *lines]))
            os.replace(tmp, path)
        except BaseException:
            os.close(fd)
            raise
        old, self._fd = self._fd, fd
        self._log_lines = len(lines)
        if old is not None:
            os.close(old)

    # ---------------------------------------------------------------- dump

    def _node_states(self) -> Dict[str, Any]:
        nodes: Dict[str, Any] = {}
        for node in self.sim.nodes:
            if not hasattr(node, "tec"):
                continue  # pseudo-nodes (recorders, probes) carry no state
            entry: Dict[str, Any] = {"tec": node.tec, "rec": node.rec,
                                     "state": node.state.value}
            faults = getattr(node, "faults", None)
            if faults is not None:
                entry["error_state"] = faults.state.value
            firmware = getattr(node, "firmware", None)
            if firmware is not None and hasattr(firmware, "phase"):
                entry["firmware_phase"] = firmware.phase.name
            nodes[node.name] = entry
        return nodes

    def _checkpoint(self, reason: str) -> str:
        """A checkpoint line: ``reason`` plus the live simulator state."""
        sim = self.sim
        wire = sim.wire
        history = wire.history
        tail = (history[-DEFAULT_WIRE_TAIL_BITS:] if isinstance(history, list)
                else list(history)[-DEFAULT_WIRE_TAIL_BITS:])
        end_bit = wire.total_bits
        return _encode_line({
            "checkpoint": reason,
            "time": sim.time,
            "nodes": self._node_states(),
            "ff_stats": sim.ff_stats.as_dict(),
            "wire_tail": {
                "levels": tail,
                "start_bit": end_bit - len(tail),
                "end_bit": end_bit,
                "dropped_bits": wire.dropped_bits,
            },
        })

    def dump(self, reason: str = "manual") -> Dict[str, Any]:
        """The recorder's current state as a JSON-safe dump: the fold of
        :func:`load_dump`, over the ring and a live checkpoint."""
        return _fold_log(self._head, [*self._lines, self._checkpoint(reason)],
                         "<live recorder>")

    def flush(self, reason: str = "flush") -> Optional[str]:
        """Append the pending events and a ``reason`` checkpoint to the log.

        Writes through the raw file descriptor only, so the campaign's
        SIGTERM handler may call it in the middle of a bit.
        """
        if self._fd is None:
            return None
        self._checkpoint_line = line = self._checkpoint(reason)
        self._since_checkpoint = 0
        self._write_pending(line)
        return self.autoflush_path

    def close(self) -> None:
        """Detach from the simulator's event stream and close the log
        (idempotent); pending lines are written first."""
        if self.closed:
            return
        self._unsubscribe()
        self.closed = True
        if self._fd is not None:
            fd, self._fd = self._fd, None
            pending, self._pending = self._pending, []
            if pending:
                _write_all(fd, _text(pending))
            os.close(fd)


# --------------------------------------------------------------- dump I/O

def write_dump(dump: Dict[str, Any], path: PathLike) -> str:
    """Write ``dump`` atomically (temp file + rename) as the log
    :func:`load_dump` folds back to it: header, events, then a checkpoint
    with the reason and final state; returns the path."""
    head = _header(dump["bus_speed"], max(1, len(dump["events"])))
    checkpoint = {"checkpoint": dump["reason"], **{
        key: dump[key] for key in ("time", "nodes", "ff_stats", "wire_tail")}}
    target = os.fspath(path)
    with open(target + ".tmp", "wb") as handle:
        handle.write(_text([_encode_line(line)
                            for line in (head, *dump["events"], checkpoint)]))
    os.replace(target + ".tmp", target)
    return target


def _decode(line: Union[str, bytes]) -> Any:
    try:
        return json.loads(line)
    except (ValueError, RecursionError):  # torn, foreign, undecodable or deep
        return None


def _check_checkpoint(entry: Dict[str, Any], where: str) -> Dict[str, Any]:
    """The types a dump's readers compute with; returns a copy of the
    node states.  (``type`` checks refuse ``bool`` as a number.)"""
    nodes = entry.get("nodes")
    if not isinstance(nodes, dict) or not all(
            isinstance(node, dict) for node in nodes.values()):
        raise ConfigurationError(f"{where} has malformed node states")
    time = entry.get("time")
    if type(time) is not int or time < 0:
        raise ConfigurationError(f"{where} has a malformed time")
    stats = entry.get("ff_stats", {})
    if not isinstance(stats, dict) or not all(
            type(value) in (int, float) or (isinstance(value, dict) and all(
                type(count) in (int, float) for count in value.values()))
            for value in stats.values()):
        raise ConfigurationError(
            f"{where} has malformed fast-forward counters")
    tail = entry.get("wire_tail", {})
    levels = tail.get("levels", []) if isinstance(tail, dict) else None
    if not isinstance(levels, list) \
            or not all(type(level) is int and level in (0, 1)
                       for level in levels) \
            or not all(type(tail.get(key, 0)) is int
                       for key in ("start_bit", "end_bit", "dropped_bits")):
        raise ConfigurationError(f"{where} has a malformed wire tail")
    return {key: dict(node) for key, node in nodes.items()}


#: Logged events that move a node's state past its last checkpoint.
_STATE_EVENTS = ("ErrorStateChanged", "BusOffEntered", "BusOffRecovered")


def _apply_state_event(nodes: Dict[str, Any], entry: Dict[str, Any]) -> None:
    """Advance a checkpoint's node states by one logged event: the fault
    confinement transitions carry TEC/REC; the controller state is known
    again only at bus-off entry and recovery."""
    kind = entry.get("type")
    name = entry.get("node")
    if kind not in _STATE_EVENTS or not isinstance(name, str):
        return
    node = nodes.setdefault(name, {})
    if kind == "ErrorStateChanged":
        node.update(error_state=entry.get("new_state"), tec=entry.get("tec"),
                    rec=entry.get("rec"))
    elif kind == "BusOffEntered":
        node.update(state="bus-off", error_state="bus-off",
                    tec=entry.get("tec"))
    else:
        node.update(state="idle")


def _fold_log(head: Dict[str, Any], body: Sequence[Union[str, bytes]],
              name: str) -> Dict[str, Any]:
    """One pass over a log: the dump its recorder would have returned."""
    capacity = head.get("event_capacity")
    bus_speed = head.get("bus_speed")
    if type(capacity) is not int or capacity <= 0 \
            or type(bus_speed) is not int or bus_speed <= 0:
        raise ConfigurationError(
            f"flight log {name!r} has a malformed header")
    events: Deque[Dict[str, Any]] = deque(maxlen=capacity)
    checkpoint: Dict[str, Any] = {}
    nodes: Dict[str, Any] = {}
    after = 0
    for number, line in enumerate(body, start=2):
        entry = _decode(line)
        if entry is None and number == len(body) + 1:
            break  # a torn last line: the crash cut the final write
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"flight log {name!r}: line {number} is not a log entry")
        if "checkpoint" in entry:
            nodes = _check_checkpoint(
                entry, f"flight log {name!r}: line {number}")
            checkpoint = entry
            after = 0
        else:
            events.append(entry)
            _apply_state_event(nodes, entry)
            after += 1
    last = events[-1].get("time") if events else None
    return {
        "kind": FLIGHT_KIND,
        "schema_version": FLIGHT_SCHEMA_VERSION,
        "reason": (checkpoint.get("checkpoint") if checkpoint and not after
                   else "autoflush"),
        "time": max(checkpoint.get("time", 0),
                    last if type(last) is int else 0),
        "bus_speed": bus_speed,
        "events": list(events),
        "nodes": nodes,
        "ff_stats": checkpoint.get("ff_stats", {}),
        "wire_tail": checkpoint.get("wire_tail", {}),
    }


def load_dump(path: PathLike) -> Dict[str, Any]:
    """Fold the flight log at ``path`` into a dump, validating the format
    marker, the schema version and every field a reader computes with;
    anything else raises :class:`ConfigurationError`."""
    name = os.fspath(path)
    with open(name, "rb") as handle:
        lines = handle.read().splitlines()  # bytes: each line decodes alone
    head = _decode(lines[0]) if lines else None
    if not isinstance(head, dict) or head.get("kind") != FLIGHT_KIND:
        raise ConfigurationError(f"{name!r} is not a flight-recorder log")
    version = head.get("schema_version")
    if version != FLIGHT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"flight log {name!r} has schema version "
            f"{version!r}; this build reads version {FLIGHT_SCHEMA_VERSION}")
    return _fold_log(head, lines[1:], name)


# ----------------------------------------------------------------- render

def _format_event(entry: Dict[str, Any]) -> str:
    extras = []
    for key, value in sorted(entry.items()):
        if key in ("type", "time", "node"):
            continue
        if isinstance(value, dict) and type(value.get("can_id")) is int:
            value = f"0x{value['can_id']:03X}"
        elif isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        extras.append(f"{key}={value}")
    return (f"  t={entry.get('time', 0)!s:>8} "
            f"{entry.get('type', '?')!s:<20} {entry.get('node', '')!s:<14} "
            + " ".join(extras))


def render_dump(dump: Dict[str, Any], events: int = 20,
                decode_wire_tail: bool = True) -> str:
    """Human-readable post-mortem: final state, recent events, wire tail."""
    bus_speed = dump.get("bus_speed") or 1
    time = dump.get("time", 0)
    lines = [
        f"flight recorder dump ({dump.get('reason', 'unknown')}) at "
        f"t={time} bits ({time * 1e3 / bus_speed:.2f} ms at "
        f"{bus_speed // 1000} kbit/s)",
        "",
        "final node states:",
    ]
    for name in sorted(dump.get("nodes", {})):
        node = dump["nodes"][name]
        phase = node.get("firmware_phase")
        lines.append(
            f"  {name:<14} state={str(node.get('state', '?')):<13} "
            f"{str(node.get('error_state', '')):<13} "
            f"tec={node.get('tec', 0)!s:<4} rec={node.get('rec', 0)!s:<4}"
            + (f" firmware={phase}" if phase else ""))
    recorded = dump.get("events", [])
    shown = recorded[-events:]
    lines.append("")
    lines.append(f"last {len(shown)} of {len(recorded)} recorded events:")
    lines.extend(_format_event(entry) for entry in shown)
    changes = [entry for entry in recorded
               if entry.get("type") in ("ErrorStateChanged", "BusOffEntered")]
    if changes:
        lines.append("")
        lines.append(f"TEC trajectory ({len(changes)} state changes in the "
                     f"ring):")
        for entry in changes[-8:]:
            state = ("bus-off" if entry.get("type") == "BusOffEntered"
                     else entry.get("new_state", "?"))
            rec = entry.get("rec")
            lines.append(
                f"  t={entry.get('time', 0)!s:>8} "
                f"{entry.get('node', '')!s:<14} "
                f"{str(state):<13} tec={entry.get('tec', 0)}"
                + (f" rec={rec}" if rec is not None else ""))
    tail = dump.get("wire_tail", {})
    levels = tail.get("levels", [])
    if decode_wire_tail and levels:
        from repro.trace.decoder import WireDecoder

        start_bit = tail.get("start_bit", 0)
        entries = WireDecoder(assume_idle_at_start=False).decode(levels)
        lines.append("")
        lines.append(f"decoded wire tail ({len(levels)} bits, "
                     f"[{start_bit}, {tail.get('end_bit', 0)})):")
        for entry in entries:
            what = entry.kind.value
            if entry.frame is not None:
                what += f" 0x{entry.frame.can_id:03X}"
            if entry.detail:
                what += f" ({entry.detail})"
            lines.append(f"  [{start_bit + entry.start:>8}, "
                         f"{start_bit + entry.end:>8}) {what}")
        if not entries:
            lines.append("  (no decodable activity)")
    stats = dump.get("ff_stats", {})
    if (stats.get("body_spans") or stats.get("idle_spans")
            or stats.get("replayed_segments")):
        lines.append("")
        lines.append(
            f"fast-forward: {stats.get('body_spans', 0)} body spans "
            f"({stats.get('body_bits', 0)} bits), "
            f"{stats.get('idle_spans', 0)} idle spans "
            f"({stats.get('idle_bits', 0)} bits), "
            f"{stats.get('replayed_segments', 0)} replayed cycles "
            f"({stats.get('replayed_bits', 0)} bits, "
            f"{stats.get('replayed_runs', 0)} runs)")
    return "\n".join(lines)
