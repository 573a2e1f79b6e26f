"""Frame-level trace analysis: one fold over a simulator event stream.

:class:`FrameLog` folds the recorded events once into every node's
protocol tallies (the counters behind :class:`~repro.obs.probe.
MetricsSummary`) and bus-off episodes, and measures the paper's central
metric from them: the *bus-off time* — "the total time from the first
bit of a malicious CAN message to the last bit of the passive error
frame in the 31st retransmission" (Sec. V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.bus.events import (
    ArbitrationLost,
    AttackDetected,
    BusOffEntered,
    BusOffRecovered,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    ErrorStateChanged,
    Event,
    FaultActivated,
    FaultDeactivated,
    FrameReceived,
    FrameStarted,
    FrameTransmitted,
    OverloadSignalled,
)
from repro.can.constants import (
    ERROR_DELIMITER_BITS,
    PASSIVE_ERROR_FLAG_BITS,
)

#: Bits appended after the bus-off transition to cover the final passive
#: error frame (6-bit flag + 8-bit delimiter), per the paper's definition.
FINAL_PASSIVE_FRAME_BITS = PASSIVE_ERROR_FLAG_BITS + ERROR_DELIMITER_BITS

#: The per-node counter fields of a summary, in render order.
NODE_COUNTER_FIELDS = (
    "frames_tx", "frames_rx", "frame_attempts", "retransmissions",
    "arbitration_losses", "error_frames", "overloads", "busoffs",
    "recoveries", "detections", "counterattacks", "counterattack_bits",
    "fault_activations",
)


@dataclass(frozen=True)
class BusOffEpisode:
    """One complete bus-off sequence of one attacking node.

    Attributes:
        node: The attacker node name.
        start: Time of the first bit (SOF) of the first malicious frame.
        end: Last bit of the final passive error frame.
        attempts: Number of (re)transmission attempts consumed (paper: 32).
        interruptions: Frames from *other* nodes completed inside the episode
            (the c/z counts of Table III).
    """

    node: str
    start: int
    end: int
    attempts: int
    interruptions: int = 0

    @property
    def duration_bits(self) -> int:
        return self.end - self.start

    def duration_ms(self, bus_speed: int) -> float:
        return self.duration_bits / bus_speed * 1e3


@dataclass(frozen=True)
class TimelineEntry:
    """One row of the frame timeline (Fig. 6-style rendering)."""

    time: int
    node: str
    kind: str  # "start" | "tx-ok" | "error" | "bus-off" | "recovered"
    can_id: Optional[int] = None
    detail: str = ""


class NodeTally:
    """One node's running totals in a :class:`FrameLog` fold.

    The counters of :data:`NODE_COUNTER_FIELDS` are plain ints; an
    episode is open from the node's first frame attempt after its last
    bus-off (``episode_start``) until its next bus-off entry.
    """

    __slots__ = NODE_COUNTER_FIELDS + (
        "errors_by_type", "tec_trajectory", "max_tec", "max_rec",
        "counterattack_max_bits", "counterattack_started_at", "episodes",
        "episode_start", "episode_attempts_before", "episode_others_tx",
    )

    def __init__(self) -> None:
        for name in NODE_COUNTER_FIELDS:
            setattr(self, name, 0)
        self.errors_by_type: Dict[str, int] = {}
        self.tec_trajectory: List[List[int]] = []
        self.max_tec = 0
        self.max_rec = 0
        self.counterattack_max_bits = 0
        self.counterattack_started_at: Optional[int] = None
        self.episodes: List[BusOffEpisode] = []
        self.episode_start: Optional[int] = None
        #: frame_attempts before the episode's first attempt
        self.episode_attempts_before = 0
        #: frames other nodes had completed when the episode opened
        self.episode_others_tx = 0

    def metrics(self) -> Dict[str, Any]:
        """The summary fields of this node as a fresh plain dict."""
        data: Dict[str, Any] = {name: getattr(self, name)
                                for name in NODE_COUNTER_FIELDS}
        data["errors_by_type"] = dict(self.errors_by_type)
        data["tec_trajectory"] = [list(p) for p in self.tec_trajectory]
        data["max_tec"] = self.max_tec
        data["max_rec"] = self.max_rec
        data["counterattack_max_bits"] = self.counterattack_max_bits
        return data


class FrameLog:
    """Folds a simulator event stream into per-node tallies and bus-off
    episodes, and renders its timeline.

    The fold is one pass with one dispatch table.  :meth:`feed` continues
    it incrementally, so an observer following a live simulator folds
    each new slice of ``sim.events`` once; fed events are folded but not
    kept in :attr:`events`, which holds the stream the log was built from
    (the timeline and throughput queries read it).

    Attributes:
        nodes: Node name -> :class:`NodeTally`, for every node that any
            folded event names.
        detection_latency: Histogram of the detection-bit positions.
    """

    def __init__(self, events: Sequence[Event] = ()) -> None:
        from repro.obs.metrics import DETECTION_LATENCY_BUCKETS, Histogram

        self.events = list(events)
        self.nodes: Dict[str, NodeTally] = {}
        self.detection_latency = Histogram(
            "detection_latency_bits", buckets=DETECTION_LATENCY_BUCKETS)
        self._frames_tx = 0
        self.feed(self.events)

    # ----------------------------------------------------------------- fold

    def feed(self, events: Iterable[Event]) -> None:
        """Fold ``events`` (the stream's continuation) into the tallies."""
        dispatch = self._DISPATCH
        nodes = self.nodes
        for event in events:
            handler = dispatch.get(type(event))
            if handler is not None:
                tally = nodes.get(event.node)
                if tally is None:
                    tally = nodes[event.node] = NodeTally()
                handler(self, tally, event)

    def tally(self, name: str) -> NodeTally:
        """The named node's tally (an empty one when no event names it)."""
        return self.nodes.get(name) or NodeTally()

    def _on_frame_started(self, tally: NodeTally, event: FrameStarted) -> None:
        if tally.episode_start is None:
            tally.episode_start = event.time
            tally.episode_attempts_before = tally.frame_attempts
            tally.episode_others_tx = self._frames_tx - tally.frames_tx
        tally.frame_attempts += 1

    def _on_frame_transmitted(self, tally: NodeTally,
                              event: FrameTransmitted) -> None:
        self._frames_tx += 1
        tally.frames_tx += 1
        if event.attempts > 1:
            tally.retransmissions += event.attempts - 1

    def _on_frame_received(self, tally: NodeTally,
                           event: FrameReceived) -> None:
        tally.frames_rx += 1

    def _on_arbitration_lost(self, tally: NodeTally,
                             event: ArbitrationLost) -> None:
        tally.arbitration_losses += 1

    def _on_error_detected(self, tally: NodeTally,
                           event: ErrorDetected) -> None:
        tally.error_frames += 1
        kind = event.error.error_type.value
        tally.errors_by_type[kind] = tally.errors_by_type.get(kind, 0) + 1

    def _on_error_state_changed(self, tally: NodeTally,
                                event: ErrorStateChanged) -> None:
        tally.tec_trajectory.append([event.time, event.tec, event.rec])
        if event.tec > tally.max_tec:
            tally.max_tec = event.tec
        if event.rec > tally.max_rec:
            tally.max_rec = event.rec

    def _on_overload(self, tally: NodeTally,
                     event: OverloadSignalled) -> None:
        tally.overloads += 1

    def _on_busoff(self, tally: NodeTally, event: BusOffEntered) -> None:
        tally.busoffs += 1
        if event.tec > tally.max_tec:
            tally.max_tec = event.tec
        if tally.episode_start is None:
            return
        others_tx = self._frames_tx - tally.frames_tx
        tally.episodes.append(BusOffEpisode(
            node=event.node,
            start=tally.episode_start,
            end=event.time + FINAL_PASSIVE_FRAME_BITS,
            attempts=tally.frame_attempts - tally.episode_attempts_before,
            interruptions=others_tx - tally.episode_others_tx,
        ))
        tally.episode_start = None

    def _on_recovery(self, tally: NodeTally, event: BusOffRecovered) -> None:
        tally.recoveries += 1

    def _on_attack_detected(self, tally: NodeTally,
                            event: AttackDetected) -> None:
        tally.detections += 1
        self.detection_latency.observe(event.detection_bit)

    def _on_counterattack_started(self, tally: NodeTally,
                                  event: CounterattackStarted) -> None:
        tally.counterattacks += 1
        tally.counterattack_started_at = event.time

    def _on_counterattack_ended(self, tally: NodeTally,
                                event: CounterattackEnded) -> None:
        if tally.counterattack_started_at is None:
            return
        bits = event.time - tally.counterattack_started_at
        tally.counterattack_bits += bits
        if bits > tally.counterattack_max_bits:
            tally.counterattack_max_bits = bits
        tally.counterattack_started_at = None

    def _on_fault_activated(self, tally: NodeTally,
                            event: FaultActivated) -> None:
        tally.fault_activations += 1

    def _on_fault_deactivated(self, tally: NodeTally,
                              event: FaultDeactivated) -> None:
        """A window close only makes the node appear in the tallies."""

    _DISPATCH = {
        FrameStarted: _on_frame_started,
        FrameTransmitted: _on_frame_transmitted,
        FrameReceived: _on_frame_received,
        ArbitrationLost: _on_arbitration_lost,
        ErrorDetected: _on_error_detected,
        ErrorStateChanged: _on_error_state_changed,
        OverloadSignalled: _on_overload,
        BusOffEntered: _on_busoff,
        BusOffRecovered: _on_recovery,
        AttackDetected: _on_attack_detected,
        CounterattackStarted: _on_counterattack_started,
        CounterattackEnded: _on_counterattack_ended,
        FaultActivated: _on_fault_activated,
        FaultDeactivated: _on_fault_deactivated,
    }

    # ------------------------------------------------------------- timeline

    def timeline(self, nodes: Optional[Sequence[str]] = None) -> List[TimelineEntry]:
        """A chronological, per-node activity list."""
        wanted = set(nodes) if nodes else None
        entries: List[TimelineEntry] = []
        for event in self.events:
            if wanted is not None and event.node not in wanted:
                continue
            if isinstance(event, FrameStarted):
                entries.append(TimelineEntry(
                    event.time, event.node, "start", event.frame.can_id,
                    f"attempt {event.attempt}"))
            elif isinstance(event, FrameTransmitted):
                entries.append(TimelineEntry(
                    event.time, event.node, "tx-ok", event.frame.can_id,
                    f"after {event.attempts} attempt(s)"))
            elif isinstance(event, ErrorDetected):
                entries.append(TimelineEntry(
                    event.time, event.node, "error", None,
                    event.error.error_type.value))
            elif isinstance(event, BusOffEntered):
                entries.append(TimelineEntry(
                    event.time, event.node, "bus-off", None, f"tec={event.tec}"))
            elif isinstance(event, BusOffRecovered):
                entries.append(TimelineEntry(
                    event.time, event.node, "recovered"))
        return entries

    def render_timeline(self, nodes: Optional[Sequence[str]] = None) -> str:
        """Human-readable timeline (the textual Fig. 6)."""
        lines = []
        for entry in self.timeline(nodes):
            ident = f" 0x{entry.can_id:03X}" if entry.can_id is not None else ""
            lines.append(
                f"t={entry.time:>7} {entry.node:<12} {entry.kind:<10}{ident} {entry.detail}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------- episodes

    def busoff_episodes(self, attacker: str) -> List[BusOffEpisode]:
        """All bus-off episodes of ``attacker`` in this trace.

        An episode starts at the attacker's first frame attempt after it was
        last error-free/recovered, and ends FINAL_PASSIVE_FRAME_BITS after
        the BusOffEntered event.
        """
        return list(self.tally(attacker).episodes)

    def busoff_statistics(self, attacker: str, bus_speed: int) -> Dict[str, float]:
        """Mean / stddev / max bus-off time in ms — one Table II row."""
        episodes = self.busoff_episodes(attacker)
        if not episodes:
            return {"count": 0, "mean_ms": 0.0, "std_ms": 0.0, "max_ms": 0.0}
        durations = [e.duration_ms(bus_speed) for e in episodes]
        mean = sum(durations) / len(durations)
        variance = sum((d - mean) ** 2 for d in durations) / len(durations)
        return {
            "count": len(durations),
            "mean_ms": mean,
            "std_ms": variance ** 0.5,
            "max_ms": max(durations),
        }

    # ----------------------------------------------------------- throughput

    def completed_frames(self, node: Optional[str] = None) -> List[FrameTransmitted]:
        return [e for e in self.events
                if isinstance(e, FrameTransmitted)
                and (node is None or e.node == node)]

    def inter_arrival_times(self, can_id: int) -> List[int]:
        """Gaps between successive completions of one CAN ID — the measured
        period, used to verify schedulability under attack."""
        times = [e.time for e in self.completed_frames()
                 if e.frame.can_id == can_id]
        return [b - a for a, b in zip(times, times[1:])]
