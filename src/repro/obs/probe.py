"""The bus probe: live per-node protocol metrics from the event stream.

:class:`BusProbe` subscribes to :meth:`CanBusSimulator.on_event` and turns
the typed event stream into registry-backed metrics — the quantities behind
the paper's Tables II-III and Figs. 4b/6: frames transmitted/received,
arbitration losses, error frames by type, overload frames, TEC/REC
trajectories, bus-off entries and recoveries, counterattack count and
duration, and a detection-latency histogram in ID-bit positions.

The probe is purely a listener: it never drives the bus, never perturbs
the protocol, and detaches cleanly via :meth:`BusProbe.close` so reused
simulators do not accumulate dead listeners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

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
from repro.bus.simulator import replay_safe
from repro.obs.metrics import (
    DETECTION_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)

if TYPE_CHECKING:
    from repro.bus.simulator import CanBusSimulator

#: Bump when the MetricsSummary dict layout changes incompatibly.
#: v2: per-node ``fault_activations`` counter (fault-injection windows).
SUMMARY_SCHEMA_VERSION = 2

#: The per-node counter fields of a summary, in render order.
NODE_COUNTER_FIELDS = (
    "frames_tx", "frames_rx", "frame_attempts", "retransmissions",
    "arbitration_losses", "error_frames", "overloads", "busoffs",
    "recoveries", "detections", "counterattacks", "counterattack_bits",
    "fault_activations",
)


class _NodeProbe:
    """Hot-path per-node state: direct counter references, no lookups."""

    __slots__ = NODE_COUNTER_FIELDS + (
        "errors_by_type", "tec_trajectory", "counterattack_started_at",
        "counterattack_max_bits", "max_tec", "max_rec",
    )

    def __init__(self, registry: MetricsRegistry, node: str) -> None:
        for name in NODE_COUNTER_FIELDS:
            setattr(self, name, registry.counter(name, node=node))
        self.errors_by_type: Dict[str, int] = {}
        self.tec_trajectory: List[List[int]] = []
        self.counterattack_started_at: Optional[int] = None
        self.counterattack_max_bits = 0
        self.max_tec = 0
        self.max_rec = 0


@dataclass
class MetricsSummary:
    """The JSON-safe outcome of one probed run.

    Attributes:
        duration_bits: Simulated bits covered by the probe.
        bus_speed: Bus speed of the probed simulator (for unit conversion).
        events: Events seen by the probe.
        nodes: Per-node counter values plus final TEC/REC/state and the
            TEC/REC trajectory sampled at error-state transitions.
        bus: Wire-level occupancy: total/dominant bits, busy fraction, and
            the bounded-recording drop count.
        detection_latency: Histogram dict of detection-bit positions.
    """

    duration_bits: int = 0
    bus_speed: int = 0
    events: int = 0
    nodes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    bus: Dict[str, Any] = field(default_factory=dict)
    detection_latency: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = SUMMARY_SCHEMA_VERSION

    # ------------------------------------------------------------ queries

    def totals(self) -> Dict[str, int]:
        """Counter totals summed across nodes."""
        return {
            name: sum(node.get(name, 0) for node in self.nodes.values())
            for name in NODE_COUNTER_FIELDS
        }

    @property
    def busy_fraction(self) -> float:
        """Bus load: the idle-gap measure when recorded, otherwise the
        raw dominant-level fraction."""
        return self.bus.get("busy_fraction",
                            self.bus.get("dominant_fraction", 0.0))

    # ------------------------------------------------------ serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "duration_bits": self.duration_bits,
            "bus_speed": self.bus_speed,
            "events": self.events,
            "nodes": {name: dict(data) for name, data in self.nodes.items()},
            "bus": dict(self.bus),
            "detection_latency": dict(self.detection_latency),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSummary":
        return cls(
            duration_bits=data.get("duration_bits", 0),
            bus_speed=data.get("bus_speed", 0),
            events=data.get("events", 0),
            nodes={name: dict(node)
                   for name, node in data.get("nodes", {}).items()},
            bus=dict(data.get("bus", {})),
            detection_latency=dict(data.get("detection_latency", {})),
            schema_version=data.get("schema_version", SUMMARY_SCHEMA_VERSION),
        )

    # ------------------------------------------------------------- render

    def render(self) -> str:
        """Human-readable metric block (one line per node + bus + latency)."""
        lines = [
            f"metrics: {self.events} events over {self.duration_bits} bits, "
            f"bus load {self.busy_fraction:.1%}"
            + (f", {self.bus['dropped_recorded_bits']} wire bits dropped"
               if self.bus.get("dropped_recorded_bits") else "")
        ]
        for name in sorted(self.nodes):
            node = self.nodes[name]
            lines.append(
                f"  {name:<14} tx={node.get('frames_tx', 0):<5} "
                f"rx={node.get('frames_rx', 0):<5} "
                f"arb-lost={node.get('arbitration_losses', 0):<4} "
                f"errors={node.get('error_frames', 0):<5} "
                f"busoffs={node.get('busoffs', 0):<3} "
                f"counterattacks={node.get('counterattacks', 0):<4} "
                f"tec={node.get('tec', 0)}/{node.get('max_tec', 0)}"
            )
        latency = self.detection_latency
        if latency.get("count"):
            lines.append(
                f"  detection latency: n={latency['count']} "
                f"mean={latency['sum'] / latency['count']:.2f} "
                f"min={latency['min']} max={latency['max']} (ID-bit position)"
            )
        return "\n".join(lines)

    @staticmethod
    def aggregate(summaries: List["MetricsSummary"]) -> Dict[str, Any]:
        """Campaign-wide aggregation: summed totals, bit-weighted bus load,
        and a merged detection-latency histogram."""
        aggregated: Dict[str, Any] = {
            name: 0 for name in NODE_COUNTER_FIELDS}
        duration = sum(s.duration_bits for s in summaries)
        busy_bits = sum(s.busy_fraction * s.duration_bits for s in summaries)
        merged: Optional[Histogram] = None
        for summary in summaries:
            for name, value in summary.totals().items():
                aggregated[name] += value
            latency = summary.detection_latency
            if latency.get("count"):
                histogram = Histogram.from_dict(
                    {"name": "detection_latency_bits", **latency})
                if merged is None:
                    merged = histogram
                elif merged.buckets == histogram.buckets:
                    merged.counts = [a + b for a, b in
                                     zip(merged.counts, histogram.counts)]
                    merged.count += histogram.count
                    merged.sum += histogram.sum
                    merged.min = min(merged.min, histogram.min)
                    merged.max = max(merged.max, histogram.max)
        aggregated["runs"] = len(summaries)
        aggregated["duration_bits"] = duration
        aggregated["busy_fraction"] = busy_bits / duration if duration else 0.0
        aggregated["detection_latency"] = (
            {k: v for k, v in merged.to_dict().items()
             if k not in ("type", "name", "labels")}
            if merged is not None else {})
        return aggregated


def render_totals(totals: Dict[str, Any]) -> str:
    """Human-readable block for :meth:`MetricsSummary.aggregate` output."""
    lines = [
        f"  {totals.get('runs', 0)} instrumented run(s), "
        f"{totals.get('duration_bits', 0)} bits, "
        f"bus load {totals.get('busy_fraction', 0.0):.1%}",
        f"  frames tx={totals.get('frames_tx', 0)} "
        f"rx={totals.get('frames_rx', 0)} "
        f"arb-lost={totals.get('arbitration_losses', 0)} "
        f"errors={totals.get('error_frames', 0)} "
        f"overloads={totals.get('overloads', 0)}",
        f"  busoffs={totals.get('busoffs', 0)} "
        f"recoveries={totals.get('recoveries', 0)} "
        f"detections={totals.get('detections', 0)} "
        f"counterattacks={totals.get('counterattacks', 0)} "
        f"({totals.get('counterattack_bits', 0)} bits)",
    ]
    latency = totals.get("detection_latency") or {}
    if latency.get("count"):
        mean = latency["sum"] / latency["count"]
        lines.append(
            f"  detection latency: n={latency['count']} mean={mean:.2f} "
            f"min={latency.get('min', 0):.0f} max={latency.get('max', 0):.0f} "
            f"(ID-bit position)")
    return "\n".join(lines)


class BusProbe:
    """Maintains per-node protocol metrics from a simulator's event stream.

    Args:
        sim: The simulator to observe; the probe subscribes immediately.
        registry: Optional shared :class:`MetricsRegistry` (a fresh private
            one by default).

    Example:
        >>> from repro.bus.simulator import CanBusSimulator
        >>> from repro.node.controller import CanNode
        >>> from repro.can.frame import CanFrame
        >>> sim = CanBusSimulator()
        >>> sim.add_nodes(CanNode("a"), CanNode("b"))
        >>> probe = BusProbe(sim)
        >>> sim.node("a").send(CanFrame(0x100, b"\\x01"))
        >>> _ = sim.advance(200)
        >>> probe.summary().nodes["a"]["frames_tx"]
        1
    """

    def __init__(self, sim: "CanBusSimulator",
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.sim = sim
        # "or" would discard a shared-but-still-empty registry (len() == 0).
        self.registry = registry if registry is not None else MetricsRegistry()
        self.detection_latency = self.registry.histogram(
            "detection_latency_bits", buckets=DETECTION_LATENCY_BUCKETS)
        self._nodes: Dict[str, _NodeProbe] = {}
        self._events_seen = 0
        self._started_at = sim.time
        self._dispatch = {
            FrameStarted: self._on_frame_started,
            FrameTransmitted: self._on_frame_transmitted,
            FrameReceived: self._on_frame_received,
            ArbitrationLost: self._on_arbitration_lost,
            ErrorDetected: self._on_error_detected,
            ErrorStateChanged: self._on_error_state_changed,
            OverloadSignalled: self._on_overload,
            BusOffEntered: self._on_busoff,
            BusOffRecovered: self._on_recovery,
            AttackDetected: self._on_attack_detected,
            CounterattackStarted: self._on_counterattack_started,
            CounterattackEnded: self._on_counterattack_ended,
            FaultActivated: self._on_fault_activated,
            FaultDeactivated: self._on_fault_deactivated,
        }
        self._unsubscribe = sim.on_event(self._on_event)
        self.closed = False

    # ------------------------------------------------------------ routing

    def _node(self, name: str) -> _NodeProbe:
        probe = self._nodes.get(name)
        if probe is None:
            probe = self._nodes[name] = _NodeProbe(self.registry, name)
        return probe

    @replay_safe
    def _on_event(self, event: Event) -> None:
        self._events_seen += 1
        handler = self._dispatch.get(type(event))
        if handler is not None:
            handler(event)

    # ----------------------------------------------------------- handlers

    def _on_frame_started(self, event: FrameStarted) -> None:
        self._node(event.node).frame_attempts.inc()

    def _on_frame_transmitted(self, event: FrameTransmitted) -> None:
        node = self._node(event.node)
        node.frames_tx.inc()
        if event.attempts > 1:
            node.retransmissions.inc(event.attempts - 1)

    def _on_frame_received(self, event: FrameReceived) -> None:
        self._node(event.node).frames_rx.inc()

    def _on_arbitration_lost(self, event: ArbitrationLost) -> None:
        self._node(event.node).arbitration_losses.inc()

    def _on_error_detected(self, event: ErrorDetected) -> None:
        node = self._node(event.node)
        node.error_frames.inc()
        kind = event.error.error_type.value
        node.errors_by_type[kind] = node.errors_by_type.get(kind, 0) + 1

    def _on_error_state_changed(self, event: ErrorStateChanged) -> None:
        node = self._node(event.node)
        node.tec_trajectory.append([event.time, event.tec, event.rec])
        if event.tec > node.max_tec:
            node.max_tec = event.tec
        if event.rec > node.max_rec:
            node.max_rec = event.rec

    def _on_overload(self, event: OverloadSignalled) -> None:
        self._node(event.node).overloads.inc()

    def _on_busoff(self, event: BusOffEntered) -> None:
        node = self._node(event.node)
        node.busoffs.inc()
        if event.tec > node.max_tec:
            node.max_tec = event.tec

    def _on_recovery(self, event: BusOffRecovered) -> None:
        self._node(event.node).recoveries.inc()

    def _on_attack_detected(self, event: AttackDetected) -> None:
        self._node(event.node).detections.inc()
        self.detection_latency.observe(event.detection_bit)

    def _on_counterattack_started(self, event: CounterattackStarted) -> None:
        node = self._node(event.node)
        node.counterattacks.inc()
        node.counterattack_started_at = event.time

    def _on_counterattack_ended(self, event: CounterattackEnded) -> None:
        node = self._node(event.node)
        if node.counterattack_started_at is None:
            return
        bits = event.time - node.counterattack_started_at
        node.counterattack_bits.inc(bits)
        if bits > node.counterattack_max_bits:
            node.counterattack_max_bits = bits
        node.counterattack_started_at = None

    def _on_fault_activated(self, event: FaultActivated) -> None:
        self._node(event.node).fault_activations.inc()

    def _on_fault_deactivated(self, event: FaultDeactivated) -> None:
        self._node(event.node)  # window close: node appears in the summary

    # ------------------------------------------------------------ outputs

    def node_metrics(self, name: str) -> Dict[str, Any]:
        """One node's current metric values as a plain dict."""
        probe = self._nodes.get(name)
        data: Dict[str, Any] = {}
        if probe is not None:
            for field_name in NODE_COUNTER_FIELDS:
                data[field_name] = getattr(probe, field_name).value
            data["errors_by_type"] = dict(probe.errors_by_type)
            data["tec_trajectory"] = [list(p) for p in probe.tec_trajectory]
            data["max_tec"] = probe.max_tec
            data["max_rec"] = probe.max_rec
            data["counterattack_max_bits"] = probe.counterattack_max_bits
        else:
            data = {field_name: 0 for field_name in NODE_COUNTER_FIELDS}
            data.update(errors_by_type={}, tec_trajectory=[],
                        max_tec=0, max_rec=0, counterattack_max_bits=0)
        live = self._live_node(name)
        if live is not None:
            data["tec"] = live.tec
            data["rec"] = live.rec
            data["state"] = live.state.value
            data["max_tec"] = max(data["max_tec"], live.tec)
            data["max_rec"] = max(data["max_rec"], live.rec)
        return data

    def _live_node(self, name: str) -> Optional[Any]:
        for node in self.sim.nodes:
            if getattr(node, "name", None) == name and hasattr(node, "tec"):
                return node
        return None

    def _node_names(self) -> List[str]:
        names = set(self._nodes)
        names.update(node.name for node in self.sim.nodes
                     if hasattr(node, "tec"))
        return sorted(names)

    def bus_metrics(self) -> Dict[str, Any]:
        """Wire-level occupancy counters (exact, even with bounded
        recording or recording disabled).

        ``dominant_fraction`` is the raw dominant-level share;
        ``busy_fraction`` (when history allows) applies the paper's
        idle-gap definition via :class:`~repro.trace.recorder.LogicTrace`.
        """
        wire = self.sim.wire
        metrics = {
            "total_bits": wire.total_bits,
            "dominant_bits": wire.dominant_bits,
            "dominant_fraction": wire.dominant_fraction(),
            "recorded_bits": len(wire.history),
            "dropped_recorded_bits": wire.dropped_bits,
        }
        if wire.record and not wire.dropped_bits:
            from repro.trace.recorder import LogicTrace

            metrics["busy_fraction"] = LogicTrace(
                wire.history).busy_fraction()
        return metrics

    def summary(self) -> MetricsSummary:
        """Freeze the probe's current state into a serializable summary."""
        # Account for a counterattack still open at summary time.
        for probe in self._nodes.values():
            if probe.counterattack_started_at is not None:
                bits = self.sim.time - probe.counterattack_started_at
                probe.counterattack_bits.inc(max(bits, 0))
                probe.counterattack_started_at = None
        latency = {k: v for k, v in self.detection_latency.to_dict().items()
                   if k not in ("type", "name", "labels")}
        return MetricsSummary(
            duration_bits=self.sim.time - self._started_at,
            bus_speed=self.sim.bus_speed,
            events=self._events_seen,
            nodes={name: self.node_metrics(name)
                   for name in self._node_names()},
            bus=self.bus_metrics(),
            detection_latency=latency,
        )

    def snapshot(self, time: Optional[int] = None) -> Dict[str, Any]:
        """One point-in-time sample (the snapshotter's payload): live
        TEC/REC/state plus cumulative counters per node, and bus load.

        Deliberately O(nodes), never O(history): unlike :meth:`summary`
        this skips the :class:`~repro.trace.recorder.LogicTrace` idle-gap
        scan of the recorded wire, reading only the wire's running
        counters — a periodic snapshotter calls this thousands of times.
        """
        wire = self.sim.wire
        live_nodes = {node.name: node for node in self.sim.nodes
                      if hasattr(node, "tec")}
        nodes = {}
        for name in sorted(set(self._nodes) | set(live_nodes)):
            probe = self._nodes.get(name)
            entry: Dict[str, Any] = {}
            if probe is not None:
                entry.update(
                    frames_tx=probe.frames_tx.value,
                    frames_rx=probe.frames_rx.value,
                    errors=probe.error_frames.value,
                    busoffs=probe.busoffs.value,
                    counterattacks=probe.counterattacks.value,
                )
            else:
                entry.update(frames_tx=0, frames_rx=0, errors=0,
                             busoffs=0, counterattacks=0)
            live = live_nodes.get(name)
            if live is not None:
                entry.update(tec=live.tec, rec=live.rec,
                             state=live.state.value)
            nodes[name] = entry
        return {
            "time": self.sim.time if time is None else time,
            "events": self._events_seen,
            "dominant_fraction": round(wire.dominant_fraction(), 6),
            "dominant_bits": wire.dominant_bits,
            "dropped_recorded_bits": wire.dropped_bits,
            "nodes": nodes,
        }

    def close(self) -> None:
        """Detach from the simulator's event stream (idempotent)."""
        if not self.closed:
            self._unsubscribe()
            self.closed = True
