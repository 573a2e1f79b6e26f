"""The bus probe: per-node protocol metrics folded from recorded events.

:class:`BusProbe` is a view over a simulator's recorded event stream
(``sim.events``): it remembers where the stream stood when it was
attached and, whenever it is asked for a :meth:`~BusProbe.snapshot` or a
:meth:`~BusProbe.summary`, folds the events recorded since into a
:class:`~repro.trace.framelog.FrameLog` — the quantities behind the
paper's Tables II-III and Figs. 4b/6: frames transmitted/received,
arbitration losses, error frames by type, overload frames, TEC/REC
trajectories, bus-off entries and recoveries, counterattack count and
duration, and a detection-latency histogram in ID-bit positions.  Live
TEC/REC/state and the wire counters are read from the simulator itself.

The probe never subscribes to the event stream, so it costs nothing
while the bus runs and never holds the fast-forward engine back.
:meth:`BusProbe.close` freezes the end of the folded stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.obs.metrics import Histogram
from repro.trace.framelog import NODE_COUNTER_FIELDS, FrameLog

if TYPE_CHECKING:
    from repro.bus.simulator import CanBusSimulator

#: Bump when the MetricsSummary dict layout changes incompatibly.
#: v2: per-node ``fault_activations`` counter (fault-injection windows).
SUMMARY_SCHEMA_VERSION = 2


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
             if k not in ("type", "name")}
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
    """Per-node protocol metrics of a simulator, from its recorded events.

    Args:
        sim: The simulator to observe; the probe covers the events
            recorded from now on.

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

    def __init__(self, sim: "CanBusSimulator") -> None:
        self.sim = sim
        self._log = FrameLog()
        self._start = self._folded = len(sim.events)
        self._started_at = sim.time
        self.closed = False

    def _fold(self) -> FrameLog:
        """Fold the events recorded since the last call (until closed)."""
        events = self.sim.events
        if not self.closed and len(events) > self._folded:
            self._log.feed(events[self._folded:])
            self._folded = len(events)
        return self._log

    # ------------------------------------------------------------ outputs

    def node_metrics(self, name: str) -> Dict[str, Any]:
        """One node's current metric values as a plain dict."""
        data = self._fold().tally(name).metrics()
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
        names = set(self._fold().nodes)
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
        """Freeze the probe's current state into a serializable summary.

        A counterattack still open now counts up to the current clock.
        """
        log = self._fold()
        nodes = {name: self.node_metrics(name) for name in self._node_names()}
        for name, tally in log.nodes.items():
            if tally.counterattack_started_at is not None:
                nodes[name]["counterattack_bits"] += max(
                    self.sim.time - tally.counterattack_started_at, 0)
        latency = {k: v for k, v in log.detection_latency.to_dict().items()
                   if k not in ("type", "name")}
        return MetricsSummary(
            duration_bits=self.sim.time - self._started_at,
            bus_speed=self.sim.bus_speed,
            events=self._folded - self._start,
            nodes=nodes,
            bus=self.bus_metrics(),
            detection_latency=latency,
        )

    def snapshot(self, time: Optional[int] = None) -> Dict[str, Any]:
        """One point-in-time sample (the snapshotter's payload): live
        TEC/REC/state plus cumulative counters per node, and bus load.

        Deliberately O(nodes + new events), never O(history): unlike
        :meth:`summary` this skips the :class:`~repro.trace.recorder.
        LogicTrace` idle-gap scan of the recorded wire, reading only the
        wire's running counters, and folds only the events recorded since
        the previous call — a periodic snapshotter calls this thousands of
        times.
        """
        log = self._fold()
        wire = self.sim.wire
        live_nodes = {node.name: node for node in self.sim.nodes
                      if hasattr(node, "tec")}
        nodes = {}
        for name in sorted(set(log.nodes) | set(live_nodes)):
            tally = log.tally(name)
            entry: Dict[str, Any] = {
                "frames_tx": tally.frames_tx,
                "frames_rx": tally.frames_rx,
                "errors": tally.error_frames,
                "busoffs": tally.busoffs,
                "counterattacks": tally.counterattacks,
            }
            live = live_nodes.get(name)
            if live is not None:
                entry.update(tec=live.tec, rec=live.rec,
                             state=live.state.value)
            nodes[name] = entry
        return {
            "time": self.sim.time if time is None else time,
            "events": self._folded - self._start,
            "dominant_fraction": round(wire.dominant_fraction(), 6),
            "dominant_bits": wire.dominant_bits,
            "dropped_recorded_bits": wire.dropped_bits,
            "nodes": nodes,
        }

    def close(self) -> None:
        """Fold what was recorded so far and stop there (idempotent)."""
        if not self.closed:
            self._fold()
            self.closed = True
