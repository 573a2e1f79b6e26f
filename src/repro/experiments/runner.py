"""Experiment harness: assemble a bus, run it, measure bus-off statistics.

Mirrors the paper's method (Sec. V-C): record the bus for a fixed window
containing multiple bus-off attempts, then report mean / standard deviation /
maximum bus-off time per attacker — one Table II row per experiment.

:class:`ExperimentResult` carries a stable serialization contract
(:meth:`ExperimentResult.to_dict` / :meth:`ExperimentResult.from_dict`):
it is the payload the campaign layer (:mod:`repro.experiments.campaign`)
ships between worker processes and persists to disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.experiments.config import RunConfig
from repro.node.controller import CanNode
from repro.obs.probe import MetricsSummary
from repro.trace.framelog import BusOffEpisode, FrameLog


@dataclass
class ExperimentResult:
    """Measured outcome of one experiment run.

    Attributes:
        name: Experiment identifier (e.g. "exp5").
        bus_speed: Bus speed the run used.
        duration_bits: Simulated window length.
        attacker_stats: Per-attacker-node Table II row
            (count / mean_ms / std_ms / max_ms).
        episodes: Raw per-attacker bus-off episodes.
        detections: Total MichiCAN detections.
        counterattacks: Total counterattacks launched.
        busy_fraction: Observed bus-occupancy fraction.
        metrics: Optional per-node protocol telemetry collected by a
            :class:`~repro.obs.probe.BusProbe` during the run.
    """

    name: str
    bus_speed: int
    duration_bits: int
    attacker_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    episodes: Dict[str, List[BusOffEpisode]] = field(default_factory=dict)
    detections: int = 0
    counterattacks: int = 0
    busy_fraction: float = 0.0
    metrics: Optional[MetricsSummary] = None

    def mean_busoff_ms(self, attacker: str) -> float:
        return self.attacker_stats[attacker]["mean_ms"]

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict that round-trips through
        :meth:`from_dict` (episodes included)."""
        return {
            "name": self.name,
            "bus_speed": self.bus_speed,
            "duration_bits": self.duration_bits,
            "attacker_stats": {
                attacker: dict(stats)
                for attacker, stats in self.attacker_stats.items()
            },
            "episodes": {
                attacker: [
                    {
                        "node": e.node,
                        "start": e.start,
                        "end": e.end,
                        "attempts": e.attempts,
                        "interruptions": e.interruptions,
                    }
                    for e in eps
                ]
                for attacker, eps in self.episodes.items()
            },
            "detections": self.detections,
            "counterattacks": self.counterattacks,
            "busy_fraction": self.busy_fraction,
            "metrics": self.metrics.to_dict() if self.metrics else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            bus_speed=data["bus_speed"],
            duration_bits=data["duration_bits"],
            attacker_stats={
                attacker: dict(stats)
                for attacker, stats in data.get("attacker_stats", {}).items()
            },
            episodes={
                attacker: [BusOffEpisode(**episode) for episode in eps]
                for attacker, eps in data.get("episodes", {}).items()
            },
            detections=data.get("detections", 0),
            counterattacks=data.get("counterattacks", 0),
            busy_fraction=data.get("busy_fraction", 0.0),
            metrics=(MetricsSummary.from_dict(data["metrics"])
                     if data.get("metrics") else None),
        )

    def render(self) -> str:
        """One experiment's rows in the Table II format."""
        data = self.to_dict()
        lines = [
            f"{data['name']}: {data['duration_bits']} bits at "
            f"{data['bus_speed']} bit/s, "
            f"{data['detections']} detections, "
            f"{data['counterattacks']} counterattacks"
        ]
        for attacker, stats in sorted(data["attacker_stats"].items()):
            lines.append(
                f"  {attacker:<14} episodes={stats['count']:<3.0f} "
                f"mean={stats['mean_ms']:6.1f} ms  "
                f"std={stats['std_ms']:5.2f} ms  max={stats['max_ms']:6.1f} ms"
            )
        if self.metrics is not None:
            lines.append(self.metrics.render())
        return "\n".join(lines)


def run_and_measure(
    sim: CanBusSimulator,
    attackers: Sequence[CanNode],
    defenders: Optional[Sequence[MichiCanNode]] = None,
    *,
    config: Optional[RunConfig] = None,
) -> ExperimentResult:
    """Run ``sim`` for the configured window and collect Table II statistics.

    This is the single-run primitive.  For multi-run parameterized studies
    (sweeps, repeated seeds, fan-out over worker processes) build
    :class:`repro.experiments.campaign.ScenarioSpec` lists and hand them to
    :class:`repro.experiments.campaign.Campaign` instead of looping over
    this function by hand.  Observers ride ``sim`` itself: attach a
    :class:`~repro.obs.probe.BusProbe` before the call and store its
    summary in ``result.metrics`` after it, as
    :func:`~repro.experiments.campaign.execute_spec` does.

    Args:
        config: A :class:`~repro.experiments.config.RunConfig` carrying the
            window length, result name and engine selection ("fast" uses
            the fast-forward path, "bit" forces per-bit stepping); the
            defaults when None.
    """
    cfg = config if config is not None else RunConfig()
    sim.advance(cfg.duration_bits, policy=cfg.policy())
    log = FrameLog(sim.events)
    result = ExperimentResult(
        name=cfg.name if cfg.name is not None else "experiment",
        bus_speed=sim.bus_speed,
        duration_bits=cfg.duration_bits,
    )
    for attacker in attackers:
        result.episodes[attacker.name] = log.busoff_episodes(attacker.name)
        result.attacker_stats[attacker.name] = log.busoff_statistics(
            attacker.name, sim.bus_speed
        )
    for defender in defenders or []:
        result.detections += len(defender.firmware.detections)
        result.counterattacks += defender.counterattacks
    if sim.wire.record:
        if sim.wire.dropped_bits:
            # Bounded recording evicted part of the window: fall back to
            # the exact dominant-level fraction the wire counts in O(1).
            result.busy_fraction = sim.wire.dominant_fraction()
        else:
            from repro.trace.recorder import LogicTrace

            result.busy_fraction = LogicTrace(
                sim.wire.history).busy_fraction()
    return result


def make_simulator(
    nodes: Sequence[CanNode] = (),
    *,
    config: Optional[RunConfig] = None,
) -> CanBusSimulator:
    """A recording simulator at ``config.bus_speed`` (default: the paper's
    online-evaluation 50 kbit/s) with ``nodes`` attached in order.

    Callers that need a bounded or disabled wire history build
    :class:`~repro.bus.simulator.CanBusSimulator` directly.
    """
    cfg = config if config is not None else RunConfig()
    sim = CanBusSimulator(bus_speed=cfg.bus_speed)
    sim.add_nodes(*nodes)
    return sim
