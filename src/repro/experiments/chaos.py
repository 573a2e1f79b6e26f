"""Chaos scenarios and the degradation sweep (Sec. IV-E, quantified).

The paper argues MichiCAN's false-positive risk under sporadic bit errors
is "near zero" (a node needs 32 consecutive errors to bus-off) and that
its timing tolerates oscillator drift up to the empirical fudge factor.
This module turns both claims into measured curves:

* :func:`chaos_fight_setup` — a defended bus (MichiCAN + legitimate
  periodic sender + DoS attacker) with a seeded ``wire.flip`` fault plan;
* :func:`chaos_benign_setup` — the same bus without the attacker, so any
  counterattack is by definition a false positive;
* :func:`run_degradation_sweep` — runs both scenarios over a grid of
  fault intensities (through the robust campaign engine) and produces
  detection-rate / false-positive-rate / bus-off-time curves vs
  intensity as a schema-versioned :class:`DegradationCurve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.faults.apply import apply_fault_plan
from repro.faults.plan import FaultPlan, FaultSpec, FaultWindow
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

#: Bump when the serialized DegradationCurve layout changes incompatibly.
DEGRADATION_SCHEMA_VERSION = 1

#: The legitimate sender's identifier in the chaos scenarios.
CHAOS_SENDER_ID = 0x123

#: The flood attacker's identifier in the chaos fight.
CHAOS_ATTACK_ID = 0x064


def chaos_fault_plan(
    flip_probability: float,
    seed: int = 0,
    dominant_flips_only: bool = False,
) -> FaultPlan:
    """An always-active ``wire.flip`` plan at the given intensity."""
    return FaultPlan((
        FaultSpec(
            name="chaos_flips",
            kind="wire.flip",
            window=FaultWindow(),
            params={"flip_probability": flip_probability,
                    "dominant_flips_only": dominant_flips_only},
            seed=seed,
        ),
    ))


def _chaos_bus(
    flip_probability: float,
    seed: int,
    bus_speed: int,
    legit_period_bits: int,
) -> "tuple[CanBusSimulator, Any]":
    from repro.core.defense import MichiCanNode
    from repro.experiments.scenarios import DEFENDER_ID, detection_ids_for

    sim = CanBusSimulator(bus_speed=bus_speed)
    defender = sim.add_node(MichiCanNode(
        "defender", detection_ids_for(DEFENDER_ID, [CHAOS_SENDER_ID])))
    sim.add_node(CanNode("sender", scheduler=PeriodicScheduler([
        PeriodicMessage(CHAOS_SENDER_ID, period_bits=legit_period_bits,
                        offset_bits=13)])))
    apply_fault_plan(sim, chaos_fault_plan(flip_probability, seed=seed))
    return sim, defender


def chaos_fight_setup(
    flip_probability: float = 0.001,
    seed: int = 0,
    bus_speed: int = 50_000,
    legit_period_bits: int = 2_000,
    name: str = "chaos_fight",
) -> Any:
    """A defended, noisy bus under flood attack (degradation sweep's fight).

    MichiCAN defends against the DoS attacker while a legitimate periodic
    sender shares the wire; a seeded ``wire.flip`` fault corrupts bits at
    ``flip_probability``.  Detection rate under noise comes from here.
    """
    from repro.experiments.scenarios import ExperimentSetup

    sim, defender = _chaos_bus(
        flip_probability, seed, bus_speed, legit_period_bits)
    attacker = sim.add_node(DosAttacker("attacker", CHAOS_ATTACK_ID))
    return ExperimentSetup(sim, defender, (attacker,), name)


def chaos_benign_setup(
    flip_probability: float = 0.001,
    seed: int = 0,
    bus_speed: int = 50_000,
    legit_period_bits: int = 2_000,
    name: str = "chaos_benign",
) -> Any:
    """The same noisy bus with no attacker: every counterattack is a false
    positive, every legitimate bus-off a Sec. IV-E violation."""
    from repro.experiments.scenarios import ExperimentSetup

    sim, defender = _chaos_bus(
        flip_probability, seed, bus_speed, legit_period_bits)
    return ExperimentSetup(sim, defender, (), name)


# ------------------------------------------------------------------ curve

@dataclass(frozen=True)
class DegradationPoint:
    """Aggregated outcome of all runs at one fault intensity.

    Attributes:
        intensity: The per-bit flip probability of this grid point.
        detection_rate: Counterattacks per attacker frame attempt in the
            fight runs (1.0 = every flood frame was countered).
        false_positive_rate: Counterattacks per legitimate frame attempt
            in the benign runs (0.0 = Sec. IV-E holds).
        legit_busoffs: Bus-offs of non-attacker nodes across fight runs.
        benign_busoffs: Bus-offs of any node across benign runs.
        attacker_busoff_ms: Mean attacker bus-off episode time (fight
            runs that eradicated the attacker), or None.
        runs: Completed runs behind this point.
        failed_runs: Runs that ended as campaign failures.
    """

    intensity: float
    detection_rate: float
    false_positive_rate: float
    legit_busoffs: int
    benign_busoffs: int
    attacker_busoff_ms: Optional[float]
    runs: int
    failed_runs: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "intensity": self.intensity,
            "detection_rate": self.detection_rate,
            "false_positive_rate": self.false_positive_rate,
            "legit_busoffs": self.legit_busoffs,
            "benign_busoffs": self.benign_busoffs,
            "attacker_busoff_ms": self.attacker_busoff_ms,
            "runs": self.runs,
            "failed_runs": self.failed_runs,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DegradationPoint":
        return cls(
            intensity=data["intensity"],
            detection_rate=data.get("detection_rate", 0.0),
            false_positive_rate=data.get("false_positive_rate", 0.0),
            legit_busoffs=data.get("legit_busoffs", 0),
            benign_busoffs=data.get("benign_busoffs", 0),
            attacker_busoff_ms=data.get("attacker_busoff_ms"),
            runs=data.get("runs", 0),
            failed_runs=data.get("failed_runs", 0),
        )


@dataclass
class DegradationCurve:
    """Detection / false-positive / bus-off-time curves vs fault intensity."""

    points: List[DegradationPoint] = field(default_factory=list)
    duration_bits: int = 0
    seeds: List[int] = field(default_factory=list)
    schema_version: int = DEGRADATION_SCHEMA_VERSION

    def point_at(self, intensity: float) -> DegradationPoint:
        for point in self.points:
            if point.intensity == intensity:
                return point
        raise KeyError(f"no grid point at intensity {intensity!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "duration_bits": self.duration_bits,
            "seeds": list(self.seeds),
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DegradationCurve":
        return cls(
            points=[DegradationPoint.from_dict(p)
                    for p in data.get("points", [])],
            duration_bits=data.get("duration_bits", 0),
            seeds=list(data.get("seeds", [])),
            schema_version=data.get(
                "schema_version", DEGRADATION_SCHEMA_VERSION),
        )

    def render(self) -> str:
        lines = [
            f"degradation sweep: {len(self.points)} intensities x "
            f"{len(self.seeds)} seed(s), {self.duration_bits} bits/run",
            f"{'intensity':>10}  {'detect':>7}  {'false+':>7}  "
            f"{'legit-busoff':>12}  {'busoff-ms':>9}  {'failed':>6}",
        ]
        for point in self.points:
            busoff = (f"{point.attacker_busoff_ms:9.2f}"
                      if point.attacker_busoff_ms is not None else
                      f"{'-':>9}")
            lines.append(
                f"{point.intensity:>10.5f}  {point.detection_rate:>7.3f}  "
                f"{point.false_positive_rate:>7.3f}  "
                f"{point.legit_busoffs + point.benign_busoffs:>12d}  "
                f"{busoff}  {point.failed_runs:>6d}")
        return "\n".join(lines)


def run_degradation_sweep(
    intensities: Sequence[float],
    seeds: Sequence[int] = (0,),
    duration_bits: int = 20_000,
    n_workers: int = 1,
    timeout_seconds: Optional[float] = None,
    max_retries: int = 0,
    checkpoint: Optional[str] = None,
    resume: bool = False,
) -> DegradationCurve:
    """Sweep fault intensity over the chaos scenarios; return the curves.

    For every intensity x seed the fight and the benign scenario run once
    (with metrics) through the robust campaign engine, so a crashing or
    hanging grid point degrades to a ``failed_runs`` count instead of
    killing the sweep.  ``checkpoint`` names the campaign's work journal,
    and ``resume`` replays the runs it already completed.
    """
    from repro.experiments.campaign import Campaign, ScenarioSpec

    specs = []
    for intensity in intensities:
        for seed in seeds:
            for scenario in ("chaos_fight", "chaos_benign"):
                specs.append(ScenarioSpec(
                    scenario=scenario,
                    params={"flip_probability": intensity},
                    seed=seed,
                    duration_bits=duration_bits,
                    label=f"{scenario}@{intensity:g}#{seed}",
                    metrics=True,
                ))
    report = Campaign(
        specs, n_workers=n_workers, timeout_seconds=timeout_seconds,
        max_retries=max_retries, checkpoint=checkpoint,
    ).run(resume=resume)

    points = []
    for intensity in intensities:
        detection_num = detection_den = 0
        false_num = false_den = 0
        legit_busoffs = benign_busoffs = 0
        busoff_ms: List[float] = []
        runs = 0
        for record in report.records:
            if record.spec.params.get("flip_probability") != intensity:
                continue
            runs += 1
            summary = record.result.metrics
            nodes = summary.nodes if summary is not None else {}
            defender = nodes.get("defender", {})
            if record.spec.scenario == "chaos_fight":
                attacker = nodes.get("attacker", {})
                detection_num += defender.get("counterattacks", 0)
                detection_den += attacker.get("frame_attempts", 0)
                legit_busoffs += sum(
                    node.get("busoffs", 0)
                    for name, node in nodes.items() if name != "attacker")
                stats = record.result.attacker_stats.get("attacker", {})
                if stats.get("count", 0):
                    busoff_ms.append(stats["mean_ms"])
            else:
                sender = nodes.get("sender", {})
                false_num += defender.get("counterattacks", 0)
                false_den += sender.get("frame_attempts", 0)
                benign_busoffs += sum(
                    node.get("busoffs", 0) for node in nodes.values())
        failed = sum(
            1 for failure in report.failures
            if failure.spec.params.get("flip_probability") == intensity)
        points.append(DegradationPoint(
            intensity=intensity,
            detection_rate=(detection_num / detection_den
                            if detection_den else 0.0),
            false_positive_rate=(false_num / false_den
                                 if false_den else 0.0),
            legit_busoffs=legit_busoffs,
            benign_busoffs=benign_busoffs,
            attacker_busoff_ms=(sum(busoff_ms) / len(busoff_ms)
                                if busoff_ms else None),
            runs=runs,
            failed_runs=failed,
        ))
    return DegradationCurve(
        points=points,
        duration_bits=duration_bits,
        seeds=list(seeds),
    )
