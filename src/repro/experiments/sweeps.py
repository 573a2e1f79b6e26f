"""Parameter-sweep machinery: systematic variation beyond single runs.

The paper reports point measurements; the simulator can afford curves.
These sweeps are reusable drivers behind the extension benchmarks:

* :func:`sweep_attack_ids` — bus-off time and detection bit position across
  attacker identifiers (exposes the best/worst-case band of Table III);
* :func:`sweep_attacker_dlc` — the DLC dependence of the bit-error position
  (the paper's Sec. IV-E case analysis);
* :func:`sweep_restbus_load` — bus-off time vs benign load, the measured
  curve behind the T = base/(1-b) closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.attacks.dos import DosAttacker
from repro.bus.events import AttackDetected
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.experiments.config import RunConfig
from repro.node.controller import CanNode
from repro.trace.framelog import FrameLog
from repro.workloads.matrix import theoretical_bus_load
from repro.workloads.restbus import RestbusNode
from repro.workloads.vehicles import vehicle_buses

if TYPE_CHECKING:
    from repro.experiments.scenarios import ExperimentSetup


@dataclass(frozen=True)
class FightSample:
    """One measured bus-off fight."""

    attack_id: int
    dlc: int
    detection_bit: int
    busoff_bits: Optional[int]

    @property
    def eradicated(self) -> bool:
        return self.busoff_bits is not None


def dos_fight_setup(
    attack_id: int,
    dlc: int = 8,
    detection_ids: Iterable[int] = range(0x100),
    bus_speed: int = 50_000,
    extra_nodes: Optional[Sequence[CanNode]] = None,
    name: str = "dos_fight",
) -> "ExperimentSetup":
    """A defender-vs-flooding-attacker bus, ready to run.

    The one-fight topology behind :func:`sweep_attack_ids` /
    :func:`sweep_attacker_dlc`, exposed as a named scenario factory for the
    campaign engine.
    """
    from repro.experiments.scenarios import ExperimentSetup

    sim = CanBusSimulator(bus_speed=bus_speed)
    defender = sim.add_node(MichiCanNode("defender", detection_ids))
    for node in extra_nodes or ():
        sim.add_node(node)
    attacker = sim.add_node(DosAttacker(
        "attacker", attack_id, payload_fn=lambda n, d=dlc: bytes(d)))
    return ExperimentSetup(sim, defender, (attacker,), name)


def single_frame_fight_setup(
    attack_id: int = 0x064,
    bus_speed: int = 50_000,
    name: str = "single_frame_fight",
) -> "ExperimentSetup":
    """A defender against one queued malicious frame (the speed-sweep fight).

    The attacker is a plain controller with a single pending frame; the
    defender's counterattacks force retransmissions until bus-off, so the
    first :class:`~repro.trace.framelog.BusOffEpisode` spans exactly the
    paper's bus-off time.
    """
    from repro.experiments.scenarios import ExperimentSetup

    sim = CanBusSimulator(bus_speed=bus_speed)
    defender = sim.add_node(MichiCanNode("defender", range(0x100)))
    attacker = sim.add_node(CanNode("attacker"))
    attacker.send(CanFrame(attack_id, bytes(8)))
    return ExperimentSetup(sim, defender, (attacker,), name)


def restbus_fight_setup(
    vehicle: str = "veh_d",
    bus: int = 1,
    target_load: float = 0.12,
    attack_id: int = 0x064,
    defender_id: int = 0x173,
    bus_speed: int = 50_000,
    name: Optional[str] = None,
) -> "ExperimentSetup":
    """Exp. 3's topology on any of the eight vehicle buses at any load.

    Replays the chosen vehicle bus thinned to ``target_load`` (0 disables
    the restbus entirely), with a MichiCAN defender and a DoS attacker —
    the parameterized scenario behind the restbus and load sweeps.
    """
    from repro.experiments.scenarios import ExperimentSetup, detection_ids_for

    if not 0.0 <= target_load < 0.8:
        raise ValueError(f"target load {target_load} outside the sane range")
    if bus not in (1, 2):
        raise ValueError(f"vehicle buses are numbered 1 or 2, got {bus}")
    matrix = vehicle_buses(vehicle)[bus - 1]
    sim = CanBusSimulator(bus_speed=bus_speed)
    if target_load > 0:
        native = theoretical_bus_load(matrix, sim.bus_speed)
        scale = max(1.0, native / target_load)
        sim.add_node(RestbusNode("restbus", matrix, sim.bus_speed,
                                 time_scale=scale))
        detection_ids = detection_ids_for(defender_id, matrix.all_ids())
    else:
        detection_ids = detection_ids_for(defender_id, [])
    defender = sim.add_node(MichiCanNode("michican", detection_ids))
    attacker = sim.add_node(DosAttacker("attacker", attack_id))
    return ExperimentSetup(sim, defender, (attacker,), name or matrix.name)


def _run_fight(
    attack_id: int,
    dlc: int = 8,
    detection_ids: Iterable[int] = range(0x100),
    limit: int = 6_000,
    extra_nodes: Optional[Sequence[CanNode]] = None,
) -> FightSample:
    setup = dos_fight_setup(attack_id, dlc=dlc, detection_ids=detection_ids,
                            extra_nodes=extra_nodes)
    sim, attacker = setup.sim, setup.attackers[0]
    sim.advance_until(lambda s: attacker.is_bus_off, limit)
    detections = sim.events_of(AttackDetected)
    detection_bit = detections[0].detection_bit if detections else 0
    episodes = FrameLog(sim.events).busoff_episodes(attacker.name)
    busoff_bits = episodes[0].duration_bits if episodes else None
    return FightSample(attack_id, dlc, detection_bit, busoff_bits)


def sweep_attack_ids(
    attack_ids: Sequence[int],
    detection_ids: Iterable[int] = range(0x100),
) -> List[FightSample]:
    """Fight every attacker ID once on a clean bus."""
    return [_run_fight(attack_id, detection_ids=detection_ids)
            for attack_id in attack_ids]


def sweep_attacker_dlc(
    dlcs: Sequence[int] = tuple(range(9)),
    attack_id: int = 0x0AA,
) -> List[FightSample]:
    """Fight the same ID with every payload length (Sec. IV-E cases)."""
    return [_run_fight(attack_id, dlc=dlc) for dlc in dlcs]


def sweep_restbus_load(
    target_loads: Sequence[float],
    vehicle: str = "veh_d",
    duration_bits: int = 60_000,
) -> Dict[float, float]:
    """Mean bus-off bits as a function of benign load (measured curve).

    Returns target_load -> mean episode bits over the window.
    """
    results: Dict[float, float] = {}
    for load in target_loads:
        setup = restbus_fight_setup(vehicle=vehicle, target_load=load,
                                    name=f"load_{load:.2f}")
        result = setup.run(config=RunConfig(duration_bits=duration_bits))
        stats = result.attacker_stats["attacker"]
        results[load] = stats["mean_ms"] / 1e3 * setup.sim.bus_speed
    return results
