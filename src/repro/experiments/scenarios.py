"""The paper's experiments as reusable drivers (Sec. V).

Each ``experiment_N`` builds the bus topology of one Table II row; higher-
level helpers cover the >2-attacker extension, the Parrot comparison and the
ParkSense on-vehicle scenario.  Benchmarks and examples call these so paper
numbers are produced by exactly one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.attacks.dos import DosAttacker, TargetedDosAttacker
from repro.attacks.multi_id import ToggleAttacker
from repro.baselines.parrot import ParrotNode
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import BUS_SPEED_50K
from repro.core.defense import MichiCanNode
from repro.dbc.types import CommunicationMatrix
from repro.experiments.config import DEFAULT_DURATION_BITS, RunConfig
from repro.experiments.runner import ExperimentResult, make_simulator, run_and_measure
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler
from repro.vehicle.parksense import ParkSense
from repro.workloads.matrix import theoretical_bus_load
from repro.workloads.restbus import RestbusNode
from repro.workloads.vehicles import pacifica_matrix, vehicle_buses

#: The MichiCAN-equipped ECU's CAN ID in all Table II experiments.
DEFENDER_ID = 0x173

# DEFAULT_DURATION_BITS moved to repro.experiments.config (PR 6) and is
# re-exported here for compatibility.

#: Target steady-state restbus load.  The paper cites ~40 % load in real
#: vehicles at native speed; replaying onto the 50 kbit/s evaluation bus
#: thins the traffic (PCAN replay drops what does not fit), and the paper's
#: Exp. 1/3 statistics show only occasional benign interruptions — matched
#: by a ~12 % replay load here.
RESTBUS_TARGET_LOAD = 0.12


def detection_ids_for(
    defender_id: int, legitimate_ids: Sequence[int]
) -> FrozenSet[int]:
    """𝔻 for a defender that must whitelist the restbus traffic below it."""
    lower_legitimate = {i for i in legitimate_ids if i < defender_id}
    return frozenset(
        j for j in range(defender_id + 1) if j not in lower_legitimate
    )


def _restbus(sim: CanBusSimulator) -> RestbusNode:
    """Veh. D bus 1 replayed at a ~35 % steady-state load (Sec. V-A)."""
    matrix, _ = vehicle_buses("veh_d")
    native = theoretical_bus_load(matrix, sim.bus_speed)
    scale = max(1.0, native / RESTBUS_TARGET_LOAD)
    node = RestbusNode("restbus", matrix, sim.bus_speed, time_scale=scale)
    sim.add_node(node)
    return node


def _defender(
    sim: CanBusSimulator,
    legitimate_ids: Sequence[int] = (),
    own_period_bits: Optional[int] = 25_000,
) -> MichiCanNode:
    """The MichiCAN ECU transmitting 0x173 (its own periodic message)."""
    scheduler = None
    if own_period_bits:
        scheduler = PeriodicScheduler(
            [PeriodicMessage(DEFENDER_ID, period_bits=own_period_bits,
                             offset_bits=977)]
        )
    node = MichiCanNode(
        "michican",
        detection_ids_for(DEFENDER_ID, legitimate_ids),
        scheduler=scheduler,
    )
    sim.add_node(node)
    return node


@dataclass(frozen=True)
class ExperimentSetup:
    """A fully-wired experiment ready to run."""

    sim: CanBusSimulator
    defender: MichiCanNode
    attackers: Tuple[CanNode, ...]
    name: str

    def run(self, *, config: Optional[RunConfig] = None) -> ExperimentResult:
        """Run the setup's bus under ``config`` (named after the setup
        unless ``config.name`` is set)."""
        cfg = config if config is not None else RunConfig()
        if cfg.name is None:
            cfg = cfg.with_overrides(name=self.name)
        defenders = [self.defender] if self.defender is not None else []
        return run_and_measure(
            self.sim, self.attackers, defenders=defenders, config=cfg,
        )


def _single_attacker_setup(
    attack_id: int, restbus: bool, name: str, bus_speed: int
) -> ExperimentSetup:
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    legitimate: List[int] = []
    if restbus:
        node = _restbus(sim)
        legitimate = node.matrix.all_ids()
    defender = _defender(sim, legitimate)
    attacker = DosAttacker("attacker", attack_id)
    sim.add_node(attacker)
    return ExperimentSetup(sim, defender, (attacker,), name)


def experiment_1(bus_speed: int = BUS_SPEED_50K) -> ExperimentSetup:
    """Spoofing attacker (0x173) with restbus simulation."""
    return _single_attacker_setup(0x173, restbus=True, name="exp1",
                                  bus_speed=bus_speed)


def experiment_2(bus_speed: int = BUS_SPEED_50K) -> ExperimentSetup:
    """Spoofing attacker (0x173), attacker and defender alone on the bus."""
    return _single_attacker_setup(0x173, restbus=False, name="exp2",
                                  bus_speed=bus_speed)


def experiment_3(bus_speed: int = BUS_SPEED_50K) -> ExperimentSetup:
    """DoS attacker (0x064) with restbus simulation."""
    return _single_attacker_setup(0x064, restbus=True, name="exp3",
                                  bus_speed=bus_speed)


def experiment_4(bus_speed: int = BUS_SPEED_50K) -> ExperimentSetup:
    """DoS attacker (0x064) without restbus."""
    return _single_attacker_setup(0x064, restbus=False, name="exp4",
                                  bus_speed=bus_speed)


def experiment_5(
    bus_speed: int = BUS_SPEED_50K,
    attack_ids: Tuple[int, int] = (0x066, 0x067),
) -> ExperimentSetup:
    """Two attacking ECUs with two distinct DoS CAN IDs (Fig. 6 pattern)."""
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    defender = _defender(sim)
    attackers = tuple(
        sim.add_node(DosAttacker(f"attacker_{can_id:03x}", can_id))
        for can_id in attack_ids
    )
    return ExperimentSetup(sim, defender, attackers, "exp5")


def experiment_6(
    bus_speed: int = BUS_SPEED_50K,
    attack_ids: Tuple[int, int] = (0x050, 0x051),
) -> ExperimentSetup:
    """One attacker toggling between two CAN IDs."""
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    defender = _defender(sim)
    attacker = sim.add_node(ToggleAttacker("attacker", attack_ids))
    return ExperimentSetup(sim, defender, (attacker,), "exp6")


EXPERIMENTS = {
    1: experiment_1,
    2: experiment_2,
    3: experiment_3,
    4: experiment_4,
    5: experiment_5,
    6: experiment_6,
}


def run_table2(
    duration_bits: int = DEFAULT_DURATION_BITS,
    bus_speed: int = BUS_SPEED_50K,
) -> Dict[int, ExperimentResult]:
    """All six Table II experiments."""
    return {
        number: factory(bus_speed).run(
            config=RunConfig(duration_bits=duration_bits))
        for number, factory in EXPERIMENTS.items()
    }


def restbus_baseline(bus_speed: int = BUS_SPEED_50K) -> ExperimentSetup:
    """Benign restbus + MichiCAN defender, no attacker (false-positive
    baseline).

    The defended bus carrying only legitimate traffic: every detection or
    counterattack recorded here is by definition a false positive, making
    this the control run for Exp. 1/3 and — because the bus is mostly
    uncontended frames and idle gaps — the reference workload for the
    fast-forward engine's throughput benchmarks.
    """
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    node = _restbus(sim)
    defender = _defender(sim, node.matrix.all_ids())
    return ExperimentSetup(sim, defender, (), "restbus_baseline")


# --------------------------------------------------------------- extensions

def multi_attacker_experiment(
    num_attackers: int,
    bus_speed: int = BUS_SPEED_50K,
    base_id: int = 0x066,
) -> ExperimentSetup:
    """A >= 2 concurrent attackers (the Sec. V-C extension to A = 3, 4)."""
    if num_attackers < 1:
        raise ValueError("need at least one attacker")
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    defender = _defender(sim)
    attackers = tuple(
        sim.add_node(DosAttacker(f"attacker_{base_id + i:03x}", base_id + i))
        for i in range(num_attackers)
    )
    return ExperimentSetup(sim, defender, attackers, f"multi_{num_attackers}")


def total_fight_bits(result: ExperimentResult) -> int:
    """Length of the combined bus-off fight: first attack bit to the last
    attacker's *first* bus-off (the paper's 3515 / 4660-bit numbers for
    A = 3 / 4).  Later episodes (after recovery) are excluded."""
    first_episodes = [eps[0] for eps in result.episodes.values() if eps]
    if not first_episodes:
        return 0
    first_start = min(e.start for e in first_episodes)
    last_end = max(e.end for e in first_episodes)
    return last_end - first_start


# ---------------------------------------------------------- Parrot baseline

@dataclass(frozen=True)
class ParrotSetup:
    sim: CanBusSimulator
    parrot: ParrotNode
    attacker: CanNode


def parrot_defense_setup(
    attack_id: int = DEFENDER_ID,
    attack_period_bits: int = 1_000,
    bus_speed: int = BUS_SPEED_50K,
    max_start_latency: int = 2,
    seed: int = 7,
) -> ParrotSetup:
    """Parrot defending against a periodic spoofing attacker.

    Parrot needs the attack periodic (its flood frames must complete between
    instances to keep its own TEC below bus-off) — one of the structural
    weaknesses the MichiCAN paper highlights.
    """
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    parrot = ParrotNode(
        "parrot", detection_ids={attack_id},
        max_start_latency=max_start_latency, seed=seed,
    )
    sim.add_node(parrot)
    attacker = CanNode("attacker", scheduler=PeriodicScheduler(
        [PeriodicMessage(attack_id, period_bits=attack_period_bits,
                         payload_fn=lambda n: b"\xFF" * 8)]
    ))
    sim.add_node(attacker)
    return ParrotSetup(sim, parrot, attacker)


def michican_defense_setup(
    attack_id: int = DEFENDER_ID,
    attack_period_bits: int = 1_000,
    bus_speed: int = BUS_SPEED_50K,
) -> ExperimentSetup:
    """The same periodic attack defended by MichiCAN (fair comparison)."""
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    defender = _defender(sim, own_period_bits=None)
    attacker = CanNode("attacker", scheduler=PeriodicScheduler(
        [PeriodicMessage(attack_id, period_bits=attack_period_bits,
                         payload_fn=lambda n: b"\xFF" * 8)]
    ))
    sim.add_node(attacker)
    return ExperimentSetup(sim, defender, (attacker,), "michican_vs_parrot")


# ------------------------------------------------------------- on-vehicle

@dataclass
class ParkSenseOutcome:
    """Result of the §V-F scenario."""

    feature: ParkSense
    attacker_bus_off: bool
    dashboard: List[str]
    downtime_windows: List[tuple]
    attacker_busoff_count: int = 0


def parksense_experiment(
    with_michican: bool,
    duration_bits: int = 400_000,
    bus_speed: int = BUS_SPEED_50K,
    attack_start_bits: int = 60_000,
    matrix: Optional[CommunicationMatrix] = None,
) -> ParkSenseOutcome:
    """The on-vehicle test: targeted DoS (0x25F) against ParkSense.

    Without MichiCAN the feature times out and the cluster latches
    "PARKSENSE UNAVAILABLE SERVICE REQUIRED"; with the MichiCAN dongle on
    the OBD-II port the attacker is bused off and the feature survives.
    """
    matrix = matrix or pacifica_matrix()
    sim = make_simulator(config=RunConfig(bus_speed=bus_speed))
    # The vehicle's native traffic would saturate the slow evaluation bus
    # (the real car runs 500 kbit/s); stretch all periods to a ~30 % load,
    # like the restbus replay does.
    native_load = theoretical_bus_load(matrix, bus_speed)
    scale = max(1.0, native_load / 0.30)
    restbus = RestbusNode("vehicle", matrix, bus_speed, time_scale=scale)
    sim.add_node(restbus)

    feature = ParkSense(matrix, bus_speed)
    # Periods were stretched by the replay scale; stretch supervision too.
    for supervision in feature.supervised.values():
        supervision.timeout_bits = int(supervision.timeout_bits * scale)

    cluster = CanNode("cluster")
    cluster.on_frame_received(feature.on_frame)
    sim.add_node(cluster)

    defender: Optional[MichiCanNode] = None
    if with_michican:
        defender = MichiCanNode(
            "michican_dongle",
            detection_ids_for(0x260, matrix.all_ids()) - {0x260},
        )
        sim.add_node(defender)

    # The attacker stays silent until the feature is established, then
    # floods 0x25F from the OBD-II port.
    attacker = TargetedDosAttacker(
        "obd_attacker", victim_id=0x260, start_bits=attack_start_bits
    )
    sim.add_node(attacker)

    poll_interval = 500
    next_poll = poll_interval
    while sim.time < duration_bits:
        sim.advance(min(poll_interval, duration_bits - sim.time))
        if sim.time >= next_poll:
            feature.poll(sim.time)
            next_poll += poll_interval

    return ParkSenseOutcome(
        feature=feature,
        attacker_bus_off=attacker.is_bus_off,
        dashboard=list(feature.dashboard),
        downtime_windows=feature.downtime_windows(),
        attacker_busoff_count=getattr(attacker, "bus_off_count", 0),
    )
