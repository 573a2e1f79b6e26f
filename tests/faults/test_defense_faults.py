"""Defense-layer injectors against the MichiCAN firmware."""

import pytest

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError, InjectedFaultError
from repro.faults.defense import compile_defense_fault
from repro.faults.node import NodeFaultInjector
from repro.faults.plan import FaultSpec, FaultWindow
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def defense_spec(kind, window=None, **params):
    return FaultSpec(name=kind.split(".")[-1], kind=kind,
                     window=window or FaultWindow(), target="defender",
                     params=params, seed=5)


def fight_sim():
    sim = CanBusSimulator()
    defender = sim.add_node(MichiCanNode("defender", [0x064]))
    sim.add_node(DosAttacker("attacker", 0x064))
    return sim, defender


def install(sim, defender, spec):
    fault = compile_defense_fault(spec, defender, sim.bus_speed)
    return NodeFaultInjector(defender, [fault]), fault


# --------------------------------------------------------- window tampering

def test_delayed_window_shifts_and_restores_the_trigger():
    sim, defender = fight_sim()
    original = defender.firmware.trigger_position
    install(sim, defender, defense_spec(
        "defense.delayed_window", window=FaultWindow(0, 40), delay_bits=3))
    sim.advance(10)
    assert defender.firmware.trigger_position == original + 3
    sim.advance(50)
    assert defender.firmware.trigger_position == original


def test_truncated_window_swaps_and_restores_attack_duration():
    sim, defender = fight_sim()
    original = defender.firmware.attack_duration
    install(sim, defender, defense_spec(
        "defense.truncated_window", window=FaultWindow(0, 40),
        duration_bits=1))
    sim.advance(10)
    assert defender.firmware.attack_duration == 1
    sim.advance(50)
    assert defender.firmware.attack_duration == original


def test_truncated_window_duration_is_validated():
    sim, defender = fight_sim()
    with pytest.raises(ConfigurationError):
        compile_defense_fault(
            defense_spec("defense.truncated_window", duration_bits=0),
            defender, sim.bus_speed)


# -------------------------------------------------------------- corrupt_fsm

def test_corrupt_fsm_scrambles_the_table_then_restores_it():
    sim, defender = fight_sim()
    table = defender.firmware.fsm._table
    before = list(table)
    install(sim, defender, defense_spec(
        "defense.corrupt_fsm", window=FaultWindow(0, 40), entries=4))
    sim.advance(10)
    assert list(table) != before, "entries flipped inside the window"
    sim.advance(50)
    assert list(table) == before, "the table heals when the window closes"


def test_corrupt_fsm_is_seeded():
    corrupted = []
    for _ in range(2):
        sim, defender = fight_sim()
        install(sim, defender, defense_spec(
            "defense.corrupt_fsm", window=FaultWindow(0, 40), entries=4))
        sim.advance(10)
        corrupted.append(list(defender.firmware.fsm._table))
    assert corrupted[0] == corrupted[1]


# --------------------------------------------------------- detection_raises

def test_detection_raises_surfaces_an_injected_fault_error():
    sim, defender = fight_sim()
    sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
        [PeriodicMessage(0x123, period_bits=2000)])))
    install(sim, defender, defense_spec("defense.detection_raises"))
    with pytest.raises(InjectedFaultError):
        sim.advance(20_000)
    assert defender.firmware.detections, "the callback fired before raising"


# --------------------------------------------------------------- validation

def test_defense_faults_require_a_michican_node():
    sim = CanBusSimulator()
    plain = CanNode("defender")
    sim.add_node(plain)
    with pytest.raises(ConfigurationError, match="MichiCAN"):
        compile_defense_fault(defense_spec("defense.delayed_window",
                                           delay_bits=1),
                              plain, sim.bus_speed)


def test_compile_defense_fault_rejects_other_layers():
    sim, defender = fight_sim()
    with pytest.raises(ConfigurationError):
        compile_defense_fault(
            FaultSpec(name="x", kind="wire.flip"), defender, sim.bus_speed)
