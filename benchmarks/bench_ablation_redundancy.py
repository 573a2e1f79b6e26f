"""Ablation: distributed detection redundancy (DESIGN.md decision #4).

Sec. IV-A argues every MichiCAN node flags simultaneously, so the defense
survives the failure of all but one deployed node ("Even if |E|-1 ECUs fail
..., one ECU can still detect the attack"), and the light scenario halves
the per-node work without losing DoS coverage.

Regenerate:  pytest benchmarks/bench_ablation_redundancy.py --benchmark-only -s
"""

import pytest

from conftest import report
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.config import IvnConfig, Scenario
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode

IVN = IvnConfig(ecu_ids=(0x0A0, 0x173, 0x2F0, 0x3D5))


def fight_with_defenders(defender_ids, scenario=Scenario.FULL, limit=8_000):
    ivn = IvnConfig(ecu_ids=IVN.ecu_ids, scenario=scenario)
    sim = CanBusSimulator(bus_speed=50_000)
    defenders = [
        sim.add_node(MichiCanNode(f"def_{can_id:03x}", ivn.ecu_config(can_id)))
        for can_id in defender_ids
    ]
    attacker = sim.add_node(CanNode("attacker"))
    attacker.send(CanFrame(0x064, bytes(8)))
    hit = sim.advance_until(lambda s: attacker.is_bus_off, limit, policy="off")
    return hit, defenders


@pytest.mark.parametrize("survivors", [1, 2, 3, 4])
def test_ablation_k_of_n_defenders(benchmark, survivors):
    defender_ids = IVN.ecu_ids[-survivors:]
    hit, defenders = benchmark.pedantic(
        lambda: fight_with_defenders(defender_ids), rounds=1, iterations=1)
    report(f"Ablation — {survivors} of 4 defenders alive", [
        ("attacker bused off", "yes", hit is not None),
        ("bus-off time (bits)", "~1250", hit),
        ("defenders that counterattacked", "-",
         sum(1 for d in defenders if d.counterattacks > 0)),
    ], notes="superimposed dominant pulses are harmless on the wired-AND bus")
    assert hit is not None
    assert 1_150 <= hit <= 1_500


def test_ablation_light_scenario_still_stops_dos(benchmark):
    """Only the upper half runs the full FSM, yet the DoS dies just as fast."""
    def run():
        full_hit, _ = fight_with_defenders(IVN.ecu_ids, Scenario.FULL)
        light_hit, light_defenders = fight_with_defenders(
            IVN.ecu_ids, Scenario.LIGHT)
        return full_hit, light_hit, light_defenders

    full_hit, light_hit, defenders = benchmark.pedantic(
        run, rounds=1, iterations=1)
    active = [d.name for d in defenders if d.counterattacks > 0]
    report("Ablation — light vs full deployment", [
        ("full-scenario bus-off (bits)", "~1250", full_hit),
        ("light-scenario bus-off (bits)", "same", light_hit),
        ("light: nodes that counterattacked", "upper half only", active),
    ])
    assert light_hit is not None
    assert abs(light_hit - full_hit) <= 100
    # In the light split only the upper half runs the DoS FSM.
    assert set(active) == {"def_2f0", "def_3d5"}
