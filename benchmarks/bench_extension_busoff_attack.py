"""Extension: the classic bus-off attack vs MichiCAN (Sec. VI-A boundary).

The paper cites bus-off attacks on legitimate ECUs (Cho & Shin, CANnon) as
related work and points to dedicated defenses [61]-[63]; MichiCAN does not
claim to stop them during the victim's own transmissions.  This bench
quantifies the honest boundary:

* undefended: the attack works (victim repeatedly bused off);
* MichiCAN victim vs a plain compromised app (no controller-reset ability):
  the attacker is eradicated an order of magnitude more often than the
  victim suffers;
* MichiCAN victim vs a CANnon-class attacker (resets its error counters):
  suppression still succeeds, but the attacker pays hundreds of
  counterattacks and resets.

Regenerate:  pytest benchmarks/bench_extension_busoff_attack.py --benchmark-only -s
"""

from conftest import report
from repro.attacks.busoff import BusOffAttacker
from repro.bus.events import BusOffEntered
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.experiments.scenarios import detection_ids_for
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

VICTIM_ID = 0x123


def run_attack(defended, reset_threshold=96, duration=120_000):
    sim = CanBusSimulator(bus_speed=500_000)
    scheduler = PeriodicScheduler([PeriodicMessage(
        VICTIM_ID, period_bits=1_000, payload_fn=lambda n: b"\xFF" * 8)])
    if defended:
        victim = sim.add_node(MichiCanNode(
            "victim", detection_ids_for(VICTIM_ID, [VICTIM_ID]),
            scheduler=scheduler))
    else:
        victim = sim.add_node(CanNode("victim", scheduler=scheduler))
    sim.add_node(CanNode("receiver"))
    attacker = sim.add_node(BusOffAttacker(
        "attacker", victim_id=VICTIM_ID, start_bits=3_000,
        tec_reset_threshold=reset_threshold))
    sim.advance(duration)
    busoffs = sim.events_of(BusOffEntered)
    return {
        "victim_busoffs": sum(1 for e in busoffs if e.node == "victim"),
        "attacker_busoffs": sum(1 for e in busoffs if e.node == "attacker"),
        "attacker_resets": attacker.controller_resets,
        "counterattacks": getattr(victim, "counterattacks", 0),
    }


def test_busoff_attack_undefended(benchmark):
    result = benchmark.pedantic(
        lambda: run_attack(defended=False), rounds=1, iterations=1)
    report("Bus-off attack — undefended victim", [
        ("victim bused off (count)", ">= 1", result["victim_busoffs"]),
        ("attacker bused off", 0, result["attacker_busoffs"]),
        ("attacker self-resets", "few", result["attacker_resets"]),
    ])
    assert result["victim_busoffs"] >= 1
    assert result["attacker_busoffs"] == 0


def test_busoff_attack_vs_michican_plain_attacker(benchmark):
    result = benchmark.pedantic(
        lambda: run_attack(defended=True, reset_threshold=10**9),
        rounds=1, iterations=1)
    report("Bus-off attack — MichiCAN victim vs plain attacker", [
        ("attacker bused off (count)", "many", result["attacker_busoffs"]),
        ("victim bused off (count)", "few", result["victim_busoffs"]),
        ("eradication ratio", ">= 5x",
         result["attacker_busoffs"] / max(1, result["victim_busoffs"])),
    ], notes="MichiCAN punishes every solo retransmission of the forged ID")
    assert result["attacker_busoffs"] >= 10
    assert (result["attacker_busoffs"]
            > 5 * max(1, result["victim_busoffs"]))


def test_busoff_attack_vs_michican_cannon_attacker(benchmark):
    result = benchmark.pedantic(
        lambda: run_attack(defended=True, reset_threshold=96),
        rounds=1, iterations=1)
    report("Bus-off attack — MichiCAN victim vs CANnon-class attacker", [
        ("victim still suppressed", "yes (documented limitation)",
         result["victim_busoffs"] >= 1),
        ("counterattacks absorbed", "hundreds", result["counterattacks"]),
        ("controller resets needed", ">= 50", result["attacker_resets"]),
    ], notes="Sec. VI-A defers this class to dedicated bus-off defenses")
    assert result["victim_busoffs"] >= 1
    assert result["counterattacks"] >= 100
    assert result["attacker_resets"] >= 50
