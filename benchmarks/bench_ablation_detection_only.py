"""Ablation: detection without prevention (the paper's "Eradication" point).

The introduction: "Just detecting a DoS attack is not helpful as all
subsequent communications will be halted.  It is imperative to counter the
DoS attack."  MichiCAN with ``prevention_enabled=False`` is exactly an
ideal bit-level IDS — same FSM, same real-time detection — and the bench
shows detection alone leaves the bus dead.

Regenerate:  pytest benchmarks/bench_ablation_detection_only.py --benchmark-only -s
"""

from conftest import report
from repro.attacks.dos import TraditionalDosAttacker
from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def run_mode(prevention_enabled):
    sim = CanBusSimulator(bus_speed=50_000)
    defender = sim.add_node(MichiCanNode(
        "defender", range(0x100), prevention_enabled=prevention_enabled))
    victim = sim.add_node(CanNode("victim", scheduler=PeriodicScheduler(
        [PeriodicMessage(0x300, period_bits=1_500)])))
    attacker = sim.add_node(TraditionalDosAttacker("attacker"))
    sim.advance(30_000)
    delivered = len([e for e in sim.events_of(FrameTransmitted)
                     if e.node == "victim"])
    return {
        "detections": len(defender.detections),
        "counterattacks": defender.counterattacks,
        "victim_delivered": delivered,
        "victim_expected": 30_000 // 1_500,
        "attacker_busoff": attacker.is_bus_off or attacker.bus_off_count > 0,
    }


def test_detection_only_vs_prevention(benchmark):
    detect_only, full = benchmark.pedantic(
        lambda: (run_mode(False), run_mode(True)), rounds=1, iterations=1)
    report("Ablation — detection-only (ideal IDS) vs full MichiCAN", [
        ("detect-only: attacks detected", "> 0 (real-time)",
         detect_only["detections"]),
        ("detect-only: attacker eradicated", "no",
         detect_only["attacker_busoff"]),
        ("detect-only: victim delivery", "0 (bus halted)",
         f"{detect_only['victim_delivered']}/{detect_only['victim_expected']}"),
        ("full: attacker eradicated", "yes", full["attacker_busoff"]),
        ("full: victim delivery", "near-complete",
         f"{full['victim_delivered']}/{full['victim_expected']}"),
    ], notes="the intro's 'Eradication' requirement, quantified")
    assert detect_only["detections"] > 0
    assert not detect_only["attacker_busoff"]
    assert detect_only["victim_delivered"] == 0
    assert full["attacker_busoff"]
    assert full["victim_delivered"] >= 0.85 * full["victim_expected"]
