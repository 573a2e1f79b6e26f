"""Ablation: the counterattack window (DESIGN.md decision #1).

The paper fires at un-stuffed frame position 13 (the RTR bit) and injects 6
dominant bits.  This bench sweeps both choices:

* firing *during arbitration* (position <= 12) makes the attacker lose
  arbitration instead of erroring — its TEC never rises and it is never
  bused off (exactly why Sec. IV-E forbids it);
* injecting *fewer* than 6 bits misses the worst-case DLC patterns;
* injecting *more* than 6 is harmless but occupies the bus longer.

Regenerate:  pytest benchmarks/bench_ablation_window.py --benchmark-only -s
"""

import pytest

from conftest import report
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode


def fight(trigger_position=None, attack_duration=None, attack_id=0x055,
          dlc=1, limit=6_000):
    """Returns (bused_off, time, attacker_tec)."""
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode(
        "defender", range(0x100),
        trigger_position=trigger_position, attack_duration=attack_duration,
    ))
    attacker = sim.add_node(CanNode("attacker"))
    attacker.send(CanFrame(attack_id, bytes(dlc)))
    hit = sim.advance_until(lambda s: attacker.is_bus_off, limit, policy="off")
    return hit is not None, hit, attacker.tec


def test_ablation_firing_during_arbitration(benchmark):
    """Position 8 lands inside the ID field: the attacker just loses
    arbitration — no error, no TEC, no bus-off."""
    ok, _, tec = benchmark.pedantic(
        lambda: fight(trigger_position=8), rounds=1, iterations=1)
    report("Ablation — fire during arbitration (pos 8)", [
        ("attacker bused off", "no (paper's rationale)", ok),
        ("attacker TEC", 0, tec),
    ])
    assert not ok
    assert tec == 0


def test_ablation_paper_window(benchmark):
    ok, time, _ = benchmark.pedantic(
        lambda: fight(), rounds=1, iterations=1)
    report("Ablation — paper window (pos 13, 6 bits)", [
        ("attacker bused off", "yes", ok),
        ("bus-off time (bits)", "~1250", time),
    ])
    assert ok


@pytest.mark.parametrize("duration", [1, 3, 6, 10])
def test_ablation_injection_duration(benchmark, duration):
    """DLC=1 is the paper's worst case: fewer than 6 injected bits leave
    the recessive DLC LSB untouched and the frame survives."""
    ok, time, tec = benchmark.pedantic(
        lambda: fight(attack_duration=duration, dlc=1),
        rounds=1, iterations=1)
    expected = duration >= 6
    report(f"Ablation — inject {duration} dominant bits (worst-case DLC=1)", [
        ("attacker bused off", "yes" if expected else "no", ok),
        ("attacker TEC at end", "-", tec),
    ])
    assert ok == expected


def test_ablation_short_pulse_still_works_on_common_dlc8(benchmark):
    """With the common DLC=8 ('1000') a 4-bit pulse already reaches the
    recessive DLC MSB — the paper's 'earliest bit error at the fourth bit'."""
    ok, _, _ = benchmark.pedantic(
        lambda: fight(attack_duration=4, dlc=8), rounds=1, iterations=1)
    report("Ablation — 4-bit pulse vs DLC=8", [
        ("attacker bused off", "yes", ok),
    ])
    assert ok
