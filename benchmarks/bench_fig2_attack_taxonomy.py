"""Fig. 2: the DoS attack taxonomy, measured.

The figure classifies suspension attacks as *traditional* (flood ID 0x000 —
everything starves), *random* and *targeted* (flood just below the victim —
only IDs at or above it starve).  This bench measures exactly those
starvation profiles on a three-victim bus, then shows MichiCAN erasing all
of them.

Regenerate:  pytest benchmarks/bench_fig2_attack_taxonomy.py --benchmark-only -s
"""

from conftest import report
from repro.attacks.dos import DosAttacker, TargetedDosAttacker, TraditionalDosAttacker
from repro.bus.events import FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

VICTIM_IDS = (0x100, 0x260, 0x500)
PERIOD_BITS = 1_500
WINDOW = 30_000


def build_bus(attacker=None, defended=False):
    sim = CanBusSimulator(bus_speed=500_000)
    if defended:
        sim.add_node(MichiCanNode(
            "defender",
            set(range(0x600)) - set(VICTIM_IDS),
        ))
    for victim_id in VICTIM_IDS:
        sim.add_node(CanNode(f"ecu_{victim_id:03x}",
                             scheduler=PeriodicScheduler(
            [PeriodicMessage(victim_id, period_bits=PERIOD_BITS)])))
    if attacker is not None:
        sim.add_node(attacker)
    sim.advance(WINDOW)
    expected = WINDOW // PERIOD_BITS
    return {
        victim_id: len([e for e in sim.events_of(FrameTransmitted)
                        if e.frame.can_id == victim_id]) / expected
        for victim_id in VICTIM_IDS
    }


def test_fig2_attack_taxonomy(benchmark):
    def run():
        return {
            "baseline": build_bus(),
            "traditional": build_bus(TraditionalDosAttacker("atk")),
            "targeted": build_bus(TargetedDosAttacker("atk", victim_id=0x260)),
            "traditional+michican": build_bus(
                TraditionalDosAttacker("atk"), defended=True),
            "targeted+michican": build_bus(
                TargetedDosAttacker("atk", victim_id=0x260), defended=True),
        }

    profiles = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for scenario, deliveries in profiles.items():
        profile = " / ".join(f"{deliveries[v]:.0%}" for v in VICTIM_IDS)
        rows.append((f"{scenario}: delivery 0x100/0x260/0x500",
                     "per Fig. 2", profile))
    report("Fig. 2 — DoS taxonomy, measured delivery rates", rows,
           notes="traditional starves everything; targeted only IDs >= "
                 "victim; MichiCAN restores all")

    baseline = profiles["baseline"]
    assert all(rate >= 0.95 for rate in baseline.values())
    # Traditional DoS: everything starves.
    assert all(rate <= 0.05 for rate in profiles["traditional"].values())
    # Targeted at 0x260: the higher-priority 0x100 survives, 0x260+ starve.
    targeted = profiles["targeted"]
    assert targeted[0x100] >= 0.9
    assert targeted[0x260] <= 0.05 and targeted[0x500] <= 0.05
    # MichiCAN restores near-baseline delivery in both cases.
    for scenario in ("traditional+michican", "targeted+michican"):
        for rate in profiles[scenario].values():
            assert rate >= 0.85
