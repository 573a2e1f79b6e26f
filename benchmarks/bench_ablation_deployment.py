"""Ablation: partial deployment cost/coverage (Sec. IV-A's OEM trade-off).

"If the OEM decides to save cost and only equip ECUs with safety-critical
functionality, this is possible... at the expense of the unpatched ECUs not
being able to detect spoofing attacks."  The planner quantifies the curve;
the simulator verifies its two extreme points end-to-end.

Regenerate:  pytest benchmarks/bench_ablation_deployment.py --benchmark-only -s
"""

from conftest import report
from repro.analysis.coverage import deployments_by_budget, plan_coverage
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.config import IvnConfig
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode

IVN = IvnConfig(ecu_ids=(0x0A0, 0x173, 0x2F0, 0x3D5))


def test_deployment_budget_curve(benchmark):
    curve = benchmark(lambda: deployments_by_budget(IVN, [1, 2, 3, 4]))
    rows = []
    for budget, plan in curve:
        rows.append((
            f"budget {budget}: DoS coverage / spoof-protected ECUs",
            "full DoS from budget 1 (top-ID first)",
            f"{'full' if plan.full_dos_coverage else 'partial'} / "
            f"{len(plan.spoof_protected)} of {len(IVN)}",
        ))
    report("Deployment ablation — cost/coverage curve", rows)
    assert curve[0][1].full_dos_coverage
    assert not curve[0][1].full_spoof_coverage
    assert curve[-1][1].full_spoof_coverage


def test_planner_extremes_verified_on_the_bus(benchmark):
    """Cross-check both planner verdicts in simulation: the predicted gap
    is exploitable, the predicted coverage holds."""
    def run():
        from repro.bus.events import BusOffEntered

        # Equip only the LOWEST ECU: the planner says 0x200 is uncovered.
        plan = plan_coverage(IVN, [0x0A0])
        sim = CanBusSimulator()
        sim.add_node(MichiCanNode("d_a0", IVN.ecu_config(0x0A0)))
        gap_attacker = sim.add_node(CanNode("gap_attacker"))
        gap_attacker.send(CanFrame(0x200, bytes(8)))
        covered_attacker = sim.add_node(CanNode("covered_attacker"))
        covered_attacker.send(CanFrame(0x050, bytes(8)))
        sim.advance(8_000)
        busoffs = {e.node for e in sim.events_of(BusOffEntered)}
        return plan, "gap_attacker" in busoffs, "covered_attacker" in busoffs

    plan, gap_bused_off, covered_bused_off = benchmark.pedantic(
        run, rounds=1, iterations=1)
    report("Deployment ablation — planner vs simulator", [
        ("planner: 0x200 uncovered", True, 0x200 in plan.dos_uncovered),
        ("simulator: 0x200 attacker never bused off", True,
         not gap_bused_off),
        ("planner: 0x050 covered", True, 0x050 in plan.dos_covered),
        ("simulator: 0x050 attacker bused off", True, covered_bused_off),
    ])
    assert 0x200 in plan.dos_uncovered and not gap_bused_off
    assert 0x050 in plan.dos_covered and covered_bused_off
