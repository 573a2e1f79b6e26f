"""Engine performance: simulated bit throughput.

Not a paper result — the guardrail that keeps the reproduction usable.  The
headline experiments need ~10^5 simulated bits each; the full Table II run
is ~6x10^5.  This bench tracks how many bit times per second the engine
sustains on loaded topologies, so regressions in the hot path (output /
wired-AND / observe) are caught by the numbers pytest-benchmark reports.
"""

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def make_busy_bus(nodes=6):
    sim = CanBusSimulator(record_wire=False)
    for index in range(nodes):
        sim.add_node(CanNode(f"ecu{index}", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x100 + 0x40 * index, period_bits=800)])))
    return sim


def test_engine_throughput_benign(benchmark):
    sim = make_busy_bus()
    benchmark.pedantic(lambda: sim.advance(20_000), rounds=3, iterations=1)
    assert sim.time >= 60_000  # the engine actually advanced


def test_engine_throughput_under_attack(benchmark):
    sim = CanBusSimulator(record_wire=False)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(CanNode("benign", scheduler=PeriodicScheduler(
        [PeriodicMessage(0x300, period_bits=900)])))
    sim.add_node(DosAttacker("attacker", 0x064))
    benchmark.pedantic(lambda: sim.advance(20_000), rounds=3, iterations=1)
    assert sim.time >= 60_000


def test_frame_serialization_throughput(benchmark):
    from repro.can.bitstream import serialize_frame
    from repro.can.frame import CanFrame

    frames = [CanFrame(i, bytes(8)) for i in range(0, 2048, 37)]
    benchmark(lambda: [serialize_frame(f) for f in frames])


def test_fsm_generation_throughput(benchmark):
    from repro.core.config import IvnConfig
    from repro.core.fsm import DetectionFsm

    ivn = IvnConfig(ecu_ids=tuple(range(0x80, 0x700, 0x30)))
    benchmark(lambda: DetectionFsm(ivn.detection_range(ivn.highest_id)))
