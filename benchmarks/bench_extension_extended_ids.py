"""Extension: MichiCAN for CAN 2.0B extended (29-bit) identifiers.

The paper covers CAN 2.0A only; production vehicles also carry 29-bit
traffic (e.g. J1939, UDS-on-CAN).  The dual-FSM firmware defends both: the
standard counterattack is deferred one bit to the IDE position (never
disturbing an extended frame's still-running arbitration), and extended
frames are classified by an interval-backed 29-bit FSM and attacked right
after their RTR at frame position 33.

Regenerate:  pytest benchmarks/bench_extension_extended_ids.py --benchmark-only -s
"""

from conftest import report
from repro.bus.events import BusOffEntered, FrameStarted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.can.intervals import IdIntervalSet
from repro.core.defense import MichiCanNode
from repro.core.fsm import DetectionFsm
from repro.node.controller import CanNode

EXT_RANGE = IdIntervalSet.from_range_minus(
    0, 0x0FFFFFFF, excluded=[0x0ABCDEF, 0x0CFE6CE]
)


def test_extended_fsm_scales(benchmark):
    """29-bit FSM generation must stay interval-arithmetic (no enumeration
    of the 2^29 identifier space)."""
    fsm = benchmark(lambda: DetectionFsm(EXT_RANGE, id_bits=29))
    stats = fsm.stats(samples=2_000, seed=1)
    report("Extended-ID extension — FSM scale", [
        ("identifier space", "2^29", 1 << 29),
        ("detection-set size", "~2.7e8", len(EXT_RANGE)),
        ("FSM states", "compact (interval-bounded)", fsm.num_states),
        ("max decision depth (bits)", "<= 29", stats.max_depth),
    ])
    assert fsm.num_states < 4_000
    assert stats.max_depth <= 29


def test_extended_attack_eradicated(benchmark):
    def run():
        sim = CanBusSimulator(bus_speed=50_000)
        defender = sim.add_node(MichiCanNode(
            "defender", range(0x100), extended_detection_ids=EXT_RANGE))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x00123456, bytes(8), extended=True))
        sim.advance_until(lambda s: attacker.is_bus_off, 15_000, policy="off")
        boff = sim.events_of(BusOffEntered)[0]
        first = sim.events_of(FrameStarted)[0]
        detection = defender.detections[0]
        return boff.time + 14 - first.time, detection

    busoff_bits, detection = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Extended-ID extension — bus-off fight", [
        ("attacker bused off", True, True),
        ("bus-off time (bits)", "~2x the 11-bit 1250 (longer prefix)",
         busoff_bits),
        ("frame flagged as extended", True, detection.extended),
        ("FSM decision bit (of 29)", "<= 29", detection.decision_bit),
    ], notes="each destroyed attempt carries 33 arbitration bits vs 13")
    assert 1_700 <= busoff_bits <= 2_600
    assert detection.extended


def test_dual_mode_cost_on_standard_traffic(benchmark):
    """Dual mode defers the standard trigger by one bit; the bus-off
    arithmetic is otherwise unchanged."""
    def fight(extended_aware):
        sim = CanBusSimulator(bus_speed=50_000)
        kwargs = {"extended_detection_ids": EXT_RANGE} if extended_aware else {}
        sim.add_node(MichiCanNode("defender", range(0x100), **kwargs))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x064, bytes(8)))
        hit = sim.advance_until(
            lambda s: attacker.is_bus_off, 15_000, policy="off")
        return hit

    classic, dual = benchmark.pedantic(
        lambda: (fight(False), fight(True)), rounds=1, iterations=1)
    report("Extended-ID extension — standard-attack overhead", [
        ("classic firmware bus-off (bits)", "~1250", classic),
        ("dual-FSM firmware bus-off (bits)", "~1250 + ~32", dual),
        ("added cost per attempt", "<= 1 bit", (dual - classic) / 32),
    ])
    assert 0 <= dual - classic <= 64
