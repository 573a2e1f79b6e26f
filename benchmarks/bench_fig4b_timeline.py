"""Fig. 4b: the worst-case counterattack, bit by bit on the wire.

The figure shows MichiCAN pulling the bus dominant from the RTR bit through
the DLC field, the bit error this forces in the attacker's transmission, and
the active error flag + delimiter that follow.  This bench reconstructs the
same timeline from the simulated wire and checks every phase boundary.

Regenerate:  pytest benchmarks/bench_fig4b_timeline.py --benchmark-only -s
"""

from conftest import report
from repro.bus.events import (
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    FrameStarted,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import DOMINANT
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.trace.recorder import LogicTrace


def test_fig4b_worst_case_timeline(benchmark):
    # DLC = 1 (binary 0001) delays the overwritten recessive bit to the last
    # DLC position: the paper's worst case needing all six injected bits.
    def run():
        sim = CanBusSimulator(bus_speed=500_000)
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(CanNode("attacker"))
        attacker.send(CanFrame(0x0AA, b"\x00"))  # ID with no stuff bits
        sim.advance(80)
        return sim

    sim = benchmark.pedantic(run, rounds=1, iterations=1)
    start = next(e for e in sim.events if isinstance(e, FrameStarted))
    counter = next(e for e in sim.events if isinstance(e, CounterattackStarted))
    end = next(e for e in sim.events if isinstance(e, CounterattackEnded))
    error = next(e for e in sim.events if isinstance(e, ErrorDetected)
                 and e.error.as_transmitter)

    trace = LogicTrace(sim.wire.history)
    # The counterattack window: 6 dominant bits right after the RTR.
    sof = start.time
    report("Fig. 4b — worst-case counterattack timeline", [
        ("SOF at (bit)", 0, sof - sof),
        ("counterattack trigger (frame pos, 1-based)", 13,
         counter.time - sof + 1),
        ("injected dominant bits", 6, end.time - counter.time),
        ("attacker bit error at frame pos", "18-19 (DLC LSB)",
         error.time - sof + 1),
        ("error frame follows immediately", True,
         error.time < end.time + 10),
    ])
    print("\n    wire ('_' dominant / '^' recessive):")
    print(trace.render(start=sof, end=sof + 60))

    assert counter.time - sof + 1 == 13
    # Six dominant injected bits follow the trigger.
    window = sim.wire.history[counter.time + 1: counter.time + 7]
    assert window == [DOMINANT] * 6
    # Worst case: the bit error lands on the last DLC bit (pos 18-19).
    assert 17 <= error.time - sof + 1 <= 19
