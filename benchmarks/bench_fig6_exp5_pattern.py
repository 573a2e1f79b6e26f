"""Fig. 6: the intertwined bus-off pattern of Experiment 5.

The paper's logic-analyzer shot shows: 0x066 (higher priority) dominates the
error-active phase; once error-passive, its suspend-transmission windows let
0x067 in; both then toggle retransmissions until 0x066 goes bus-off first
and 0x067 finishes its remaining rounds.

Regenerate:  pytest benchmarks/bench_fig6_exp5_pattern.py --benchmark-only -s
"""

from conftest import report
from repro.bus.events import BusOffEntered, FrameStarted
from repro.experiments.scenarios import experiment_5
from repro.trace.framelog import FrameLog


def _interleavings(starts):
    """Count alternations between the two attackers' attempts."""
    toggles = 0
    for a, b in zip(starts, starts[1:]):
        if a != b:
            toggles += 1
    return toggles


def test_fig6_intertwined_pattern(benchmark):
    def run():
        setup = experiment_5()
        setup.sim.advance_until(
            lambda s: all(a.is_bus_off for a in setup.attackers), 10_000,
            policy="off")
        return setup

    setup = benchmark.pedantic(run, rounds=1, iterations=1)
    events = setup.sim.events
    starts = [e for e in events if isinstance(e, FrameStarted)
              and e.node.startswith("attacker")]
    busoffs = [e for e in events if isinstance(e, BusOffEntered)]

    # Both attackers assert SOF together; the bus *owner* of each round is
    # the one whose transmission gets destroyed (a transmitter-side error).
    from repro.bus.events import ErrorDetected

    owners = [e.node for e in events
              if isinstance(e, ErrorDetected)
              and e.node.startswith("attacker") and e.error.as_transmitter]
    # Phase 1: while 0x066 is error-active it wins every arbitration.
    early = owners[:16]
    # Phase 3: once 0x066 is error-passive its suspend windows let 0x067
    # in and the rounds toggle.
    toggles = _interleavings(owners)

    log = FrameLog(events)
    stats = {a.name: log.busoff_episodes(a.name)[0] for a in setup.attackers}

    report("Fig. 6 — Experiment 5 pattern", [
        ("early rounds owned by 0x066", True,
         all(n == "attacker_066" for n in early)),
        ("round ownership toggles (count)", ">= 16", toggles),
        ("0x066 bus-off first", True,
         busoffs[0].node == "attacker_066"),
        ("0x067 continues after 0x066 dies", True,
         any(e.time > busoffs[0].time for e in starts
             if e.node == "attacker_067")),
        ("0x066 fight (bits)", "~1950 (39.0 ms)",
         stats["attacker_066"].duration_bits),
        ("0x067 fight (bits)", "~1770 (35.4 ms)",
         stats["attacker_067"].duration_bits),
    ])

    print("\n    round-ownership tail (who got destroyed):")
    for node in owners[-20:]:
        print(f"      {node}")

    assert all(n == "attacker_066" for n in early)
    assert toggles >= 16
    assert busoffs[0].node == "attacker_066"
    # Intertwined fights are ~30-60 % longer than the single-attacker 1248.
    for episode in stats.values():
        assert 1_400 <= episode.duration_bits <= 2_600
