"""Table III: theoretical bus-off time calculations, verified against the
bit-level simulator.

Paper rows:

    Exp 2/4/6 (undisturbed):  t_a = 35, t_p = 43, total = 1248 bits
    Exp 1/3:   t_a + s_f*c_{h,a},  t_p + s_f*(c_{h,p}+c_{l,p})
    Exp 5 HP:  560 + sum t_p,i      (active phase undisturbed)
    Exp 5 LP:  both phases extended by the other attacker

Regenerate:  pytest benchmarks/bench_table3_theory.py --benchmark-only -s
"""

from conftest import report
from repro.analysis.busoff_theory import (
    BEST_CASE_PREFIX_BITS,
    InterruptionCounts,
    busoff_bits_with_interruptions,
    error_active_time,
    error_passive_time,
    two_attacker_hp_busoff_bits,
    two_attacker_lp_busoff_bits,
    undisturbed_busoff_bits,
)
from repro.bus.events import FrameStarted
from repro.experiments.config import RunConfig
from repro.experiments.scenarios import experiment_4


def test_table3_closed_forms(benchmark):
    values = benchmark(lambda: {
        "t_a_worst": error_active_time(),
        "t_p_worst": error_passive_time(),
        "t_a_best": error_active_time(BEST_CASE_PREFIX_BITS),
        "t_p_best": error_passive_time(BEST_CASE_PREFIX_BITS),
        "undisturbed": undisturbed_busoff_bits(),
        "interrupted": busoff_bits_with_interruptions(
            InterruptionCounts(1, 1, 1)),
        "hp": two_attacker_hp_busoff_bits(z_low_passive=8),
        "lp": two_attacker_lp_busoff_bits(z_high_active=8, z_high_passive=8),
    })
    report("Table III — closed forms", [
        ("error-active time t_a worst (bits)", 35, values["t_a_worst"]),
        ("error-passive time t_p worst (bits)", 43, values["t_p_worst"]),
        ("error-active time t_a best (bits)", 30, values["t_a_best"]),
        ("error-passive time t_p best (bits)", 38, values["t_p_best"]),
        ("undisturbed total 16*(t_a+t_p)", 1248, values["undisturbed"]),
        ("Exp 5 HP active phase 16*t_a", 560, 16 * values["t_a_worst"]),
        ("with 3 interruptions (+3*125)", 1248 + 375, values["interrupted"]),
        ("HP < LP ordering holds", True, values["hp"] < values["lp"]),
    ])
    assert values["t_a_worst"] == 35
    assert values["t_p_worst"] == 43
    assert values["undisturbed"] == 1248


def test_table3_theory_vs_simulation(benchmark):
    """The closed form must predict the simulator's undisturbed episode:
    theory confirms empirical data (the paper's cross-check)."""
    def run():
        setup = experiment_4()
        result = setup.run(config=RunConfig(duration_bits=3_000))
        episode = result.episodes["attacker"][0]
        starts = [e.time for e in setup.sim.events_of(FrameStarted)
                  if e.node == "attacker"]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        return episode, gaps

    episode, gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    # Gaps stretched by an interrupting benign frame (> 50 bits) are the
    # Table III c-terms; the pure retransmission gaps are the t_a / t_p.
    active_gaps = sorted({g for g in gaps[:14] if g <= 50})
    passive_gaps = sorted({g for g in gaps[17:30] if g <= 50})
    report("Table III — simulator cross-check (Exp 4)", [
        ("active retransmission gap (bits)", "30..35", active_gaps),
        ("passive retransmission gap (bits)", "38..43", passive_gaps),
        ("episode total (bits)", "<= 1248", episode.duration_bits),
        ("attempts", 32, episode.attempts),
    ])
    assert all(28 <= g <= 37 for g in active_gaps)
    assert all(36 <= g <= 45 for g in passive_gaps)
    assert episode.attempts == 32
    # Allow a small stuffing-detail margin around the closed form.
    assert episode.duration_bits <= undisturbed_busoff_bits() * 1.08
