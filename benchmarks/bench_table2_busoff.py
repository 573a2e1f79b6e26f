"""Table II: empirical bus-off times for all six experiments.

Paper (50 kbit/s, defender 0x173):

    Exp  attacker      restbus  mean     std     max
    1    0x173         yes      24.6 ms  2.64    58.6
    2    0x173         no       24.2 ms  0.27    25.2
    3    0x064         yes      25.1 ms  1.39    38.3
    4    0x064         no       24.9 ms  0.45    25.2
    5    0x066+0x067   no       39.0/35.4 ms
    6    0x050/0x051   no       24.9 ms  0.01    25.4

Regenerate:  pytest benchmarks/bench_table2_busoff.py --benchmark-only -s
"""

import pytest

from conftest import report
from repro.experiments.config import RunConfig
from repro.experiments.scenarios import EXPERIMENTS

PAPER_MEANS_MS = {1: 24.6, 2: 24.2, 3: 25.1, 4: 24.9, 6: 24.9}
PAPER_EXP5_MS = {"attacker_066": 39.0, "attacker_067": 35.4}

DURATION_BITS = 100_000  # the paper's 2 s recording at 50 kbit/s


@pytest.mark.parametrize("number", sorted(EXPERIMENTS))
def test_table2_experiment(benchmark, number):
    result = benchmark.pedantic(
        lambda: EXPERIMENTS[number]().run(
            config=RunConfig(duration_bits=DURATION_BITS)),
        rounds=1, iterations=1,
    )
    rows = []
    if number == 5:
        for attacker, paper_mean in PAPER_EXP5_MS.items():
            stats = result.attacker_stats[attacker]
            rows.append((f"{attacker} mean bus-off (ms)", paper_mean,
                         stats["mean_ms"]))
            rows.append((f"{attacker} max bus-off (ms)", "-",
                         stats["max_ms"]))
            # Shape: intertwined two-attacker bus-off grows ~50 %, not 2x.
            assert 1.1 * 25.0 <= stats["mean_ms"] <= 1.9 * 25.0
    else:
        stats = result.attacker_stats["attacker"]
        paper_mean = PAPER_MEANS_MS[number]
        rows.append(("mean bus-off (ms)", paper_mean, stats["mean_ms"]))
        rows.append(("std bus-off (ms)", "-", stats["std_ms"]))
        rows.append(("max bus-off (ms)", "-", stats["max_ms"]))
        assert stats["mean_ms"] == pytest.approx(paper_mean, rel=0.25)
    rows.append(("bus-off episodes in window", "multiple", len(
        [e for eps in result.episodes.values() for e in eps])))
    rows.append(("counterattacks", "-", result.counterattacks))
    report(f"Table II — Experiment {number}", rows)
