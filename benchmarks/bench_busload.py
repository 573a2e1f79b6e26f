"""Sec. V-E: bus load — MichiCAN's transient spike vs Parrot's flooding.

Paper claims reproduced here:

* steady-state load via b = (s_f/f_baud) * sum(1/p_m);
* a counterattacked message occupies the bus ~10x longer than a clean one
  (2.5 ms -> ~25 ms at 50 kbit/s);
* relative to deadlines that is 2.5-5 % (low priority) / 25 % (high);
* Parrot floods at 125/128 ~ 97.7 %; MichiCAN's defense-time load is at
  least 2x lower.

Regenerate:  pytest benchmarks/bench_busload.py --benchmark-only -s
"""

import pytest

from conftest import report
from repro.analysis.busload import (
    bus_load,
    compare_defenses,
    counterattack_spike_factor,
    deadline_relative_overhead,
    parrot_flooding_overhead,
)
from repro.experiments.config import RunConfig
from repro.experiments.scenarios import experiment_4, parrot_defense_setup
from repro.trace.recorder import LogicTrace
from repro.workloads.matrix import theoretical_bus_load
from repro.workloads.vehicles import vehicle_buses


def test_busload_formula_on_vehicle_matrices(benchmark):
    loads = benchmark(lambda: {
        vehicle: theoretical_bus_load(vehicle_buses(vehicle)[0], 500_000)
        for vehicle in ("veh_a", "veh_b", "veh_c", "veh_d")
    })
    rows = [(f"{vehicle} bus 1 steady-state load", "~40% (real vehicles)",
             f"{load:.1%}") for vehicle, load in loads.items()]
    report("Sec. V-E — steady-state bus load", rows)
    for load in loads.values():
        assert 0.05 <= load <= 0.8


def test_busload_counterattack_spike(benchmark):
    """Measure the spike on an actual Exp. 4 fight."""
    def run():
        setup = experiment_4()
        result = setup.run(config=RunConfig(duration_bits=40_000))
        episode = result.episodes["attacker"][0]
        trace = LogicTrace(setup.sim.wire.history)
        busy_during = trace.busy_fraction(start=episode.start,
                                          end=episode.end)
        return episode, busy_during

    episode, busy_during = benchmark.pedantic(run, rounds=1, iterations=1)
    spike = counterattack_spike_factor(episode.duration_bits)
    report("Sec. V-E — counterattack spike", [
        ("attacked message occupies (bits)", "~1250 (25 ms @50k)",
         episode.duration_bits),
        ("spike vs clean transmission", "~10x", f"{spike:.1f}x"),
        ("bus busy during the fight", "~100% briefly",
         f"{busy_during:.1%}"),
        ("overhead vs 500 ms deadline", "5%",
         f"{deadline_relative_overhead(episode.duration_bits, 25_000):.1%}"),
        ("overhead vs 1000 ms deadline", "2.5%",
         f"{deadline_relative_overhead(episode.duration_bits, 50_000):.1%}"),
        ("overhead vs 100 ms deadline", "25%",
         f"{deadline_relative_overhead(episode.duration_bits, 5_000):.1%}"),
    ])
    assert 8.0 <= spike <= 12.0
    assert deadline_relative_overhead(episode.duration_bits, 25_000) == \
        pytest.approx(0.05, rel=0.25)


def test_busload_michican_vs_parrot(benchmark):
    def run():
        # Parrot, measured while armed.
        setup = parrot_defense_setup()
        setup.sim.advance(60_000)
        parrot_busy = LogicTrace(setup.sim.wire.history).busy_fraction(
            start=2_000)
        # MichiCAN, amortised over a 1-second window with one fight.
        comparison = compare_defenses(
            steady_state_load=0.40, busoff_bits=1_250,
            busoff_window_bits=50_000,
        )
        return parrot_busy, comparison

    parrot_busy, comparison = benchmark.pedantic(run, rounds=1, iterations=1)
    report("Sec. V-E — defense-time bus load", [
        ("Parrot flooding (theory)", "97.7%",
         f"{parrot_flooding_overhead():.1%}"),
        ("Parrot flooding (measured)", "~100%", f"{parrot_busy:.1%}"),
        ("MichiCAN during bus-off window", "steady + 2.5%",
         f"{comparison.michican_during_busoff:.1%}"),
        ("MichiCAN advantage", ">= 2x",
         f"{comparison.michican_advantage:.1f}x"),
    ])
    assert parrot_busy > 0.9
    assert comparison.michican_advantage >= 2.0


def test_busload_formula_unit(benchmark):
    value = benchmark(lambda: bus_load([0.01, 0.02, 0.1], 500_000))
    assert value == pytest.approx(125 / 500_000 * (100 + 50 + 10))
