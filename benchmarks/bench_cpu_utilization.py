"""Sec. V-D: CPU utilization of the interrupt handler.

Paper anchors (combined load under restbus traffic):

* Arduino Due @ 125 kbit/s: ~40 % (full scenario), ~30 % (light),
  "implying an 80 % load for a 250 kbit/s bus";
* NXP S32K144 @ 500 kbit/s: ~44 % — which is why the production-grade MCU
  handles production bus speeds while the Due tops out at 125 kbit/s.

Two measurement paths are cross-checked: the closed-form model and the
cost-per-executed-path accounting over a real simulated restbus+attack run
(the analogue of the paper's ESP8266 cycle counting).

Regenerate:  pytest benchmarks/bench_cpu_utilization.py --benchmark-only -s
"""

import pytest

from conftest import report
from repro.analysis.cpu import (
    ARDUINO_DUE,
    NXP_S32K144,
    PROFILES,
    analytic_utilization,
    max_feasible_bus_speed,
    utilization_from_counters,
)
from repro.core.fsm import DetectionFsm
from repro.experiments.config import RunConfig
from repro.experiments.scenarios import experiment_3


def test_cpu_paper_anchors(benchmark):
    def run():
        return {
            "due_full_125": analytic_utilization(ARDUINO_DUE, 125_000),
            "due_light_125": analytic_utilization(ARDUINO_DUE, 125_000,
                                                  light_scenario=True),
            "due_full_250": analytic_utilization(ARDUINO_DUE, 250_000),
            "nxp_full_500": analytic_utilization(NXP_S32K144, 500_000),
        }

    loads = benchmark(run)
    report("Sec. V-D — CPU utilization anchors", [
        ("Due @125k full (combined)", "40%",
         f"{loads['due_full_125'].combined_load:.1%}"),
        ("Due @125k light (combined)", "30%",
         f"{loads['due_light_125'].combined_load:.1%}"),
        ("Due @250k full (combined)", "80%",
         f"{loads['due_full_250'].combined_load:.1%}"),
        ("S32K144 @500k full (combined)", "44%",
         f"{loads['nxp_full_500'].combined_load:.1%}"),
    ])
    assert loads["due_full_125"].combined_load == pytest.approx(0.40, abs=0.07)
    assert loads["due_light_125"].combined_load == pytest.approx(0.30, abs=0.06)
    assert loads["due_full_250"].combined_load == pytest.approx(0.80, abs=0.14)
    assert loads["nxp_full_500"].combined_load == pytest.approx(0.44, abs=0.09)


def test_cpu_from_simulated_run(benchmark):
    """Counter-based accounting over the Exp. 3 run (restbus + DoS)."""
    def run():
        setup = experiment_3()
        setup.run(config=RunConfig(duration_bits=60_000))
        counters = setup.defender.firmware.counters
        states = setup.defender.firmware.fsm.num_states
        return {
            profile_name: utilization_from_counters(
                profile, counters, 125_000, fsm_states=states)
            for profile_name, profile in PROFILES.items()
        }, counters

    loads, counters = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [(f"{name} combined @125k", "-",
             f"{load.combined_load:.1%}") for name, load in loads.items()]
    rows.append(("handler invocations", "-", counters.interrupts))
    rows.append(("frame-path share", "-",
                 f"{counters.frame_bits / counters.interrupts:.1%}"))
    report("Sec. V-D — measured over Exp. 3 traffic", rows)
    # The Due must be the most loaded profile; all others below it.
    due = loads["arduino_due"].combined_load
    assert all(load.combined_load <= due for load in loads.values())
    assert 0.2 <= due <= 0.6


def test_cpu_feasible_speeds(benchmark):
    speeds = benchmark(lambda: {
        name: max_feasible_bus_speed(profile)
        for name, profile in PROFILES.items()
    })
    report("Sec. V-D — maximum feasible bus speed", [
        ("Arduino Due", "<= 250 kbit/s (unreliable above 125)",
         speeds["arduino_due"]),
        ("NXP S32K144", ">= 500 kbit/s", speeds["nxp_s32k144"]),
        ("SAM V71", ">= 500 kbit/s", speeds["sam_v71"]),
        ("SPC58EC", ">= 500 kbit/s", speeds["spc58ec"]),
    ])
    assert speeds["arduino_due"] <= 250_000
    assert speeds["nxp_s32k144"] >= 500_000


def test_cpu_scales_with_fsm_complexity(benchmark):
    """'CPU load depends on FSM complexity': bigger detection FSMs cost
    more cycles per ID bit."""
    def run():
        small = DetectionFsm(range(0x40))
        large = DetectionFsm(set(range(0x700)) - set(range(0x80, 0x700, 7)))
        return (
            analytic_utilization(ARDUINO_DUE, 125_000,
                                 fsm_states=small.num_states),
            analytic_utilization(ARDUINO_DUE, 125_000,
                                 fsm_states=large.num_states),
            small.num_states, large.num_states,
        )

    small_load, large_load, small_states, large_states = benchmark(run)
    report("Sec. V-D — FSM complexity", [
        (f"combined load, {small_states}-state FSM", "-",
         f"{small_load.combined_load:.1%}"),
        (f"combined load, {large_states}-state FSM", "-",
         f"{large_load.combined_load:.1%}"),
    ])
    assert large_load.combined_load > small_load.combined_load
