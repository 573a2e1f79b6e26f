"""Fault-hook overhead: bare wire vs an inactive FaultInjectingWire.

Runs the restbus fight scenario twice — on the plain wire and with a
fault plan applied whose windows never open — and records the steps/sec
of each to ``BENCH_faults.json`` in the repo root.

The contract this bench enforces: fault injection is opt-in, and even
when a plan is *installed* its inactive hooks (window checks on the wire
and node method wrappers) may cost at most ``MAX_OVERHEAD`` relative
throughput.  Scenarios that carry no plan at all pay nothing — they
never leave the plain-wire hot path.

Regenerate:  pytest benchmarks/bench_faults_overhead.py --benchmark-only -s
"""

import json
import os
import pathlib
import time

from conftest import report
from repro.experiments.campaign import ScenarioSpec
from repro.faults.apply import apply_fault_plan
from repro.faults.plan import FaultPlan, FaultSpec, FaultWindow

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_faults.json"

#: Inactive-fault-hook throughput must stay within this fraction of bare.
MAX_OVERHEAD = 0.10

SCENARIO = "restbus_fight"
ROUNDS = 3

#: Far beyond any bench duration: the hooks stay installed but dormant.
NEVER = FaultWindow(10**12)


def _dormant_plan():
    return FaultPlan((
        FaultSpec(name="flips", kind="wire.flip", window=NEVER,
                  params={"flip_probability": 1.0}, seed=1),
        FaultSpec(name="stuck", kind="node.tx_stuck", target="michican",
                  window=NEVER),
    ))


def _run_once(duration_bits, faulted=False):
    setup = ScenarioSpec(SCENARIO, duration_bits=duration_bits).build()
    sim = setup.sim
    if faulted:
        apply_fault_plan(sim, _dormant_plan())
    started = time.perf_counter()
    sim.advance(duration_bits)
    wall = time.perf_counter() - started
    return duration_bits / wall


def _best_of(rounds, duration_bits, **kwargs):
    best = 0.0
    for _ in range(rounds):
        best = max(best, _run_once(duration_bits, **kwargs))
    return best


def test_inactive_fault_hook_overhead(benchmark, quick):
    duration = 10_000 if quick else 100_000
    rounds = 1 if quick else ROUNDS

    bare = _best_of(rounds, duration)
    faulted = _best_of(rounds, duration, faulted=True)
    benchmark.pedantic(lambda: _run_once(duration, faulted=True),
                       rounds=1, iterations=1)

    overhead = 1.0 - faulted / bare

    payload = {
        "scenario": SCENARIO,
        "duration_bits": duration,
        "rounds": rounds,
        "cpu_count": os.cpu_count() or 1,
        "bare_steps_per_second": round(bare, 1),
        "inactive_faults_steps_per_second": round(faulted, 1),
        "inactive_fault_overhead_fraction": round(overhead, 4),
    }
    if not quick:
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Inactive fault-hook overhead", [
        ("bare wire (steps/s)", "-", f"{bare:,.0f}"),
        ("dormant plan (steps/s)", "-", f"{faulted:,.0f}"),
        ("overhead", f"<{MAX_OVERHEAD:.0%}", f"{overhead:.1%}"),
    ], notes=f"recorded to {BENCH_FILE.name}")

    assert overhead < MAX_OVERHEAD
