"""Tracing overhead: bare engine vs an attached TraceCollector.

Runs the same fight scenario three ways — bare (tracing off), with a
:class:`~repro.obs.tracing.TraceCollector` attached, and with engine
annotation spans also enabled — and records the cost of each to
``BENCH_trace.json`` in the repo root.

The collector builds its spans from the recorded events at
:meth:`~repro.obs.tracing.TraceCollector.finalize`, so a traced run's
timed part is the advance *and* the finalize; the bare run's is the
advance alone.

The contract this bench enforces: tracing is opt-in.  With no collector
attached the engine pays nothing, so the tracing-off configuration (a
second bare run) must match the bare baseline within
``MAX_OFF_OVERHEAD`` (pure measurement noise — there is no hook to pay
for).  With a collector attached the span stitching may cost at most
``MAX_ON_OVERHEAD`` more than the bare run.

Methodology mirrors ``bench_metrics_overhead``: shared warmup, then
paired, interleaved rounds on process CPU time, gated on the median
per-pair ratio (see ``conftest.paired_cpu_overheads``).

Regenerate:  pytest benchmarks/bench_trace_overhead.py --benchmark-only -s
"""

import functools
import json
import os
import pathlib

from conftest import cpu_seconds, paired_cpu_overheads, report
from repro.experiments.campaign import ScenarioSpec
from repro.obs.tracing import TraceCollector

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_trace.json"

#: Tracing-off cost must match bare within this fraction (noise).
MAX_OFF_OVERHEAD = 0.02

#: Collector-attached cost must stay within this fraction over bare.
MAX_ON_OVERHEAD = 0.20

SCENARIO = "exp4"

#: Paired rounds per run; odd, so the median is one round's ratio.
ROUNDS = 21

#: The timed configurations; the first is the baseline of every pair.
CONFIGS = (
    ("bare", {}),
    ("off", {}),  # tracing importable but detached: must equal bare
    ("traced", {"traced": True}),
    ("engine_spans", {"traced": True, "engine_spans": True}),
)


def _run_once(duration_bits, traced=False, engine_spans=False):
    """Build a fresh scenario, run it; return the CPU seconds of the
    advance plus, when traced, the finalize."""
    setup = ScenarioSpec(SCENARIO, duration_bits=duration_bits).build()
    sim = setup.sim
    if not traced:
        return cpu_seconds(lambda: sim.advance(duration_bits))
    collector = TraceCollector(sim, include_engine_spans=engine_spans)

    def observed():
        sim.advance(duration_bits)
        collector.finalize()

    return cpu_seconds(observed)


def _span_count(duration_bits):
    setup = ScenarioSpec(SCENARIO, duration_bits=duration_bits).build()
    collector = TraceCollector(setup.sim)
    setup.sim.advance(duration_bits)
    return len(collector.finalize())


def test_trace_overhead(benchmark, quick):
    duration = 10_000 if quick else 100_000

    # Shared warmup: every configuration is timed against hot caches.
    _run_once(min(duration, 20_000), traced=True)

    overheads, seconds = paired_cpu_overheads(
        functools.partial(_run_once, duration), CONFIGS, ROUNDS)
    benchmark.pedantic(lambda: _run_once(duration, traced=True),
                       rounds=1, iterations=1)
    off_overhead = overheads["off"]
    on_overhead = overheads["traced"]
    annotated_overhead = overheads["engine_spans"]

    def rate(name):
        return duration / seconds[name]

    payload = {
        "scenario": SCENARIO,
        "duration_bits": duration,
        "rounds": ROUNDS,
        "method": "paired interleaved rounds, process CPU time, "
                  "median per-pair ratio",
        "cpu_count": os.cpu_count() or 1,
        "bare_steps_per_cpu_second": round(rate("bare"), 1),
        "trace_off_steps_per_cpu_second": round(rate("off"), 1),
        "trace_on_steps_per_cpu_second": round(rate("traced"), 1),
        "engine_spans_steps_per_cpu_second": round(rate("engine_spans"), 1),
        "trace_off_overhead_fraction": round(off_overhead, 4),
        "trace_on_overhead_fraction": round(on_overhead, 4),
        "engine_spans_overhead_fraction": round(annotated_overhead, 4),
        "spans_per_run": _span_count(duration),
    }
    if not quick:
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Trace collector overhead", [
        ("bare (steps/CPU s)", "-", f"{rate('bare'):,.0f}"),
        ("tracing off (steps/CPU s)", "-", f"{rate('off'):,.0f}"),
        ("tracing on (steps/CPU s)", "-", f"{rate('traced'):,.0f}"),
        ("engine spans on (steps/CPU s)", "-",
         f"{rate('engine_spans'):,.0f}"),
        ("tracing-off overhead (median pair)", f"<{MAX_OFF_OVERHEAD:.0%}",
         f"{off_overhead:.1%}"),
        ("tracing-on overhead (median pair)", f"<{MAX_ON_OVERHEAD:.0%}",
         f"{on_overhead:.1%}"),
        ("spans per run", "-", payload["spans_per_run"]),
    ], notes=f"recorded to {BENCH_FILE.name}")

    assert off_overhead < MAX_OFF_OVERHEAD
    assert on_overhead < MAX_ON_OVERHEAD
