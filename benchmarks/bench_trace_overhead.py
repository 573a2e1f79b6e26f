"""Tracing overhead: bare engine vs an attached TraceCollector.

Runs the same fight scenario three ways — bare (tracing off), with a
:class:`~repro.obs.tracing.TraceCollector` attached, and with engine
annotation spans also enabled — and records the steps/sec of each to
``BENCH_trace.json`` in the repo root.

The contract this bench enforces: tracing is opt-in.  With no collector
attached the engine pays nothing beyond the existing event dispatch, so
the tracing-off path must match the bare baseline within
``MAX_OFF_OVERHEAD`` (pure measurement noise — there is no hook to pay
for).  With a collector attached the span stitching may cost at most
``MAX_ON_OVERHEAD`` relative throughput.

Methodology mirrors ``bench_metrics_overhead``: shared warmup, then
interleaved rounds with best-per-configuration, overheads clamped at
zero with a ``noisy`` flag for negative raw values.

Regenerate:  pytest benchmarks/bench_trace_overhead.py --benchmark-only -s
"""

import json
import os
import pathlib
import time

from conftest import report
from repro.experiments.campaign import ScenarioSpec
from repro.obs.tracing import TraceCollector

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_trace.json"

#: Tracing-off throughput must match bare within this fraction (noise).
MAX_OFF_OVERHEAD = 0.02

#: Collector-attached throughput must stay within this fraction of bare.
MAX_ON_OVERHEAD = 0.20

SCENARIO = "exp4"
ROUNDS = 3

#: The timed configurations, in within-round execution order.
CONFIGS = (
    ("bare", {}),
    ("off", {}),  # tracing importable but detached: must equal bare
    ("traced", {"traced": True}),
    ("engine_spans", {"traced": True, "engine_spans": True}),
)


def _run_once(duration_bits, traced=False, engine_spans=False):
    """Build a fresh scenario, run it, return (steps/s, span count)."""
    setup = ScenarioSpec(SCENARIO, duration_bits=duration_bits).build()
    sim = setup.sim
    collector = None
    if traced:
        collector = TraceCollector(sim, include_engine_spans=engine_spans)
    started = time.perf_counter()
    sim.advance(duration_bits)
    wall = time.perf_counter() - started
    spans = 0
    if collector is not None:
        spans = len(collector.finalize())
    return duration_bits / wall, spans


def _measure_interleaved(rounds, duration_bits):
    best = {name: 0.0 for name, _ in CONFIGS}
    spans = 0
    for _ in range(rounds):
        for name, kwargs in CONFIGS:
            rate, seen = _run_once(duration_bits, **kwargs)
            if rate > best[name]:
                best[name] = rate
            if name == "traced":
                spans = seen
    return best, spans


def test_trace_overhead(benchmark, quick):
    duration = 10_000 if quick else 100_000
    rounds = ROUNDS  # quick mode too: one 10k-bit round is noise-bound

    # Shared warmup: every configuration is timed against hot caches.
    _run_once(min(duration, 20_000), traced=True)

    best, spans = _measure_interleaved(rounds, duration)
    bare = best["bare"]
    off = best["off"]
    traced = best["traced"]
    annotated = best["engine_spans"]
    benchmark.pedantic(lambda: _run_once(duration, traced=True),
                       rounds=1, iterations=1)

    raw_off = 1.0 - off / bare
    raw_on = 1.0 - traced / bare
    raw_annotated = 1.0 - annotated / bare
    off_overhead = max(0.0, raw_off)
    on_overhead = max(0.0, raw_on)
    annotated_overhead = max(0.0, raw_annotated)
    noisy = raw_off < 0 or raw_on < 0 or raw_annotated < 0

    payload = {
        "scenario": SCENARIO,
        "duration_bits": duration,
        "rounds": rounds,
        "cpu_count": os.cpu_count() or 1,
        "trace_off_steps_per_second": round(off, 1),
        "trace_on_steps_per_second": round(traced, 1),
        "engine_spans_steps_per_second": round(annotated, 1),
        "bare_steps_per_second": round(bare, 1),
        "trace_off_overhead_fraction": round(off_overhead, 4),
        "trace_on_overhead_fraction": round(on_overhead, 4),
        "engine_spans_overhead_fraction": round(annotated_overhead, 4),
        "raw_trace_off_overhead_fraction": round(raw_off, 4),
        "raw_trace_on_overhead_fraction": round(raw_on, 4),
        "noisy": noisy,
        "spans_per_run": spans,
    }
    if not quick:
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Trace collector overhead", [
        ("bare (steps/s)", "-", f"{bare:,.0f}"),
        ("tracing off (steps/s)", "-", f"{off:,.0f}"),
        ("tracing on (steps/s)", "-", f"{traced:,.0f}"),
        ("engine spans on (steps/s)", "-", f"{annotated:,.0f}"),
        ("tracing-off overhead", f"<{MAX_OFF_OVERHEAD:.0%}",
         f"{off_overhead:.1%}"),
        ("tracing-on overhead", f"<{MAX_ON_OVERHEAD:.0%}",
         f"{on_overhead:.1%}"),
        ("noise flag", "-", str(noisy).lower()),
        ("spans per run", "-", spans),
    ], notes=f"recorded to {BENCH_FILE.name}")

    assert off_overhead < MAX_OFF_OVERHEAD
    assert on_overhead < MAX_ON_OVERHEAD
