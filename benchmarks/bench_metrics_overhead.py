"""Telemetry overhead: probe-off vs probe-on engine cost.

Runs the same fight scenario three ways — bare (no probe), with a
:class:`~repro.obs.probe.BusProbe` attached, and with a probe plus a
periodic :class:`~repro.obs.snapshot.SnapshotRecorder` — and records the
cost of each to ``BENCH_metrics.json`` in the repo root, together with a
:func:`~repro.obs.profiler.profile_run` phase breakdown.

The probe folds the recorded events after the run instead of
subscribing to them live, so an observed run's timed part is the
advance *and* :meth:`~repro.obs.probe.BusProbe.close`, which folds every
event recorded so far; the bare run's is the advance alone.  The
summary's idle-gap scan of the wire history is outside the timing, as it
always was.

Methodology: a shared warmup run precedes timing, then the
configurations run in paired, interleaved rounds, each timed on process
CPU time after a full collection (see ``conftest.paired_cpu_overheads``).
The gated overhead of a configuration is the median over the rounds of
its CPU time over the bare run's of the same round, minus one.  The
median of paired ratios is what keeps the 10k-bit quick gate from
flipping on host noise; it may read slightly negative when the true
cost is below the noise.

The contract this bench enforces: observability is opt-in, so the
probe-on run may cost at most ``MAX_OVERHEAD`` more than the bare run,
and the probe-off path is the same hot loop the campaign baseline
(``BENCH_campaign.json``) measures.

Regenerate:  pytest benchmarks/bench_metrics_overhead.py --benchmark-only -s
"""

import functools
import json
import os
import pathlib

from conftest import cpu_seconds, paired_cpu_overheads, report
from repro.experiments.campaign import ScenarioSpec
from repro.obs.probe import BusProbe
from repro.obs.profiler import profile_run
from repro.obs.snapshot import SnapshotRecorder

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_metrics.json"

#: Probe-on cost must stay within this fraction over probe-off.
MAX_OVERHEAD = 0.15

#: Probe + periodic snapshots must stay within this fraction over probe-off.
MAX_SNAPSHOT_OVERHEAD = 0.15

SCENARIO = "exp4"

#: Paired rounds per run; odd, so the median is one round's ratio.
ROUNDS = 21

#: The timed configurations; the first is the baseline of every pair.
CONFIGS = (
    ("bare", {}),
    ("probed", {"metrics": True}),
    ("snapshotted", {"metrics": True, "snapshot_every": 1_000}),
)


def _run_once(duration_bits, metrics=False, snapshot_every=None):
    """Build a fresh scenario, run it; return the CPU seconds of the
    advance plus, when probed, the probe's fold."""
    setup = ScenarioSpec(SCENARIO, duration_bits=duration_bits).build()
    sim = setup.sim
    if not metrics:
        return cpu_seconds(lambda: sim.advance(duration_bits))
    probe = BusProbe(sim)
    if snapshot_every:
        sim.add_node(SnapshotRecorder(probe, snapshot_every))

    def observed():
        sim.advance(duration_bits)
        probe.close()

    return cpu_seconds(observed)


def test_probe_overhead(benchmark, quick):
    duration = 10_000 if quick else 100_000

    # Shared warmup: every configuration is timed against hot caches.
    _run_once(min(duration, 20_000), metrics=True)

    overheads, seconds = paired_cpu_overheads(
        functools.partial(_run_once, duration), CONFIGS, ROUNDS)
    benchmark.pedantic(lambda: _run_once(duration, metrics=True),
                       rounds=1, iterations=1)
    overhead = overheads["probed"]
    snapshot_overhead = overheads["snapshotted"]

    events_setup = ScenarioSpec(SCENARIO, duration_bits=duration).build()
    events_setup.sim.advance(duration)
    profile_setup = ScenarioSpec(SCENARIO, duration_bits=duration).build()
    profile = profile_run(profile_setup.sim, duration)

    def rate(name):
        return duration / seconds[name]

    payload = {
        "scenario": SCENARIO,
        "duration_bits": duration,
        "rounds": ROUNDS,
        "method": "paired interleaved rounds, process CPU time, "
                  "median per-pair ratio",
        "cpu_count": os.cpu_count() or 1,
        "probe_off_steps_per_cpu_second": round(rate("bare"), 1),
        "probe_on_steps_per_cpu_second": round(rate("probed"), 1),
        "probe_and_snapshots_steps_per_cpu_second":
            round(rate("snapshotted"), 1),
        "probe_overhead_fraction": round(overhead, 4),
        "snapshot_overhead_fraction": round(snapshot_overhead, 4),
        "events_per_run": len(events_setup.sim.events),
        "phase_profile": profile.to_dict(),
    }
    if not quick:
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Telemetry probe overhead", [
        ("probe off (steps/CPU s)", "-", f"{rate('bare'):,.0f}"),
        ("probe on (steps/CPU s)", "-", f"{rate('probed'):,.0f}"),
        ("probe + snapshots (steps/CPU s)", "-",
         f"{rate('snapshotted'):,.0f}"),
        ("probe overhead (median pair)", f"<{MAX_OVERHEAD:.0%}",
         f"{overhead:.1%}"),
        ("snapshot overhead (median pair)", f"<{MAX_SNAPSHOT_OVERHEAD:.0%}",
         f"{snapshot_overhead:.1%}"),
        ("hot-loop phases", "-",
         " ".join(f"{name}={fraction:.0%}" for name, fraction
                  in profile.phase_fractions().items())),
    ], notes=f"recorded to {BENCH_FILE.name}")

    assert overhead < MAX_OVERHEAD
    assert snapshot_overhead < MAX_SNAPSHOT_OVERHEAD
