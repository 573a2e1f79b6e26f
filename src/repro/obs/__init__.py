"""Observability: bus probes, snapshots, traces, exporters.

The paper's evaluation is a set of derived time-series metrics over
bit-level protocol activity (bus-off times, detection latency, bus load,
CPU cost).  This package makes that a first-class layer.  Its observers
fold the events the simulator records in ``sim.events`` after the fact
instead of subscribing to the live stream; only the flight recorder
writes while the run is alive, so that its log survives a crash:

* :mod:`repro.obs.metrics` — the fixed-bucket
  :class:`~repro.obs.metrics.Histogram` of detection latency;
* :mod:`repro.obs.probe` — :class:`~repro.obs.probe.BusProbe`, a view
  that folds the recorded events through
  :class:`~repro.trace.framelog.FrameLog` into per-node protocol metrics,
  summarized into a :class:`~repro.obs.probe.MetricsSummary`;
* :mod:`repro.obs.snapshot` — a periodic snapshotter sampling every N
  simulated bits into a schema-versioned JSONL timeline;
* :mod:`repro.obs.export` — Prometheus-style text exposition of summaries;
* :mod:`repro.obs.profiler` — wall-clock per-phase timing of the engine's
  output / drive / observe cycle;
* :mod:`repro.obs.tracing` — causal per-frame lifecycle spans built from
  the recorded events, exported as JSONL or Chrome ``trace_event`` JSON
  (Perfetto-loadable);
* :mod:`repro.obs.flight` — a crash flight recorder appending recent
  events and node-state checkpoints to a log for post-mortems.
"""

from repro.obs.export import report_to_prometheus, summary_to_prometheus
from repro.obs.flight import (
    FLIGHT_KIND,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    load_dump,
    render_dump,
    write_dump,
)
from repro.obs.metrics import Histogram
from repro.obs.probe import BusProbe, MetricsSummary
from repro.obs.profiler import PhaseProfile, profile_run
from repro.obs.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotRecorder,
    read_snapshots,
    write_snapshots,
)
from repro.obs.tracing import (
    TRACE_KIND,
    TRACE_SCHEMA_VERSION,
    Span,
    TraceCollector,
    chrome_trace,
    read_trace,
    render_spans,
    write_chrome_trace,
    write_trace,
)

__all__ = [
    "BusProbe",
    "FLIGHT_KIND",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "Histogram",
    "MetricsSummary",
    "PhaseProfile",
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotRecorder",
    "Span",
    "TRACE_KIND",
    "TRACE_SCHEMA_VERSION",
    "TraceCollector",
    "chrome_trace",
    "load_dump",
    "profile_run",
    "read_snapshots",
    "read_trace",
    "render_dump",
    "render_spans",
    "report_to_prometheus",
    "summary_to_prometheus",
    "write_chrome_trace",
    "write_dump",
    "write_snapshots",
    "write_trace",
]
