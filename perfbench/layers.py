"""Per-layer measurements for the traced run.

Two sources feed the per-layer metrics:

* the **traced pass** — the workload's own path with spans around the
  public functions it calls (:mod:`instrument`); and
* **layer probes** on a small sample of the workload's specs, for what
  that path cannot isolate (engine comparison, per-observer overhead,
  the per-bit phase split, protocol regions) or does not traverse.

Every call a probe makes into the program is itself a span, so the
whole traced run shares one span format.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

import checks
from instrument import install_service
from spans import SpanRecorder, layer_table

from repro.experiments.campaign import (
    CampaignReport,
    ScenarioSpec,
    execute_spec,
)
from repro.experiments.config import RunConfig
from repro.experiments.service.journal import spec_digest

#: Observer variants of the layer probe, in run order per spec.
VARIANTS = ("bare", "bit", "probe", "snapshot", "flight", "trace")

#: Interleaved rounds of the variants; each time is the best round's.
ROUNDS = 2

#: Bits after an error verdict counted as error frame: a 6-bit error
#: flag plus the 8-bit error delimiter.
ERROR_FRAME_BITS = 14

#: Protocol regions, lowest precedence first; a bit in several regions
#: counts in the last one that covers it.
REGIONS = ("idle", "busoff", "frame", "arbitration", "error", "counterattack")

#: Region code of a bit committed by a fast-forward span.
_FAST = 255


def _run_variant(spec: ScenarioSpec, variant: str, workdir: str,
                 recorder: SpanRecorder, spec_id: str) -> Dict[str, Any]:
    """Build and run ``spec`` with one observer attached; time the run."""
    from repro.obs.flight import FlightRecorder, write_dump
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder
    from repro.obs.tracing import TraceCollector
    from repro.trace.framelog import FrameLog

    with recorder.span("experiments.build", spec_id) as build:
        setup = spec.build()
    sim = setup.sim
    config = RunConfig(duration_bits=spec.duration_bits,
                       engine="bit" if variant == "bit" else "fast")
    out: Dict[str, Any] = {}
    with recorder.span(f"probe.{variant}", spec_id) as span:
        probe = flight = collector = None
        if variant in ("probe", "snapshot"):
            probe = BusProbe(sim)
        if variant == "snapshot":
            sim.add_node(SnapshotRecorder(probe,
                                          spec.snapshot_every_bits or 500))
        if variant == "flight":
            flight_path = os.path.join(workdir, "probe.flight.json")
            flight = FlightRecorder(sim, autoflush_path=flight_path,
                                    flush_every=32)
            flight.flush(reason="start")
        if variant == "trace":
            collector = TraceCollector(sim, include_engine_spans=True)
        with recorder.span("bus.advance") as advance:
            sim.advance(spec.duration_bits, policy=config.policy())
        with recorder.span("experiments.run"):
            result = setup.run(config=config.with_overrides(duration_bits=0))
        if probe is not None:
            result.metrics = probe.summary()
            probe.close()
        if flight is not None:
            write_dump(flight.dump(reason="complete"), flight_path)
            flight.close()
        if collector is not None:
            out["spans"] = collector.finalize()
            out["engine_spans"] = collector.engine_spans
    out["seconds"] = span["end"] - span["start"]
    out["advance_s"] = advance["end"] - advance["start"]
    out["build_s"] = build["end"] - build["start"]
    out["bits"] = sim.time
    out["ff"] = sim.ff_stats.as_dict()
    if variant in ("bare", "bit"):
        result.duration_bits = spec.duration_bits
        out["result"] = result.to_dict()
        with recorder.span("trace.framelog", spec_id) as fold:
            log = FrameLog(sim.events)
            for attacker in setup.attackers:
                log.busoff_episodes(attacker.name)
                log.busoff_statistics(attacker.name, sim.bus_speed)
        out["framelog_s"] = fold["end"] - fold["start"]
    return out


def region_bits(spans: Sequence[Any], engine_spans: Sequence[Any],
                total_bits: int) -> Dict[str, int]:
    """Per-bit-stepped bits of one run, split by protocol region.

    Each bit of ``[0, total_bits)`` gets the highest-precedence region
    whose span covers it (see :data:`REGIONS`); bits inside committed
    fast-forward spans are left out, so the counts sum to the per-bit
    bits of the run.
    """
    codes = bytearray(total_bits)

    def paint(begin: int, end: int, code: int) -> None:
        begin, end = max(0, begin), min(total_bits, end)
        if end > begin:
            codes[begin:end] = bytes([code]) * (end - begin)

    for code, region in enumerate(REGIONS):
        for span in spans:
            if region == "error" and span.name == "error":
                paint(span.begin, span.begin + ERROR_FRAME_BITS, code)
            elif span.name == region and span.end is not None:
                paint(span.begin, span.end, code)
    for span in engine_spans:
        paint(span.begin, span.end, _FAST)
    return {region: codes.count(code) for code, region in enumerate(REGIONS)}


def probe_layers(specs: Sequence[ScenarioSpec], workdir: str,
                 recorder: SpanRecorder) -> Dict[str, Any]:
    """Run every variant of every sample spec; fold into metrics.

    Variants run interleaved, :data:`ROUNDS` times each, and every time
    is the best of its rounds.  Also checks the ROADMAP aim 3 engine
    equality on the sample: the bare fast run and the bit run must give
    identical results.
    """
    best: Dict[str, float] = {}
    ff = {"body_spans": 0, "body_bits": 0, "idle_spans": 0, "idle_bits": 0}
    regions = {region: 0 for region in REGIONS}
    bits = 0
    for index, spec in enumerate(specs):
        spec_id = f"{index}:{spec.name}@{spec.seed}"
        times: Dict[str, float] = {}
        for round_ in range(ROUNDS):
            outcomes = {}
            for variant in VARIANTS:
                outcome = outcomes[variant] = _run_variant(
                    spec, variant, workdir, recorder,
                    f"{variant}/{spec_id}/r{round_}")
                for key in ("seconds", "advance_s", "build_s", "framelog_s"):
                    if key in outcome:
                        name = f"{variant}.{key}"
                        times[name] = min(times.get(name, outcome[key]),
                                          outcome[key])
            if round_:
                continue
            checks.results_equal(spec.name, outcomes["bare"]["result"],
                                 outcomes["bit"]["result"])
            if outcomes["trace"]["ff"] != outcomes["bare"]["ff"]:
                raise checks.CheckFailed(
                    f"{spec.name}: attaching the trace collector changed the "
                    f"fast-forward spans")
            for key in ff:
                ff[key] += outcomes["bare"]["ff"][key]
            bits += outcomes["bare"]["bits"]
            split = region_bits(outcomes["trace"]["spans"],
                                outcomes["trace"]["engine_spans"],
                                outcomes["trace"]["bits"])
            for region, count in split.items():
                regions[region] += count
        for name, value in times.items():
            best[name] = best.get(name, 0.0) + value
    fast_bits = ff["body_bits"] + ff["idle_bits"]
    perbit = bits - fast_bits
    if sum(regions.values()) != perbit:
        raise checks.CheckFailed(
            f"region split covers {sum(regions.values())} per-bit bits, "
            f"ff_stats says {perbit}")
    metrics: Dict[str, Any] = {
        "bus.bit_engine_s": best["bit.advance_s"],
        "bus.ff_speedup": best["bit.advance_s"] / best["bare.advance_s"],
        "bus.ff_fast_fraction": fast_bits / bits,
        "bus.perbit_bits": perbit,
        "bus.ff_body_bits": ff["body_bits"],
        "bus.ff_idle_bits": ff["idle_bits"],
        "bus.ff_body_spans": ff["body_spans"],
        "bus.ff_idle_spans": ff["idle_spans"],
        "obs.probe_s": best["probe.seconds"] - best["bare.seconds"],
        "obs.snapshot_s": best["snapshot.seconds"] - best["probe.seconds"],
        "obs.flight_s": best["flight.seconds"] - best["bare.seconds"],
        "obs.trace_s": best["trace.seconds"] - best["bare.seconds"],
        "sample.bus.advance_s": best["bare.advance_s"],
        "sample.trace.framelog_s": best["bare.framelog_s"],
        "sample.experiments.build_s": best["bare.build_s"],
    }
    for region, count in regions.items():
        metrics[f"bus.region_bits.{region}"] = count
    return metrics


def phase_split(spec: ScenarioSpec, recorder: SpanRecorder) -> Dict[str, float]:
    """``obs.profiler.profile_run`` on one spec: per-bit phase seconds."""
    from repro.obs.profiler import profile_run

    spec_id = f"phase/{spec.name}@{spec.seed}"
    with recorder.span("experiments.build", spec_id):
        setup = spec.build()
    with recorder.span("obs.profile_run", spec_id):
        profile = profile_run(setup.sim, spec.duration_bits)
    return {"bus.phase.output_s": profile.output_seconds,
            "bus.phase.drive_s": profile.drive_seconds,
            "bus.phase.observe_s": profile.observe_seconds}


def service_metrics(spans: List[Dict[str, Any]],
                    report: CampaignReport) -> Dict[str, Any]:
    """Service, cache and analysis metrics from service-parent spans.

    The spans come from :func:`instrument.install_service`, either in a
    ``repro serve`` parent or in an in-process ``CampaignService``.
    """
    table = layer_table(spans)

    def inclusive(name: str) -> float:
        row = table.get(name)
        if row is None:
            raise checks.CheckFailed(f"no {name!r} span was recorded")
        return row["inclusive_s"]

    gets = [span for span in spans if span["name"] == "cache.get"]
    puts = [span for span in spans if span["name"] == "cache.put"]
    hits = sum(1 for span in gets if span["attrs"]["hit"])
    # A simulated spec journals queued, leased, done in that order; the
    # parent sees it from the lease to the settlement.
    journal: Dict[str, List[float]] = {}
    for span in spans:
        if span["name"] == "service.journal":
            journal.setdefault(span["spec"], []).append(span["start"])
    overheads = []
    for record in report.records:
        starts = journal.get(spec_digest(record.spec), [])
        if len(starts) == 3:
            overheads.append(starts[2] - starts[1] - record.wall_seconds)
    sizes = [len(json.dumps(record.to_dict())) for record in report.records]
    busy = report.worker_utilization()
    return {
        "service.pool_start_s": inclusive("service.start"),
        "service.submit_s": inclusive("service.submit"),
        "service.lease_overhead_ms": (
            1000.0 * sum(overheads) / len(overheads) if overheads else 0.0),
        "service.worker_busy_fraction": busy if busy is not None else 0.0,
        "service.record_bytes": sum(sizes) / len(sizes),
        "cache.hits": hits,
        "cache.misses": len(gets) - hits,
        "cache.stores": sum(1 for span in puts if span["attrs"]["stored"]),
        "cache.get_s": sum(span["end"] - span["start"] for span in gets),
        "cache.put_s": sum(span["end"] - span["start"] for span in puts),
        "analysis.manifest_s": inclusive("analysis.manifest"),
    }


def journal_replay(report: CampaignReport, workdir: str,
                   recorder: SpanRecorder) -> Dict[str, Any]:
    """Replay the journal lines the service writes for ``report``."""
    from repro.experiments.service.journal import WorkJournal

    path = os.path.join(workdir, "replay.journal.jsonl")
    journal = WorkJournal(path)
    journal.reset()
    with recorder.span("service.journal_replay", "replay") as span:
        for record in report.records:
            key = spec_digest(record.spec)
            journal.record_queued(key, record.spec)
            journal.record_leased(key, "w0", 1)
            journal.record_done(key, record)
    with open(path, encoding="utf-8") as handle:
        lines = sum(1 for _ in handle)
    return {"service.journal_lines": lines,
            "service.journal_write_s": span["end"] - span["start"]}


def seed_cache(cache_dir: str, specs: Sequence[ScenarioSpec],
               records: Sequence[Any], manifest: Any) -> None:
    """Write ``records`` into a fresh result cache at ``cache_dir``."""
    from repro.experiments.resultcache import ResultCache

    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ResultCache(cache_dir, manifest)
    for spec, record in zip(specs, records):
        if not cache.put(spec, record):
            raise checks.CheckFailed(f"{spec.name}: result cache refused it")


def service_probe(specs: Sequence[ScenarioSpec], cached: Sequence[int],
                  workdir: str) -> Tuple[List[Dict[str, Any]], CampaignReport]:
    """Run ``specs`` through an in-process ``CampaignService``.

    The same set-up as ``repro serve --workers 1 --flight-dir --cache``:
    the purity manifest is built first, the ``cached`` indices are
    pre-loaded into a fresh result cache, and the service is pumped
    until idle.  Returns the service-parent spans and the report.
    """
    import repro
    from repro.analysis import purity
    from repro.experiments.resultcache import ResultCache
    from repro.experiments.service.service import CampaignService

    recorder = SpanRecorder()
    install_service(recorder)
    try:
        manifest = purity.build_purity_manifest(
            [os.path.dirname(repro.__file__)])
        preloaded = [specs[index] for index in cached]
        records = [execute_spec(spec) for spec in preloaded]
        cache_dir = os.path.join(workdir, "probe-cache")
        recorder.unwrap_all()
        seed_cache(cache_dir, preloaded, records, manifest)
        install_service(recorder)
        service = CampaignService(
            os.path.join(workdir, "probe.journal.jsonl"), n_workers=1,
            flight_dir=os.path.join(workdir, "probe-flight"),
            result_cache=ResultCache(cache_dir, manifest))
        service.journal.reset()
        try:
            service.start()
            _wait_workers_idle(service)
            service.submit_specs(list(specs))
            if not service.run_until_idle(poll_seconds=0.002, timeout=120):
                raise checks.CheckFailed("service probe did not go idle")
            report = service.report()
        finally:
            service.close()
    finally:
        recorder.unwrap_all()
    spec_dicts = [spec.to_dict() for spec in specs]
    checks.check_report(checks.in_spec_order(report.to_dict(), spec_dicts),
                        spec_dicts)
    return recorder.spans, report


def _wait_workers_idle(service: Any, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        service.pump()
        states = [worker["state"] for worker in service.status()["workers"]]
        if states and all(state == "idle" for state in states):
            return
        time.sleep(0.002)
    raise checks.CheckFailed("service probe workers never became ready")


def layer_sample(workload: str,
                 specs: Sequence[ScenarioSpec]) -> List[ScenarioSpec]:
    """The layer probes' sample of a workload's spec list.

    ``table2_fight``: the single-attacker exp4 fight and the 3-attacker
    fight, each cut to the first half of its window.  ``restbus_idle``:
    the first spec cut to a fifth of its window (per-bit stepping of a
    whole 1M-bit window costs 8+ s).  ``serve_sweep``: the first ten
    specs, whole.
    """
    if workload == "table2_fight":
        return [replace(spec, duration_bits=spec.duration_bits // 2)
                for spec in specs
                if spec.scenario in ("exp4", "multi_attacker")]
    if workload == "restbus_idle":
        return [replace(specs[0], duration_bits=specs[0].duration_bits // 5)]
    return list(specs[:10])


def equality_sample(workload: str,
                    specs: Sequence[ScenarioSpec]) -> List[ScenarioSpec]:
    """Specs whose fast- and bit-engine results a plain run compares."""
    if workload == "table2_fight":
        return [spec for spec in specs if spec.scenario == "exp4"]
    if workload == "restbus_idle":
        return layer_sample(workload, specs)
    return list(specs[:5])
