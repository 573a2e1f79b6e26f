"""The campaign engine: declarative scenario specs + parallel fan-out.

The paper's large studies — the Table II grid, the restbus sweep over all
eight vehicle buses, the speed sweep — are all "build a bus from parameters,
run it for a window, keep the :class:`ExperimentResult`".  This module makes
that shape first-class:

* a **scenario registry** maps names to factories that build a ready-to-run
  :class:`~repro.experiments.scenarios.ExperimentSetup` from keyword
  parameters;
* a :class:`ScenarioSpec` is the declarative, pickle-safe description of one
  run (factory name + params + seed + duration + optional
  :class:`~repro.faults.plan.FaultPlan`) that any worker process can
  rebuild into a fresh simulator;
* a :class:`Campaign` runs a list of specs, in-process for
  ``n_workers=1`` or on the campaign service's long-lived worker pool
  (:mod:`repro.experiments.service`) when it needs process isolation,
  and collects a JSON-serializable :class:`CampaignReport`.

Determinism guarantee: workers re-seed the ``random`` module from
``spec.seed`` before building, and factories that take a ``seed`` parameter
receive it explicitly — so a campaign run serially and a campaign run with
any worker count produce bit-identical :class:`ExperimentResult` payloads.
Only the timing fields (wall seconds, steps/s, worker name) differ.

Robustness guarantee: a worker that raises, crashes hard, or exceeds the
per-spec wall-clock timeout does not abort the fan-out.  The spec is
retried with exponential backoff up to ``max_retries`` times; a spec that
never completes becomes a structured :class:`RunFailure` in the report.
With a ``checkpoint`` path every state transition is appended to a work
journal (:class:`~repro.experiments.service.journal.WorkJournal`, the
format ``repro serve --journal`` writes), and ``run(resume=True)``
replays the specs the journal already completed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import random
import time as _time
from dataclasses import dataclass, field
from multiprocessing import current_process
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult
from repro.faults.plan import FaultPlan

#: Bump when the report dict layout changes incompatibly.
#: v2: reports carry a ``failures`` list; specs carry a ``faults`` plan.
#: v3: records and failures carry optional flight-recorder dumps.
SCHEMA_VERSION = 3

#: A factory takes keyword params and returns an object with
#: ``run(*, config: RunConfig) -> ExperimentResult`` (an ``ExperimentSetup``).
ScenarioFactory = Callable[..., Any]


# --------------------------------------------------------------- registry

_REGISTRY: Dict[str, ScenarioFactory] = {}


def register_scenario(name: str, factory: ScenarioFactory) -> ScenarioFactory:
    """Register ``factory`` under ``name`` for spec-driven rebuilding."""
    if name in _REGISTRY:
        raise ConfigurationError(f"scenario {name!r} already registered")
    _REGISTRY[name] = factory
    return factory


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_factory(name: str) -> ScenarioFactory:
    """Look a factory up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_summary(name: str) -> str:
    """First docstring line of a registered factory (for listings)."""
    doc = scenario_factory(name).__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def _register_builtin_scenarios() -> None:
    from repro.experiments import chaos, scenarios, sweeps

    for number, factory in scenarios.EXPERIMENTS.items():
        register_scenario(f"exp{number}", factory)
    register_scenario("multi_attacker", scenarios.multi_attacker_experiment)
    register_scenario("michican_vs_parrot", scenarios.michican_defense_setup)
    register_scenario("dos_fight", sweeps.dos_fight_setup)
    register_scenario("single_frame_fight", sweeps.single_frame_fight_setup)
    register_scenario("restbus_fight", sweeps.restbus_fight_setup)
    register_scenario("chaos_fight", chaos.chaos_fight_setup)
    register_scenario("chaos_benign", chaos.chaos_benign_setup)
    register_scenario("restbus_baseline", scenarios.restbus_baseline)


# ------------------------------------------------------------------ specs

@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment run.

    Plain data (name + params + seed + duration): pickle-safe, so it can
    cross a process boundary, and JSON-safe, so it can be stored and
    replayed later.

    Attributes:
        scenario: Registered factory name (see :func:`scenario_names`).
        params: Keyword arguments for the factory.
        seed: Deterministic seed; re-seeds ``random`` before the build and
            is forwarded to factories that accept a ``seed`` parameter.
        duration_bits: Simulated window length handed to ``setup.run()``.
        label: Optional display name; defaults to ``scenario#seed``.
        metrics: Attach a :class:`~repro.obs.probe.BusProbe` for the run
            and embed its summary in the result (off by default so the
            un-instrumented hot path stays the baseline).
        snapshot_every_bits: With ``metrics``, additionally sample a
            telemetry snapshot every N simulated bits into the record's
            JSONL-ready timeline.
        faults: Optional :class:`~repro.faults.plan.FaultPlan` applied to
            the freshly built simulator before the run (chaos wiring).
        engine: "fast" (default) runs through the fast-forward engine,
            "bit" forces per-bit stepping — both produce identical results
            (the differential suite enforces this); "bit" exists for
            engine-comparison benchmarks and as an escape hatch.
    """

    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    duration_bits: int = 20_000
    label: Optional[str] = None
    metrics: bool = False
    snapshot_every_bits: Optional[int] = None
    faults: Optional[FaultPlan] = None
    engine: str = "fast"

    @property
    def name(self) -> str:
        return self.label or f"{self.scenario}#{self.seed}"

    def build(self) -> Any:
        """Rebuild a fresh, fully-wired ``ExperimentSetup`` from the spec."""
        factory = scenario_factory(self.scenario)
        random.seed(self.seed)
        kwargs = dict(self.params)
        if "seed" not in kwargs:
            try:
                accepts_seed = "seed" in inspect.signature(factory).parameters
            except (TypeError, ValueError):  # builtins without signatures
                accepts_seed = False
            if accepts_seed:
                kwargs["seed"] = self.seed
        setup = factory(**kwargs)
        if self.faults is not None:
            sim = getattr(setup, "sim", None)
            if sim is not None:
                from repro.faults.apply import apply_fault_plan

                apply_fault_plan(sim, self.faults)
        return setup

    def run_config(self) -> "RunConfig":
        """The :class:`~repro.experiments.config.RunConfig` this spec maps to."""
        from repro.experiments.config import RunConfig

        return RunConfig(duration_bits=self.duration_bits, engine=self.engine)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "params": dict(self.params),
            "seed": self.seed,
            "duration_bits": self.duration_bits,
            "label": self.label,
            "metrics": self.metrics,
            "snapshot_every_bits": self.snapshot_every_bits,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        faults_data = data.get("faults")
        return cls(
            scenario=data["scenario"],
            params=dict(data.get("params", {})),
            seed=data.get("seed", 0),
            duration_bits=data.get("duration_bits", 20_000),
            label=data.get("label"),
            metrics=data.get("metrics", False),
            snapshot_every_bits=data.get("snapshot_every_bits"),
            faults=None if not faults_data else FaultPlan.from_dict(faults_data),
            engine=data.get("engine", "fast"),
        )


def spec_key(spec: ScenarioSpec) -> str:
    """Canonical identity of a spec (its sorted JSON dict)."""
    return json.dumps(spec.to_dict(), sort_keys=True)


def spec_digest(spec: ScenarioSpec) -> str:
    """The content address of ``spec``: the work journal's ``key``.

    SHA-256 over the canonical spec dict (:func:`spec_key`) and the
    campaign schema version: identical specs collapse to one key, any
    field flip or schema bump moves the address.
    """
    blob = json.dumps({"campaign_schema": SCHEMA_VERSION,
                       "spec": spec_key(spec)}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def flight_dump_path(flight_dir: Optional[str], key: str) -> Optional[str]:
    """Where the spec with journal ``key`` keeps its flight dump."""
    if flight_dir is None:
        return None
    return os.path.join(flight_dir, f"{key[:16]}.flight.json")


# ---------------------------------------------------------------- records

@dataclass
class RunRecord:
    """One executed spec: the result plus per-run throughput metrics.

    ``wall_seconds`` / ``steps_per_second`` / ``worker`` /
    ``spawn_overhead_seconds`` are *timing metadata* — excluded from the
    determinism contract and from :meth:`CampaignReport.payload_equal`
    comparisons.  ``spawn_overhead_seconds`` is the parallel fan-out tax:
    the parent-observed lease time minus the worker's in-process run time
    (spec build, pipe round trip, result pickling); always 0.0 on the
    serial path.

    ``cache_hit`` marks a record replayed from the content-addressed
    result cache (:mod:`repro.experiments.resultcache`) instead of
    simulated.  It is *runtime-only* state: deliberately excluded from
    :meth:`to_dict`, so a replayed record serializes byte-identically to
    the cold run that populated the cache.
    """

    spec: ScenarioSpec
    result: ExperimentResult
    wall_seconds: float
    steps_per_second: float
    worker: str
    snapshots: List[Dict[str, Any]] = field(default_factory=list)
    spawn_overhead_seconds: float = 0.0
    #: Final flight-recorder dump, when the campaign ran with ``flight_dir``.
    flight: Optional[Dict[str, Any]] = None
    #: Runtime-only replay marker; never serialized (see class docstring).
    cache_hit: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "result": self.result.to_dict(),
            "wall_seconds": self.wall_seconds,
            "steps_per_second": self.steps_per_second,
            "worker": self.worker,
            "snapshots": [dict(snapshot) for snapshot in self.snapshots],
            "spawn_overhead_seconds": self.spawn_overhead_seconds,
            "flight": None if self.flight is None else dict(self.flight),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            result=ExperimentResult.from_dict(data["result"]),
            wall_seconds=data.get("wall_seconds", 0.0),
            steps_per_second=data.get("steps_per_second", 0.0),
            worker=data.get("worker", ""),
            snapshots=list(data.get("snapshots", [])),
            spawn_overhead_seconds=data.get("spawn_overhead_seconds", 0.0),
            flight=data.get("flight"),
        )


#: Failure kinds a spec can end with after exhausting its retries.
#: ``"poison"`` is no longer produced (a quarantined spec carries the
#: cause of its last kill); it stays so that older journals and reports
#: still load.
FAILURE_KINDS = ("error", "crash", "timeout", "poison")


@dataclass
class RunFailure:
    """One spec that never completed: what happened, after how many tries.

    ``kind`` is ``"error"`` (the worker raised), ``"crash"`` (the worker
    process died without reporting) or ``"timeout"`` (the per-spec
    lease ran out, or the worker went silent, and it was terminated).
    A spec that kept killing its workers is quarantined with the kind of
    its last kill.  ``"poison"`` appears only in reports written before
    that rule.
    """

    spec: ScenarioSpec
    kind: str
    error: str
    attempts: int
    wall_seconds: float = 0.0
    worker: str = ""
    #: The crashed worker's last flight-recorder dump (``flight_dir`` runs).
    flight: Optional[Dict[str, Any]] = None
    #: On-disk path of that dump, for ``repro trace postmortem``.
    flight_path: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "worker": self.worker,
            "flight": None if self.flight is None else dict(self.flight),
            "flight_path": self.flight_path,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunFailure":
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            kind=data.get("kind", "error"),
            error=data.get("error", ""),
            attempts=data.get("attempts", 1),
            wall_seconds=data.get("wall_seconds", 0.0),
            worker=data.get("worker", ""),
            flight=data.get("flight"),
            flight_path=data.get("flight_path", ""),
        )


@dataclass
class CampaignReport:
    """The JSON-serializable outcome of one campaign."""

    records: List[RunRecord]
    n_workers: int
    wall_seconds: float
    schema_version: int = SCHEMA_VERSION
    failures: List[RunFailure] = field(default_factory=list)

    @property
    def results(self) -> List[ExperimentResult]:
        return [record.result for record in self.records]

    def cache_hits(self) -> int:
        """How many records were replayed from the result cache.

        Runtime-only (``cache_hit`` never serializes): a report loaded
        back from JSON reports 0 regardless of how it was produced.
        """
        return sum(1 for record in self.records if record.cache_hit)

    def result_of(self, name: str) -> ExperimentResult:
        """The result of the spec whose :attr:`ScenarioSpec.name` matches."""
        for record in self.records:
            if record.spec.name == name:
                return record.result
        raise KeyError(f"no spec named {name!r} in this report")

    def total_steps(self) -> int:
        return sum(record.spec.duration_bits for record in self.records)

    def metrics_totals(self) -> Optional[Dict[str, Any]]:
        """Campaign-wide totals aggregated over every instrumented record
        (see :meth:`~repro.obs.probe.MetricsSummary.aggregate`), or
        ``None`` when no record carried metrics."""
        from repro.obs.probe import MetricsSummary

        summaries = [record.result.metrics for record in self.records
                     if record.result.metrics is not None]
        if not summaries:
            return None
        return MetricsSummary.aggregate(summaries)

    def payload_equal(self, other: "CampaignReport") -> bool:
        """True when both reports carry identical specs and results —
        the serial-vs-parallel determinism check (timing fields ignored)."""
        mine = [(r.spec.to_dict(), r.result.to_dict()) for r in self.records]
        theirs = [(r.spec.to_dict(), r.result.to_dict())
                  for r in other.records]
        return mine == theirs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "n_workers": self.n_workers,
            "wall_seconds": self.wall_seconds,
            "records": [record.to_dict() for record in self.records],
            "failures": [failure.to_dict() for failure in self.failures],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignReport":
        return cls(
            records=[RunRecord.from_dict(r) for r in data.get("records", [])],
            n_workers=data.get("n_workers", 1),
            wall_seconds=data.get("wall_seconds", 0.0),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
            failures=[RunFailure.from_dict(f)
                      for f in data.get("failures", [])],
        )

    def spawn_overhead_seconds(self) -> float:
        """Total parallel fan-out tax across all records."""
        return sum(record.spawn_overhead_seconds for record in self.records)

    def mean_spawn_overhead_seconds(self) -> float:
        """Mean per-record fan-out tax (0.0 with no records).

        This is the number the ``<1.1x`` speedup warning is really
        about: when it rivals the mean per-record run time, process
        fan-out cannot pay for itself on these windows.
        """
        if not self.records:
            return 0.0
        return self.spawn_overhead_seconds() / len(self.records)

    def worker_utilization(self) -> Optional[float]:
        """Fraction of the pool's wall-clock capacity spent simulating.

        ``sum(per-record run seconds) / (campaign wall * n_workers)``:
        1.0 means every worker simulated the whole time, values near
        ``1/n_workers`` mean the fan-out was effectively serial (spawn
        overhead, stragglers, or an empty queue).  ``None`` when it
        cannot be estimated.
        """
        if not self.records or self.wall_seconds <= 0 or self.n_workers < 1:
            return None
        busy = sum(record.wall_seconds for record in self.records)
        return busy / (self.wall_seconds * self.n_workers)

    def parallel_speedup(self) -> Optional[float]:
        """Estimated speedup vs serial execution of the same specs.

        The serial-equivalent time is the sum of per-record in-worker run
        times; the ratio against the campaign's wall clock estimates what
        the fan-out bought.  None when it cannot be estimated (no records
        or no wall time).
        """
        serial_equivalent = sum(r.wall_seconds for r in self.records)
        if not self.records or self.wall_seconds <= 0:
            return None
        return serial_equivalent / self.wall_seconds

    def render(self) -> str:
        """Human-readable summary: every run's Table II block + throughput."""
        lines = [
            f"campaign: {len(self.records)} runs, "
            f"{self.n_workers} worker(s), "
            f"{self.total_steps()} bits in {self.wall_seconds:.2f} s"
        ]
        if self.failures:
            lines[0] += f", {len(self.failures)} failed"
        hits = self.cache_hits()
        if hits:
            lines.append(
                f"result cache: {hits} of {len(self.records)} record(s) "
                f"replayed without simulation")
        if self.n_workers > 1:
            speedup = self.parallel_speedup()
            if speedup is not None:
                overhead = self.spawn_overhead_seconds()
                mean_overhead = self.mean_spawn_overhead_seconds()
                utilization = self.worker_utilization()
                utilization_text = (
                    f"{utilization:.0%}" if utilization is not None else "n/a")
                lines.append(
                    f"parallel speedup ~{speedup:.2f}x vs serial "
                    f"(spawn overhead {overhead:.2f} s total, "
                    f"{mean_overhead * 1000:.0f} ms mean "
                    f"across {len(self.records)} worker runs; "
                    f"worker utilization {utilization_text})")
                if speedup < 1.1:
                    mean_run = (sum(r.wall_seconds for r in self.records)
                                / len(self.records) if self.records else 0.0)
                    lines.append(
                        f"WARNING: parallel fan-out gained <1.1x over serial "
                        f"— mean spawn overhead {mean_overhead * 1000:.0f} ms "
                        f"vs mean run {mean_run * 1000:.0f} ms per spec "
                        f"(utilization {utilization_text}); these windows "
                        f"are too short to share out, use n_workers=1 or "
                        f"longer duration_bits")
        for record in self.records:
            lines.append("")
            cached = " (cached)" if record.cache_hit else ""
            lines.append(f"[{record.spec.name}] "
                         f"{record.steps_per_second:,.0f} steps/s "
                         f"on {record.worker}{cached}")
            lines.append(record.result.render())
            if record.snapshots:
                lines.append(f"  snapshots: {len(record.snapshots)} "
                             f"(every {record.spec.snapshot_every_bits} bits)")
        for failure in self.failures:
            lines.append("")
            lines.append(f"[{failure.spec.name}] FAILED ({failure.kind} "
                         f"after {failure.attempts} attempt(s)): "
                         f"{failure.error}")
        totals = self.metrics_totals()
        if totals is not None:
            from repro.obs.probe import render_totals

            lines.append("")
            lines.append("campaign-wide telemetry totals:")
            lines.append(render_totals(totals))
        return "\n".join(lines)


# -------------------------------------------------------------- execution

#: The worker's live flight recorder, reachable from its SIGTERM handler.
_active_flight: List[Any] = []


def _flush_flight_and_exit(signum: int, frame: Any) -> None:
    """SIGTERM handler of flight-recording workers.

    The parent is killing the worker (timeout, or a stolen lease): append
    a timeout checkpoint to the live recorder's log, then exit without
    unwinding the run loop, which is mid-bit.  ``flush`` writes through
    the log's raw file descriptor, so it is safe at any bytecode.
    """
    if _active_flight:
        try:
            _active_flight[-1].flush(reason="timeout")
        except OSError:
            pass
    os._exit(124)


def execute_spec(spec: ScenarioSpec,
                 flight_path: Optional[str] = None) -> RunRecord:
    """Build, run and measure one spec (the worker entry point).

    With ``flight_path`` a :class:`~repro.obs.flight.FlightRecorder` rides
    the run, appending its event log there so it survives hard crashes;
    an aborting exception (injected faults included) appends a final
    checkpoint before propagating, and a clean finish replaces the log
    with the complete dump.
    """
    setup = spec.build()
    probe = recorder = flight = None
    sim = getattr(setup, "sim", None)
    if spec.metrics and sim is not None:
        from repro.obs.probe import BusProbe
        from repro.obs.snapshot import SnapshotRecorder

        probe = BusProbe(sim)
        if spec.snapshot_every_bits:
            recorder = SnapshotRecorder(probe, spec.snapshot_every_bits)
            sim.add_node(recorder)
    if flight_path is not None and sim is not None:
        from repro.obs.flight import FlightRecorder

        flight = FlightRecorder(sim, autoflush_path=flight_path,
                                flush_every=32)
        # Crash-dump registry for the SIGTERM handler; drained in the
        # finally below, so no state survives into the next spec.
        _active_flight.append(flight)  # repro: noqa[RC301]
        # A checkpoint exists from t=0 on, so even a crash before the
        # first event write leaves a renderable post-mortem.
        flight.flush(reason="start")
    started = _time.perf_counter()
    try:
        result = setup.run(config=spec.run_config())
    except BaseException:
        if flight is not None:
            flight.flush(reason="abort")
        raise
    finally:
        if flight is not None:
            flight.close()
            if flight in _active_flight:
                _active_flight.remove(flight)  # repro: noqa[RC301]
    wall = _time.perf_counter() - started
    steps = getattr(sim, "time", spec.duration_bits)
    if probe is not None:
        result.metrics = probe.summary()
        probe.close()
    flight_dump = None
    if flight is not None:
        from repro.obs.flight import write_dump

        flight_dump = flight.dump(reason="complete")
        write_dump(flight_dump, flight_path)
    record = RunRecord(
        spec=spec,
        result=result,
        wall_seconds=wall,
        steps_per_second=steps / wall if wall > 0 else 0.0,
        worker=current_process().name,
        snapshots=list(recorder.snapshots) if recorder is not None else [],
        flight=flight_dump,
    )
    if sim is not None:
        sim.release_records()  # folded into the record; free it now
    return record


def _load_flight_dump(path: Optional[str]) -> Optional[Dict[str, Any]]:
    """Best-effort load of a worker's on-disk dump (None when absent)."""
    if not path or not os.path.exists(path):
        return None
    from repro.obs.flight import load_dump

    try:
        return load_dump(path)
    except (OSError, ValueError, ConfigurationError, json.JSONDecodeError):
        return None  # half-written or foreign file: no post-mortem


class Campaign:
    """Execute a list of :class:`ScenarioSpec`, in-process or on workers.

    ``n_workers=1`` without a timeout runs every spec in this process (no
    multiprocessing side effects, easier debugging).  Anything that needs
    process isolation — ``n_workers > 1`` with more than one spec to run,
    or any ``timeout_seconds`` — runs on a
    :class:`~repro.experiments.service.service.CampaignService` that
    :meth:`run` builds and drains itself: one scheduler, one journal
    format and one failure taxonomy for ``repro campaign run`` and
    ``repro serve``.

    Args:
        specs: The runs, in order.  Report records keep this order
            regardless of which worker finishes first (on workers, a
            spec listed twice runs once and fills both positions).
        n_workers: Worker process count; ``1`` runs in-process unless a
            timeout forces worker isolation.
        timeout_seconds: Per-spec wall-clock budget (the service's lease).
            Exceeding it kills the worker and spends one attempt.  Any
            timeout (even with ``n_workers=1``) runs specs in worker
            processes so they can be terminated.
        max_retries: How many times a failed spec is retried before it is
            recorded as a :class:`RunFailure` (0 = no retries).  Every
            kill (crash or timeout) spends one retry too.
        retry_backoff_seconds: Base of the exponential backoff between
            attempts (``base * 2**(attempt-1)`` seconds).
        checkpoint: Optional work-journal path (the format of ``repro
            serve --journal``); every state transition is appended as it
            happens, and :meth:`run` with ``resume=True`` replays the
            specs the journal already completed and re-runs the rest.
        flight_dir: Optional directory; every spec runs with a flight
            recorder autoflushing its dump to
            ``<flight_dir>/<key[:16]>.flight.json`` (``key`` is
            :func:`spec_digest`), so crashed, hung and fault-aborted
            workers leave a post-mortem the report attaches to the
            :class:`RunFailure`.
        telemetry: Stream live progress lines (spec start/finish/retry,
            per-worker heartbeats) into the journal for
            ``repro campaign watch``; requires ``checkpoint``.
        heartbeat_seconds: Worker heartbeat period, and the minimum
            spacing of per-worker heartbeat lines.
        result_cache: Optional
            :class:`~repro.experiments.resultcache.ResultCache`.  Specs
            whose scenario the cache's purity manifest certifies as pure
            are looked up before execution (a hit replays the stored
            record with ``cache_hit=True``) and stored after a
            successful fresh run.  Failures are never cached.
        store_fault: Optional
            :class:`~repro.faults.store.StoreWriteFault` injected into
            journal appends — proves the graceful-degradation contract
            (run completes, loud warning, no silent loss).

    Example:
        >>> from repro.experiments.campaign import Campaign, ScenarioSpec
        >>> specs = [ScenarioSpec("exp4", duration_bits=5_000, seed=s)
        ...          for s in range(4)]
        >>> report = Campaign(specs, n_workers=2).run()
        >>> len(report.results)
        4
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        n_workers: int = 1,
        timeout_seconds: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff_seconds: float = 0.1,
        checkpoint: Optional[str] = None,
        flight_dir: Optional[str] = None,
        telemetry: bool = False,
        heartbeat_seconds: float = 1.0,
        result_cache: Optional[Any] = None,
        store_fault: Optional[Any] = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"worker count must be positive, got {n_workers}")
        if timeout_seconds is not None and timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout must be positive, got {timeout_seconds}")
        if max_retries < 0:
            raise ConfigurationError(
                f"retry count must be non-negative, got {max_retries}")
        if retry_backoff_seconds < 0:
            raise ConfigurationError(
                f"retry backoff must be non-negative, "
                f"got {retry_backoff_seconds}")
        if telemetry and checkpoint is None:
            raise ConfigurationError(
                "telemetry streams into the work journal; "
                "give a checkpoint path")
        if heartbeat_seconds <= 0:
            raise ConfigurationError(
                f"heartbeat spacing must be positive, "
                f"got {heartbeat_seconds}")
        for spec in specs:
            scenario_factory(spec.scenario)  # fail fast on unknown names
            if spec.faults is not None:
                spec.faults.validate()
        self.specs = list(specs)
        self.n_workers = n_workers
        self.timeout_seconds = timeout_seconds
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.checkpoint = checkpoint
        self.flight_dir = flight_dir
        self.telemetry = telemetry
        self.heartbeat_seconds = heartbeat_seconds
        self.result_cache = result_cache
        #: Optional :class:`~repro.faults.store.StoreWriteFault` applied
        #: to journal appends (degradation testing).
        self.store_fault = store_fault

    def _backoff(self, attempt: int) -> float:
        return self.retry_backoff_seconds * (2 ** (attempt - 1))

    def run(self, resume: bool = False) -> CampaignReport:
        started = _time.perf_counter()
        if resume and self.checkpoint is None:
            raise ConfigurationError(
                "resume requires a checkpoint path")
        records: Dict[int, RunRecord] = {}
        failures: Dict[int, RunFailure] = {}
        journal = None
        if self.checkpoint is not None:
            from repro.experiments.service.journal import WorkJournal

            journal = WorkJournal(self.checkpoint, fault=self.store_fault)
            if resume:
                done = journal.load().records
                for index, spec in enumerate(self.specs):
                    record = done.get(spec_digest(spec))
                    if record is not None:
                        records[index] = record
            else:
                journal.reset()
        if self.flight_dir is not None:
            os.makedirs(self.flight_dir, exist_ok=True)
        if self.result_cache is not None:
            for index, spec in enumerate(self.specs):
                if index in records:
                    continue  # already satisfied by the journal
                cached = self.result_cache.get(spec)
                if cached is not None:
                    records[index] = cached
        pending = [index for index in range(len(self.specs))
                   if index not in records]
        isolated = bool(pending) and (self.timeout_seconds is not None or (
            self.n_workers > 1 and len(pending) > 1))
        telemetry = None
        if self.telemetry:
            from repro.experiments.telemetry import TelemetryWriter

            telemetry = TelemetryWriter(
                self.checkpoint, heartbeat_seconds=self.heartbeat_seconds)
            if not isolated:  # else the service announces it
                telemetry.campaign_started(
                    len(self.specs), len(pending), self.n_workers)
        if isolated:
            self._run_isolated(pending, records, failures)
        elif pending:
            self._run_serial(pending, records, failures, journal, telemetry)
        if self.result_cache is not None:
            for index in pending:
                record = records.get(index)
                if record is not None and not record.cache_hit:
                    self.result_cache.put(self.specs[index], record)
        wall = _time.perf_counter() - started
        if telemetry is not None:
            telemetry.campaign_finished(len(records), len(failures), wall)
        return CampaignReport(
            records=[records[index] for index in sorted(records)],
            failures=[failures[index] for index in sorted(failures)],
            n_workers=self.n_workers,
            wall_seconds=wall,
        )

    # ------------------------------------------------------- serial path

    def _run_serial(
        self,
        pending: Sequence[int],
        records: Dict[int, RunRecord],
        failures: Dict[int, RunFailure],
        journal: Optional[Any],
        telemetry: Optional[Any] = None,
    ) -> None:
        worker = current_process().name
        keys = {index: spec_digest(self.specs[index]) for index in pending}
        if journal is not None:
            for index in pending:
                journal.record_queued(keys[index], self.specs[index])
        for index in pending:
            spec = self.specs[index]
            key = keys[index]
            flight_path = flight_dump_path(self.flight_dir, key)
            attempt = 0
            while True:
                attempt += 1
                if journal is not None:
                    journal.record_leased(key, worker, attempt)
                if telemetry is not None:
                    telemetry.spec_started(spec.name, attempt, worker)
                spec_started = _time.perf_counter()
                try:
                    record = execute_spec(spec, flight_path=flight_path)
                except Exception as exc:  # deliberate: retry, then report
                    wall = _time.perf_counter() - spec_started
                    if attempt <= self.max_retries:
                        if telemetry is not None:
                            telemetry.spec_retry(spec.name, attempt, "error",
                                                 self._backoff(attempt))
                        _time.sleep(self._backoff(attempt))
                        continue
                    failure = RunFailure(
                        spec=spec, kind="error",
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt, wall_seconds=wall,
                        worker=worker,
                        flight=_load_flight_dump(flight_path),
                        flight_path=flight_path or "")
                    failures[index] = failure
                    if telemetry is not None:
                        telemetry.spec_finished(spec.name, attempt, worker,
                                                "error", wall)
                    if journal is not None:
                        journal.record_failed(key, failure)
                    break
                records[index] = record
                if telemetry is not None:
                    telemetry.spec_finished(spec.name, attempt, worker,
                                            "ok", record.wall_seconds)
                if journal is not None:
                    journal.record_done(key, record)
                break

    # ----------------------------------------------------- isolated path

    def _run_isolated(
        self,
        pending: Sequence[int],
        records: Dict[int, RunRecord],
        failures: Dict[int, RunFailure],
    ) -> None:
        """Run ``pending`` on a :class:`CampaignService` built and drained
        here: long-lived workers, lease expiry for the timeout, ``died``
        events for crashes, and the service's journal for persistence.

        Every kill spends one retry (``poison_threshold = max_retries +
        1``), and since kills are bounded that way the restart budget is
        sized so that no worker slot is ever retired.
        """
        import tempfile

        from repro.experiments.service.service import CampaignService

        keys = {index: spec_digest(self.specs[index]) for index in pending}
        unique = {keys[index]: self.specs[index] for index in pending}
        kill_budget = self.max_retries + 1
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as scratch:
            service = CampaignService(
                self.checkpoint or os.path.join(scratch, "journal.jsonl"),
                n_workers=min(self.n_workers, len(unique)),
                queue_capacity=len(unique),
                lease_seconds=self.timeout_seconds,
                heartbeat_seconds=self.heartbeat_seconds,
                max_retries=self.max_retries,
                retry_backoff_seconds=self.retry_backoff_seconds,
                poison_threshold=kill_budget,
                restart_backoff_seconds=0.0,
                max_worker_restarts=len(unique) * kill_budget,
                flight_dir=self.flight_dir,
                telemetry=self.telemetry,
                store_fault=self.store_fault)
            try:
                service.start()
                service.submit_specs(list(unique.values()))
                service.run_until_idle()
            finally:
                service.close()
        report = service.report()
        done = {spec_digest(record.spec): record for record in report.records}
        lost = {spec_digest(failure.spec): failure
                for failure in report.failures}
        for index in pending:
            key = keys[index]
            if key in done:
                records[index] = done[key]
            else:
                failures[index] = lost[key]


_register_builtin_scenarios()
