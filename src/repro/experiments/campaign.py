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
* a :class:`Campaign` fans a list of specs out over worker processes
  (serial fallback for ``n_workers=1``) and collects a JSON-serializable
  :class:`CampaignReport`.

Determinism guarantee: workers re-seed the ``random`` module from
``spec.seed`` before building, and factories that take a ``seed`` parameter
receive it explicitly — so a campaign run serially and a campaign run with
any worker count produce bit-identical :class:`ExperimentResult` payloads.
Only the timing fields (wall seconds, steps/s, worker name) differ.

Robustness guarantee: a worker that raises, crashes hard, or exceeds the
per-spec wall-clock timeout does not abort the fan-out.  The spec is
retried with exponential backoff up to ``max_retries`` times; a spec that
never completes becomes a structured :class:`RunFailure` in the report.
With a ``checkpoint`` path every completed record is persisted
incrementally (JSONL), and ``run(resume=True)`` skips the specs the
checkpoint already holds.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import time as _time
from dataclasses import dataclass, field
from multiprocessing import current_process, get_context
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentResult
from repro.faults.plan import FaultPlan

#: Bump when the report dict layout changes incompatibly.
#: v2: reports carry a ``failures`` list; specs carry a ``faults`` plan.
#: v3: records and failures carry optional flight-recorder dumps.
SCHEMA_VERSION = 3

#: A factory takes keyword params and returns an object with
#: ``run(duration_bits) -> ExperimentResult`` (an ``ExperimentSetup``).
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

    def run(self) -> ExperimentResult:
        """Build and run the scenario; convenience for one-off use."""
        return self.build().run(config=self.run_config())

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
    """Canonical identity of a spec (checkpoint/resume bookkeeping)."""
    return json.dumps(spec.to_dict(), sort_keys=True)


# ---------------------------------------------------------------- records

@dataclass
class RunRecord:
    """One executed spec: the result plus per-run throughput metrics.

    ``wall_seconds`` / ``steps_per_second`` / ``worker`` /
    ``spawn_overhead_seconds`` are *timing metadata* — excluded from the
    determinism contract and from :meth:`CampaignReport.payload_equal`
    comparisons.  ``spawn_overhead_seconds`` is the parallel fan-out tax:
    parent-observed wall time minus the worker's in-process run time
    (process spawn, import replay, result pickling); always 0.0 on the
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
#: ``"poison"`` is produced only by the campaign service's supervisor:
#: a spec that killed enough workers to be quarantined.
FAILURE_KINDS = ("error", "crash", "timeout", "poison")


@dataclass
class RunFailure:
    """One spec that never completed: what happened, after how many tries.

    ``kind`` is ``"error"`` (the worker raised), ``"crash"`` (the worker
    process died without reporting), ``"timeout"`` (the per-spec
    wall-clock budget ran out and the worker was terminated) or
    ``"poison"`` (the campaign service quarantined a spec that kept
    killing its workers).
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
                        f"(utilization {utilization_text}); use n_workers=1, "
                        f"longer duration_bits, or the batched campaign "
                        f"service (`repro serve`)")
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


def _subprocess_worker(conn: Any, spec: ScenarioSpec,
                       flight_path: Optional[str] = None) -> None:
    """Child-process entry: run one spec, report through the pipe."""
    if flight_path is not None:
        import signal

        signal.signal(signal.SIGTERM, _flush_flight_and_exit)
    try:
        record = execute_spec(spec, flight_path=flight_path)
        conn.send(("ok", record.to_dict()))
    except Exception as exc:  # deliberate: any worker failure is reported
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _load_flight_dump(path: Optional[str]) -> Optional[Dict[str, Any]]:
    """Best-effort load of a worker's on-disk dump (None when absent)."""
    if not path or not os.path.exists(path):
        return None
    from repro.obs.flight import load_dump

    try:
        return load_dump(path)
    except (OSError, ValueError, ConfigurationError, json.JSONDecodeError):
        return None  # half-written or foreign file: no post-mortem


class _Checkpoint:
    """Incremental JSONL persistence of finished specs (single writer).

    One line per finished spec: ``{"type": "record"|"failure", "key":
    <spec_key>, "schema_version": N, ...payload...}``.  A truncated
    trailing line (parent died mid-write) is skipped on load, so resume
    survives its own crashes; a parseable line stamped with a *newer*
    schema version is a clean error (the file belongs to a newer build),
    never a silent misread.

    Durability degrades gracefully: an append that raises ``OSError``
    (disk full, permissions, or an injected ``store.write_failure``
    fault) is announced with a loud :class:`RuntimeWarning` and counted
    in :attr:`write_failures`, but never aborts the campaign — the
    results still reach the in-memory report; only resumability is lost.
    """

    def __init__(self, path: str, fault: Optional[Any] = None) -> None:
        self.path = os.fspath(path)
        self.fault = fault
        self.write_failures = 0

    def reset(self) -> None:
        with open(self.path, "w", encoding="utf-8"):
            pass

    def _append(self, entry: Dict[str, Any]) -> None:
        import warnings

        try:
            if self.fault is not None:
                self.fault.before_write(f"checkpoint {self.path}")
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
                handle.flush()
        except OSError as exc:
            self.write_failures += 1
            warnings.warn(
                f"checkpoint write to {self.path!r} failed ({exc}); the "
                f"campaign continues but this entry will NOT be resumable "
                f"({self.write_failures} write failure(s) so far)",
                RuntimeWarning, stacklevel=3)

    def append_record(self, record: RunRecord) -> None:
        self._append({"type": "record", "key": spec_key(record.spec),
                      "schema_version": SCHEMA_VERSION,
                      "record": record.to_dict()})

    def append_failure(self, failure: RunFailure) -> None:
        self._append({"type": "failure", "key": spec_key(failure.spec),
                      "schema_version": SCHEMA_VERSION,
                      "failure": failure.to_dict()})

    def load_records(self) -> Dict[str, RunRecord]:
        """Completed records by spec key (failures are always re-run).

        Raises :class:`~repro.errors.ConfigurationError` when the file
        carries entries stamped by a newer schema version.
        """
        if not os.path.exists(self.path):
            return {}
        records: Dict[str, RunRecord] = {}
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a previous crash
                if not isinstance(entry, dict):
                    continue
                version = entry.get("schema_version")
                if (entry.get("type") in ("record", "failure")
                        and isinstance(version, int)
                        and version > SCHEMA_VERSION):
                    raise ConfigurationError(
                        f"checkpoint {self.path!r} line {number} was "
                        f"written by schema v{version}; this build reads "
                        f"v{SCHEMA_VERSION} — refusing to resume from a "
                        f"newer format")
                if entry.get("type") == "record" and "key" in entry:
                    records[entry["key"]] = RunRecord.from_dict(
                        entry["record"])
        return records


class Campaign:
    """Execute a list of :class:`ScenarioSpec` over worker processes.

    Args:
        specs: The runs, in order.  Report records keep this order
            regardless of which worker finishes first.
        n_workers: Process count; ``1`` runs everything in-process (no
            multiprocessing import-side effects, easier debugging) unless
            a timeout forces worker isolation.
        timeout_seconds: Per-spec wall-clock budget.  Exceeding it kills
            the worker and counts as one failed attempt.  Any timeout
            (even with ``n_workers=1``) runs specs in subprocesses so
            they can be terminated.
        max_retries: How many times a failed spec is retried before it is
            recorded as a :class:`RunFailure` (0 = no retries).
        retry_backoff_seconds: Base of the exponential backoff between
            attempts (``base * 2**(attempt-1)`` seconds).
        checkpoint: Optional JSONL path; every finished spec is persisted
            immediately, and :meth:`run` with ``resume=True`` skips specs
            the checkpoint already completed.
        flight_dir: Optional directory; every spec runs with a flight
            recorder autoflushing its dump to
            ``<flight_dir>/<index>_<spec>.flight.json``, so crashed,
            hung and fault-aborted workers leave a post-mortem the
            report attaches to the :class:`RunFailure`.
        telemetry: Stream live progress lines (spec start/finish/retry,
            per-worker heartbeats) over the checkpoint channel for
            ``repro campaign watch``; requires ``checkpoint``.
        heartbeat_seconds: Minimum spacing of per-worker heartbeat lines.
        result_cache: Optional
            :class:`~repro.experiments.resultcache.ResultCache`.  Specs
            whose scenario the cache's purity manifest certifies as pure
            are looked up before execution (a hit replays the stored
            record with ``cache_hit=True``) and stored after a
            successful fresh run.  Failures are never cached.
        store_fault: Optional
            :class:`~repro.faults.store.StoreWriteFault` injected into
            checkpoint appends — proves the graceful-degradation
            contract (run completes, loud warning, no silent loss).

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
                "telemetry streams over the checkpoint channel; "
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
        #: to checkpoint appends (degradation testing).
        self.store_fault = store_fault

    def _backoff(self, attempt: int) -> float:
        return self.retry_backoff_seconds * (2 ** (attempt - 1))

    def _flight_path(self, index: int) -> Optional[str]:
        if self.flight_dir is None:
            return None
        safe = self.specs[index].name.replace(os.sep, "_").replace("#", "_")
        return os.path.join(self.flight_dir, f"{index:03d}_{safe}.flight.json")

    def run(self, resume: bool = False) -> CampaignReport:
        started = _time.perf_counter()
        checkpoint = (_Checkpoint(self.checkpoint, fault=self.store_fault)
                      if self.checkpoint is not None else None)
        if resume and checkpoint is None:
            raise ConfigurationError(
                "resume requires a checkpoint path")
        records: Dict[int, RunRecord] = {}
        failures: Dict[int, RunFailure] = {}
        if checkpoint is not None and resume:
            done = checkpoint.load_records()
            for index, spec in enumerate(self.specs):
                key = spec_key(spec)
                if key in done:
                    records[index] = done[key]
        elif checkpoint is not None:
            checkpoint.reset()
        if self.flight_dir is not None:
            os.makedirs(self.flight_dir, exist_ok=True)
        telemetry = None
        if self.telemetry:
            from repro.experiments.telemetry import TelemetryWriter

            telemetry = TelemetryWriter(
                self.checkpoint, heartbeat_seconds=self.heartbeat_seconds)
        if self.result_cache is not None:
            for index, spec in enumerate(self.specs):
                if index in records:
                    continue  # already satisfied by the checkpoint
                cached = self.result_cache.get(spec)
                if cached is not None:
                    records[index] = cached
        pending = [index for index in range(len(self.specs))
                   if index not in records]
        if telemetry is not None:
            telemetry.campaign_started(
                len(self.specs), len(pending), self.n_workers)
        if pending:
            serial_ok = self.timeout_seconds is None
            if serial_ok and (self.n_workers == 1 or len(pending) <= 1):
                self._run_serial(pending, records, failures, checkpoint,
                                 telemetry)
            else:
                self._run_processes(pending, records, failures, checkpoint,
                                    telemetry)
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
        checkpoint: Optional[_Checkpoint],
        telemetry: Optional[Any] = None,
    ) -> None:
        worker = current_process().name
        for index in pending:
            spec = self.specs[index]
            flight_path = self._flight_path(index)
            attempt = 0
            while True:
                attempt += 1
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
                    if checkpoint is not None:
                        checkpoint.append_failure(failure)
                    break
                records[index] = record
                if telemetry is not None:
                    telemetry.spec_finished(spec.name, attempt, worker,
                                            "ok", record.wall_seconds)
                if checkpoint is not None:
                    checkpoint.append_record(record)
                break

    # ---------------------------------------------------- process path

    def _run_processes(
        self,
        pending: Sequence[int],
        records: Dict[int, RunRecord],
        failures: Dict[int, RunFailure],
        checkpoint: Optional[_Checkpoint],
        telemetry: Optional[Any] = None,
    ) -> None:
        """Process-per-spec scheduler with crash/timeout detection.

        Unlike ``Pool.map`` this can terminate a hung worker and notice a
        dead one: each spec runs in its own process reporting through a
        pipe, and the parent polls for results, deaths and deadline
        overruns, requeuing failed specs with exponential backoff.
        """
        ctx = get_context()
        workers = min(self.n_workers, len(pending))
        #: (spec index, attempt number, earliest start monotonic time)
        ready: List[Tuple[int, int, float]] = [
            (index, 1, 0.0) for index in pending]
        running: Dict[int, Tuple[Any, Any, int, float]] = {}

        def finish(index: int, kind: str, message: str,
                   attempt: int, wall: float, worker: str) -> None:
            spec_name = self.specs[index].name
            if attempt <= self.max_retries:
                if telemetry is not None:
                    telemetry.spec_retry(spec_name, attempt, kind,
                                         self._backoff(attempt))
                ready.append((index, attempt + 1,
                              _time.monotonic() + self._backoff(attempt)))
                return
            flight_path = self._flight_path(index)
            failure = RunFailure(
                spec=self.specs[index], kind=kind, error=message,
                attempts=attempt, wall_seconds=wall, worker=worker,
                flight=_load_flight_dump(flight_path),
                flight_path=flight_path or "")
            failures[index] = failure
            if telemetry is not None:
                telemetry.spec_finished(spec_name, attempt, worker, kind,
                                        wall)
            if checkpoint is not None:
                checkpoint.append_failure(failure)

        while ready or running:
            now = _time.monotonic()
            progressed = False
            while len(running) < workers:
                eligible = [item for item in ready if item[2] <= now]
                if not eligible:
                    break
                item = min(eligible)
                ready.remove(item)
                index, attempt, _ = item
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_subprocess_worker,
                    args=(child_conn, self.specs[index],
                          self._flight_path(index)),
                    name=f"campaign-{index}-try{attempt}")
                proc.start()
                child_conn.close()
                running[index] = (proc, parent_conn, attempt,
                                  _time.monotonic())
                if telemetry is not None:
                    telemetry.spec_started(self.specs[index].name, attempt,
                                           proc.name)
                progressed = True

            for index in list(running):
                proc, conn, attempt, launch_time = running[index]
                worker_died = not proc.is_alive()
                payload: Optional[Tuple[str, Any]] = None
                if conn.poll():
                    try:
                        payload = conn.recv()
                    except (EOFError, OSError):
                        payload = None
                wall = _time.monotonic() - launch_time
                if payload is not None:
                    proc.join()
                    conn.close()
                    del running[index]
                    progressed = True
                    status, body = payload
                    if status == "ok":
                        record = RunRecord.from_dict(body)
                        # Parent-observed wall minus the worker's own run
                        # time = spawn/import/pickling tax of the fan-out.
                        record.spawn_overhead_seconds = max(
                            0.0, wall - record.wall_seconds)
                        records[index] = record
                        if telemetry is not None:
                            telemetry.spec_finished(
                                record.spec.name, attempt, proc.name,
                                "ok", record.wall_seconds)
                        if checkpoint is not None:
                            checkpoint.append_record(record)
                    else:
                        finish(index, "error", str(body), attempt, wall,
                               proc.name)
                elif worker_died:
                    proc.join()
                    conn.close()
                    del running[index]
                    progressed = True
                    finish(index, "crash",
                           f"worker exited with code {proc.exitcode} "
                           f"without reporting a result",
                           attempt, wall, proc.name)
                elif telemetry is not None and (
                        self.timeout_seconds is None
                        or wall <= self.timeout_seconds):
                    # Still running within budget: sign of life (the
                    # writer rate-limits to one line per worker/second).
                    telemetry.heartbeat(proc.name, self.specs[index].name,
                                        wall)
                if (payload is None and not worker_died
                        and self.timeout_seconds is not None
                        and wall > self.timeout_seconds):
                    proc.terminate()
                    proc.join()
                    conn.close()
                    del running[index]
                    progressed = True
                    finish(index, "timeout",
                           f"exceeded the {self.timeout_seconds} s "
                           f"per-spec timeout and was terminated",
                           attempt, wall, proc.name)

            if not progressed:
                _time.sleep(0.01)


_register_builtin_scenarios()
