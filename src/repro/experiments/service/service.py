"""The supervised, queue-backed campaign service.

:class:`CampaignService` is the crash-tolerant execution substrate the
ROADMAP's "campaigns arrive concurrently" story needs: submissions flow
into a :class:`~repro.experiments.service.queue.BoundedWorkQueue`
(explicit backpressure), every state transition is journaled durably
(:class:`~repro.experiments.service.journal.WorkJournal`), and a
:class:`~repro.experiments.service.supervisor.WorkerPool` of long-lived
batched workers executes specs with heartbeat liveness, lease stealing,
bounded restarts and quarantine of specs that keep killing workers.
``repro serve`` runs on it, and so does every ``Campaign.run`` that needs
process isolation.

Guarantees:

* **exactly-once completion** — specs are keyed by content address; a
  killed parent resumed from its journal re-runs only work without a
  ``done`` entry, and duplicated results (a stolen lease whose worker
  finished anyway) are dropped on arrival;
* **no unbounded memory** — submissions beyond the queue bound are
  rejected atomically with
  :class:`~repro.experiments.service.queue.QueueFullError`;
* **graceful drain** — :meth:`request_drain` (wired to SIGTERM/SIGINT
  by ``repro serve``) stops leasing, lets in-flight specs finish,
  flushes the journal and stops the pool;
* **graceful degradation** — journal write failures (real or injected
  via ``store.write_failure``) warn loudly and cost only resumability,
  never results.

The service is single-threaded and cooperative: call :meth:`pump` when
one of ``pool.waitables()`` turns readable, and at least every
:meth:`wait_seconds` (the asyncio front end does; :meth:`run_until_idle`
wraps it for batch use).
"""

from __future__ import annotations

import os
import time as _time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.experiments.campaign import (
    CampaignReport,
    RunFailure,
    RunRecord,
    ScenarioSpec,
    _flight_evidence,
    flight_dump_path,
    scenario_factory,
    spec_digest,
)
from repro.experiments.service.journal import WorkJournal
from repro.experiments.service.queue import BoundedWorkQueue, QueueFullError
from repro.experiments.service.supervisor import WorkerEvent, WorkerPool

__all__ = ["CampaignService", "ServiceDrainingError", "QueueFullError"]


class ServiceDrainingError(ReproError):
    """A submission arrived while the service was draining."""


class CampaignService:
    """Supervised campaign execution over a durable work journal.

    Args:
        journal_path: The JSONL work journal (and, with ``telemetry``,
            the live-progress channel).  With ``resume=True`` an
            existing journal is folded first: completed specs replay
            from it, pending ones re-enter the queue.
        n_workers: Long-lived worker count.
        queue_capacity: Hard bound on queued (not yet leased) specs;
            submissions beyond it raise :class:`QueueFullError`.
        lease_seconds: Per-spec wall-clock lease before a worker is
            presumed hung and its work stolen (``None`` = no expiry).
        heartbeat_seconds: Worker heartbeat period.
        max_retries: Retries granted to a spec whose worker *reported*
            an error (crashes/hangs are governed by
            ``poison_threshold`` instead).
        retry_backoff_seconds: Base of the per-spec retry backoff.
        poison_threshold: A spec that killed this many workers (crash or
            stolen lease) is quarantined instead of being retried forever:
            it fails with the kind of its last kill (``"crash"`` or
            ``"timeout"``) and its flight dump attached.
        restart_backoff_seconds / max_worker_restarts: Worker restart
            policy (see :class:`WorkerPool`).
        flight_dir: Per-spec flight-recorder logs land here.
        telemetry: Stream live telemetry lines over the journal.
        result_cache: Optional content-addressed
            :class:`~repro.experiments.resultcache.ResultCache`; hits
            complete at submission time without touching a worker.
        store_fault: Optional injected store fault (degradation tests).
        resume: Fold an existing journal instead of truncating it.
    """

    def __init__(
        self,
        journal_path: str,
        n_workers: int = 2,
        queue_capacity: int = 256,
        lease_seconds: Optional[float] = 30.0,
        heartbeat_seconds: float = 0.5,
        max_retries: int = 1,
        retry_backoff_seconds: float = 0.1,
        poison_threshold: int = 2,
        restart_backoff_seconds: float = 0.1,
        max_worker_restarts: int = 3,
        flight_dir: Optional[str] = None,
        telemetry: bool = False,
        result_cache: Optional[Any] = None,
        store_fault: Optional[Any] = None,
        resume: bool = False,
    ) -> None:
        self.journal = WorkJournal(journal_path, fault=store_fault)
        self.queue = BoundedWorkQueue(queue_capacity)
        self.pool = WorkerPool(
            n_workers,
            heartbeat_seconds=heartbeat_seconds,
            lease_seconds=lease_seconds,
            restart_backoff_seconds=restart_backoff_seconds,
            max_worker_restarts=max_worker_restarts,
            flight_enabled=flight_dir is not None)
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.poison_threshold = poison_threshold
        self.flight_dir = flight_dir
        self.result_cache = result_cache
        self.draining = False
        self.drained = False

        self._specs: Dict[str, ScenarioSpec] = {}
        self._order: List[str] = []
        self._records: Dict[str, RunRecord] = {}
        self._failures: Dict[str, RunFailure] = {}
        self._attempts: Dict[str, int] = {}
        self._kills: Dict[str, int] = {}
        self._started_monotonic = _time.monotonic()

        self._telemetry: Optional[Any] = None
        if telemetry:
            from repro.experiments.telemetry import TelemetryWriter

            self._telemetry = TelemetryWriter(
                journal_path, heartbeat_seconds=heartbeat_seconds)

        if flight_dir is not None:
            os.makedirs(flight_dir, exist_ok=True)

        if resume:
            state = self.journal.load()
            self._specs.update(state.specs)
            self._order.extend(state.order)
            self._records.update(state.records)
            self._failures.update(state.failures)
            # Accepted-before-the-crash work re-enters outside the
            # submission bound (requeue never rejects): restarting must
            # not bounce a resume.  requeue() prepends, so walking the
            # pending list in reverse restores journal order.
            for key in reversed(state.pending()):
                self.queue.requeue(key, attempt=1)

    # --------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn the worker pool (idempotent per service instance)."""
        self.pool.start()

    def close(self) -> None:
        """Stop every worker without waiting for queued work."""
        self.pool.stop()

    def request_drain(self) -> None:
        """Stop leasing and accepting; in-flight specs keep running.

        Cooperative: keep calling :meth:`pump` (or let the server loop
        do it) until :meth:`is_idle`; then :meth:`finish_drain`.
        """
        self.draining = True

    def finish_drain(self) -> None:
        """Stop the pool and emit the final telemetry line."""
        self.pool.stop()
        self.drained = True
        if self._telemetry is not None:
            self._telemetry.campaign_finished(
                len(self._records), len(self._failures),
                _time.monotonic() - self._started_monotonic)

    # -------------------------------------------------------- submission

    def submit_specs(
            self, specs: Sequence[ScenarioSpec]) -> Dict[str, List[str]]:
        """Accept new work; returns keys grouped by disposition.

        (Named ``submit_specs`` rather than ``submit`` deliberately: the
        effect analyzer resolves unknown ``obj.submit()`` calls by name
        across the project, and this method journals — a generic name
        would taint every scenario that calls a ``submit`` method.)

        ``{"accepted": [...], "duplicate": [...], "completed": [...]}``
        — duplicates are keys already queued or in flight, completed
        ones already hold a terminal result (exactly-once dedupe).

        Raises :class:`QueueFullError` (nothing enqueued) on
        backpressure and :class:`ServiceDrainingError` while draining.
        """
        if self.draining:
            raise ServiceDrainingError(
                "service is draining; submissions are closed")
        accepted: List[str] = []
        duplicate: List[str] = []
        completed: List[str] = []
        new_specs: Dict[str, ScenarioSpec] = {}
        for spec in specs:
            scenario_factory(spec.scenario)  # fail fast on unknown names
            if spec.faults is not None:
                spec.faults.validate()
            key = spec_digest(spec)
            if key in self._records or key in self._failures:
                completed.append(key)
            elif key in self._specs or key in new_specs:
                duplicate.append(key)
            else:
                new_specs[key] = spec
        cached: Dict[str, RunRecord] = {}
        if self.result_cache is not None:
            for key, spec in new_specs.items():
                record = self.result_cache.get(spec)
                if record is not None:
                    cached[key] = record
        # Atomic backpressure check before anything is journaled.
        self.queue.submit([key for key in new_specs if key not in cached])
        # Queued and cache-settled specs interleave in submission order,
        # so report() order never depends on what the cache holds.
        for key, spec in new_specs.items():
            record = cached.get(key)
            if record is not None:
                spec = record.spec
            self._specs[key] = spec
            self._order.append(key)
            self.journal.record_queued(key, spec)
            if record is not None:
                self._settle_record(key, record)
            accepted.append(key)
        if self._telemetry is not None and accepted:
            self._telemetry.campaign_started(
                len(self._order), len(self.queue), self.n_workers)
        return {"accepted": accepted, "duplicate": duplicate,
                "completed": completed}

    # -------------------------------------------------------- scheduling

    def pump(self) -> None:
        """One cooperative scheduler step: poll, supervise, lease."""
        now = _time.monotonic()
        self.pool.tick_restarts(now)
        # WorkerPool.poll drains with zero-timeout Connection.poll calls
        # and never blocks; the service runs its scheduler inline by
        # design, so no executor hand-off is needed here.
        for event in self.pool.poll():  # repro: noqa[RC402]
            self._handle_event(event, now)
        for slot in self.pool.expired_leases(now):
            held = now - slot.leased_at
            key = self.pool.steal(slot, now)
            if key is not None and not self._settled(key):
                self._worker_killed(key, slot.name, slot.attempt,
                                    "timeout", held,
                                    "lease expired (worker hung or too "
                                    "slow); lease stolen", now)
        self._fail_stranded_work(now)
        if not self.draining:
            self._lease_ready_work(now)

    def is_idle(self) -> bool:
        """No queued work and no lease in flight."""
        return not self.queue and not self.pool.busy_slots()

    def wait_seconds(self, cadence: float) -> float:
        """How long a scheduler may wait for a worker between pumps:
        ``cadence`` (the period of the lease-expiry and heartbeat-silence
        checks), cut short by the earliest pending restart or retry
        backoff, so that work is not held back past its due time."""
        now = _time.monotonic()
        due = [at for at in (self.pool.next_respawn_at(),
                             self.queue.next_ready_at(after=now))
               if at is not None]
        return max(0.0, min([cadence] + [at - now for at in due]))

    def run_until_idle(self, poll_seconds: float = 0.02,
                       timeout: Optional[float] = None) -> bool:
        """Pump until idle; False when ``timeout`` elapsed first.

        Between pumps it waits for a worker message or exit, at most
        :meth:`wait_seconds` of ``poll_seconds``.
        """
        deadline = (None if timeout is None
                    else _time.monotonic() + timeout)
        while True:
            self.pump()
            if self.is_idle():
                return True
            if deadline is not None and _time.monotonic() > deadline:
                return False
            self.pool.wait_for_events(self.wait_seconds(poll_seconds))

    # ----------------------------------------------------- event handling

    def _settled(self, key: str) -> bool:
        return key in self._records or key in self._failures

    def _handle_event(self, event: WorkerEvent, now: float) -> None:
        if event.kind == "ok":
            if event.key is None or self._settled(event.key):
                return  # duplicate result from a stolen-but-alive lease
            record = RunRecord.from_dict(event.payload)
            record.spawn_overhead_seconds = max(
                0.0, event.held_seconds - record.wall_seconds)
            self._settle_record(event.key, record, worker=event.worker)
        elif event.kind == "error":
            if event.key is None or self._settled(event.key):
                return
            attempt = self._attempts.get(event.key, 1)
            if attempt <= self.max_retries:
                self._requeue(event.key, attempt + 1, now,
                              reason="error")
            else:
                self._settle_failure(event.key, RunFailure(
                    spec=self._specs[event.key], kind="error",
                    error=str(event.payload), attempts=attempt,
                    wall_seconds=event.held_seconds, worker=event.worker,
                    **_flight_evidence(self._flight_path(event.key))))
        elif event.kind == "died":
            if event.key is not None and not self._settled(event.key):
                self._worker_killed(
                    event.key, event.worker,
                    self._attempts.get(event.key, 1),
                    "crash", event.held_seconds,
                    f"worker died (exit code {event.payload}) while "
                    f"holding the lease", now)
        elif event.kind == "heartbeat":
            if self._telemetry is not None and event.key is not None:
                spec = self._specs.get(event.key)
                self._telemetry.heartbeat(
                    event.worker,
                    spec.name if spec is not None else event.key[:12],
                    float(event.payload))

    def _worker_killed(self, key: str, worker: str, attempt: int,
                       kind: str, wall: float, reason: str,
                       now: float) -> None:
        """A crash or a stolen lease (``kind`` ``"crash"`` or
        ``"timeout"``): requeue, or quarantine once the spec has used up
        its kill budget."""
        kills = self._kills.get(key, 0) + 1
        self._kills[key] = kills
        if kills >= self.poison_threshold:
            self._settle_failure(key, RunFailure(
                spec=self._specs[key], kind=kind,
                error=(f"quarantined after {kills} kill(s); "
                       f"last: {reason}"),
                attempts=attempt, wall_seconds=wall, worker=worker,
                **_flight_evidence(self._flight_path(key))))
        else:
            self._requeue(key, attempt + 1, now, reason=kind)

    def _requeue(self, key: str, attempt: int, now: float,
                 reason: str) -> None:
        delay = self.retry_backoff_seconds * (2 ** max(0, attempt - 2))
        self.queue.requeue(key, attempt=attempt, ready_at=now + delay)
        if self._telemetry is not None:
            spec = self._specs[key]
            self._telemetry.spec_retry(spec.name, attempt - 1, reason,
                                       delay)

    def _settle_record(self, key: str, record: RunRecord,
                       worker: str = "") -> None:
        self._records[key] = record
        self.journal.record_done(key, record)
        if self._telemetry is not None:
            self._telemetry.spec_finished(
                record.spec.name, self._attempts.get(key, 1),
                worker or record.worker, "ok", record.wall_seconds)
        if (self.result_cache is not None and not record.cache_hit):
            self.result_cache.put(record.spec, record)

    def _settle_failure(self, key: str, failure: RunFailure) -> None:
        self._failures[key] = failure
        self.journal.record_failed(key, failure)
        if self._telemetry is not None:
            self._telemetry.spec_finished(
                failure.spec.name, failure.attempts, failure.worker,
                failure.kind, failure.wall_seconds)

    def _fail_stranded_work(self, now: float) -> None:
        """All slots retired with work still queued: fail it cleanly."""
        if not self.queue:
            return
        if any(not slot.retired for slot in self.pool.slots):
            return
        while True:
            item = self.queue.pop_ready(now)
            if item is None and not self.queue:
                break
            if item is None:  # only backoff-delayed items left
                item = self.queue.pop_ready(float("inf"))
                if item is None:
                    break
            self._settle_failure(item.key, RunFailure(
                spec=self._specs[item.key], kind="crash",
                error="worker pool exhausted (every slot exceeded its "
                      "restart budget)",
                attempts=item.attempt))

    def _lease_ready_work(self, now: float) -> None:
        for slot in self.pool.idle_slots():
            item = self.queue.pop_ready(now)
            if item is None:
                break
            key = item.key
            self._attempts[key] = item.attempt
            flight_path = self._flight_path(key)
            if not self.pool.lease(slot, key, self._specs[key],
                                   item.attempt, flight_path):
                self.queue.requeue(key, item.attempt, item.ready_at)
                continue
            self.journal.record_leased(key, slot.name, item.attempt)
            if self._telemetry is not None:
                self._telemetry.spec_started(
                    self._specs[key].name, item.attempt, slot.name)

    def _flight_path(self, key: str) -> Optional[str]:
        return flight_dump_path(self.flight_dir, key)

    # ---------------------------------------------------------- reporting

    def report(self) -> CampaignReport:
        """The merged report over everything settled so far, in
        submission order — byte-compatible with ``Campaign.run()``'s."""
        return CampaignReport(
            records=[self._records[key] for key in self._order
                     if key in self._records],
            failures=[self._failures[key] for key in self._order
                      if key in self._failures],
            n_workers=self.n_workers,
            wall_seconds=_time.monotonic() - self._started_monotonic)

    def status(self) -> Dict[str, Any]:
        """A JSON-safe snapshot for ``repro campaign status``."""
        workers = []
        for slot in self.pool.slots:
            if slot.retired:
                state = "retired"
            elif slot.proc is None:
                state = "restarting"
            elif slot.busy_key is not None:
                state = "busy"
            elif slot.ready:
                state = "idle"
            else:
                state = "starting"
            spec = self._specs.get(slot.busy_key or "")
            workers.append({
                "name": slot.name, "state": state,
                "pid": slot.proc.pid if slot.proc is not None else None,
                "spec": spec.name if spec is not None else None,
                "restarts": slot.restarts,
            })
        return {
            "submitted": len(self._order),
            "completed": len(self._records),
            "failed": len(self._failures),
            "queued": len(self.queue),
            "queue_capacity": self.queue.capacity,
            "in_flight": len(self.pool.busy_slots()),
            "draining": self.draining,
            "drained": self.drained,
            "journal_path": self.journal.path,
            "journal_degraded": self.journal.degraded,
            "journal_write_failures": self.journal.write_failures,
            "workers": workers,
            "uptime_seconds": round(
                _time.monotonic() - self._started_monotonic, 3),
        }
