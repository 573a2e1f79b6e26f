"""Long-lived batched workers with heartbeat liveness and supervision.

A fixed pool of **long-lived workers**, each a looping process that
receives spec dicts over its pipe, runs them through the same
:func:`~repro.experiments.campaign.execute_spec` entry point the serial
campaign uses, and reports results — so the spawn tax is paid once per
worker, not once per spec, and determinism is untouched
(``execute_spec`` re-seeds from the spec before every build).  Both
``repro serve`` and every ``repro campaign run`` that needs process
isolation run on this pool.

Liveness is layered:

* every worker runs a daemon **heartbeat thread** streaming
  ``("heartbeat", key, elapsed)`` messages while a spec is in flight —
  the supervisor forwards them to the telemetry channel (PR 7's
  ``repro campaign watch`` renders them) and tracks last-seen times;
* a worker whose **process died** is detected immediately
  (``Process.is_alive``);
* a worker that stops heartbeating (wedged interpreter, SIGSTOP) or
  holds a **lease past its expiry** is presumed hung: the supervisor
  terminates it so its lease can be stolen.

Dead and hung workers are **restarted with bounded exponential
backoff**; a slot that keeps dying is retired so a poisoned environment
cannot spin the supervisor forever.

The worker loop deliberately catches *every* ``Exception`` (injected
faults included) and reports it as a structured error — the RC203 fault
boundary extends to this function — so one chaotic spec degrades to a
failure record instead of a dead worker.
"""

from __future__ import annotations

import os
import threading
import time as _time
from dataclasses import dataclass
from multiprocessing import current_process, get_context
from multiprocessing.connection import wait as wait_ready
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.campaign import (
    ScenarioSpec,
    _flush_flight_and_exit,
    execute_spec,
)

#: Worker -> parent message kinds.
WORKER_MESSAGE_KINDS = ("ready", "heartbeat", "ok", "error")


def _pool_worker(conn: Any, heartbeat_seconds: float,
                 flight_enabled: bool) -> None:
    """Worker-process entry: loop over leased specs until told to stop."""
    if flight_enabled:
        import signal

        # A stolen lease (hang/expiry) terminates us mid-bit: the handler
        # appends a timeout checkpoint to the flight log, then exits.
        signal.signal(signal.SIGTERM, _flush_flight_and_exit)

    send_lock = threading.Lock()
    #: Guards ``current`` — written by the spec loop, read by the
    #: heartbeat thread (RC401: without it a torn read pairs a fresh key
    #: with the previous spec's start time, inflating ``elapsed``).
    state_lock = threading.Lock()
    current: Dict[str, Any] = {"key": None, "started": 0.0}
    stopping = threading.Event()

    def _send(message: Tuple[Any, ...]) -> bool:
        try:
            with send_lock:
                conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            return False  # parent is gone; nothing left to report to

    def _beat() -> None:
        while not stopping.wait(heartbeat_seconds):
            with state_lock:
                key = current["key"]
                started = current["started"]
            if key is None:
                continue
            elapsed = _time.monotonic() - started
            if not _send(("heartbeat", key, elapsed)):
                return

    parent_pid = os.getppid()

    def _orphaned() -> bool:
        # Workers forked later inherit copies of this pipe's parent end,
        # so a killed parent does not reliably show up as EOF here.
        return os.getppid() != parent_pid

    threading.Thread(target=_beat, daemon=True).start()
    _send(("ready", current_process().name))
    try:
        while True:
            try:
                if not conn.poll(heartbeat_seconds):
                    if _orphaned():
                        break  # parent died; exit rather than orphan
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died; exit rather than orphan
            if message[0] == "stop":
                break
            _, key, spec_dict, flight_path = message
            spec = ScenarioSpec.from_dict(spec_dict)
            with state_lock:
                current["started"] = _time.monotonic()
                current["key"] = key
            try:
                record = execute_spec(spec, flight_path=flight_path)
                reply = ("ok", key, record.to_dict())
            except Exception as exc:  # deliberate: the RC203 boundary
                reply = ("error", key, f"{type(exc).__name__}: {exc}")
            with state_lock:
                current["key"] = None
            if _orphaned() or not _send(reply):
                break
    finally:
        stopping.set()
        conn.close()


@dataclass
class WorkerEvent:
    """One message the pool surfaced to the scheduler."""

    kind: str  # "ready" | "heartbeat" | "ok" | "error" | "died"
    worker: str
    key: Optional[str] = None
    payload: Any = None
    #: Parent-observed seconds since ``key`` was leased ("ok", "error"
    #: and "died" events that carry a lease; 0.0 otherwise).
    held_seconds: float = 0.0


class WorkerSlot:
    """Parent-side handle over one pool position."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Optional[Any] = None
        self.conn: Optional[Any] = None
        self.name = f"svc-w{index}"
        self.ready = False
        #: Journal key of the leased spec (None = idle).
        self.busy_key: Optional[str] = None
        self.attempt = 0
        self.flight_path: Optional[str] = None
        self.leased_at = 0.0
        self.last_seen = 0.0
        self.restarts = 0
        self.retired = False
        self.respawn_at = 0.0

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    @property
    def idle(self) -> bool:
        return (self.alive and self.ready and self.busy_key is None
                and not self.retired)


class WorkerPool:
    """Spawns, monitors, restarts and retires the long-lived workers.

    Args:
        n_workers: Pool size.
        heartbeat_seconds: Worker heartbeat period; a busy worker silent
            for ``heartbeat_timeout`` (default ``4 x`` the period, min
            2 s) is presumed wedged.
        lease_seconds: Per-spec wall-clock lease.  A worker holding a
            lease past expiry is terminated and the lease stolen.
            ``None`` disables expiry (hangs are then only caught by
            heartbeat silence or process death).
        restart_backoff_seconds: Base of the per-slot exponential
            restart backoff.
        max_worker_restarts: Restarts granted to each slot before it is
            retired.
        flight_enabled: Workers install the SIGTERM flight-flush handler
            (campaigns running with a flight directory).
    """

    def __init__(
        self,
        n_workers: int,
        heartbeat_seconds: float = 0.5,
        lease_seconds: Optional[float] = 30.0,
        restart_backoff_seconds: float = 0.1,
        max_worker_restarts: int = 3,
        flight_enabled: bool = False,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        self.n_workers = n_workers
        self.heartbeat_seconds = heartbeat_seconds
        self.lease_seconds = lease_seconds
        self.restart_backoff_seconds = restart_backoff_seconds
        self.max_worker_restarts = max_worker_restarts
        self.flight_enabled = flight_enabled
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else max(4 * heartbeat_seconds, 2.0))
        self._ctx = get_context()
        self.slots = [WorkerSlot(index) for index in range(n_workers)]
        self.total_restarts = 0

    # ----------------------------------------------------------- spawning

    def start(self) -> None:
        for slot in self.slots:
            self._spawn(slot)

    def _spawn(self, slot: WorkerSlot) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_conn, self.heartbeat_seconds, self.flight_enabled),
            name=f"{slot.name}-gen{slot.restarts}",
            daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.ready = False
        slot.busy_key = None
        slot.attempt = 0
        slot.last_seen = _time.monotonic()

    def tick_restarts(self, now: float) -> None:
        """Respawn slots whose backoff has elapsed."""
        for slot in self.slots:
            if (slot.proc is None and not slot.retired
                    and slot.respawn_at <= now):
                self._spawn(slot)

    def _schedule_restart(self, slot: WorkerSlot, now: float) -> None:
        slot.proc = None
        slot.conn = None
        slot.ready = False
        slot.busy_key = None
        if slot.restarts >= self.max_worker_restarts:
            slot.retired = True
            return
        delay = self.restart_backoff_seconds * (2 ** slot.restarts)
        slot.restarts += 1
        self.total_restarts += 1
        slot.respawn_at = now + delay

    # ------------------------------------------------------------ leasing

    def idle_slots(self) -> List[WorkerSlot]:
        return [slot for slot in self.slots if slot.idle]

    def busy_slots(self) -> List[WorkerSlot]:
        return [slot for slot in self.slots if slot.busy_key is not None]

    def live_slots(self) -> List[WorkerSlot]:
        return [slot for slot in self.slots
                if not slot.retired and (slot.alive or slot.proc is None)]

    def lease(self, slot: WorkerSlot, key: str, spec: ScenarioSpec,
              attempt: int, flight_path: Optional[str] = None) -> bool:
        """Hand ``spec`` to an idle worker; False when the send failed
        (the worker died between poll and lease — caller requeues)."""
        now = _time.monotonic()
        try:
            assert slot.conn is not None
            slot.conn.send(("run", key, spec.to_dict(), flight_path))
        except (OSError, ValueError, BrokenPipeError):
            self._schedule_restart(slot, now)
            return False
        slot.busy_key = key
        slot.attempt = attempt
        slot.flight_path = flight_path
        slot.leased_at = now
        slot.last_seen = now
        return True

    # ------------------------------------------------------------ polling

    def poll(self) -> List[WorkerEvent]:
        """Drain every worker pipe; returns events in arrival order.

        A dead worker (process gone, or pipe EOF with a lease held)
        surfaces exactly one ``"died"`` event carrying the orphaned key;
        the slot is scheduled for a backoff restart.
        """
        events: List[WorkerEvent] = []
        now = _time.monotonic()
        for slot in self.slots:
            conn = slot.conn
            if conn is None:
                continue
            broken = False
            while True:
                try:
                    # Zero-timeout poll returns immediately and recv only
                    # runs once data is confirmed buffered, so neither
                    # stalls the (single-threaded) event loop above.
                    if not conn.poll():  # repro: noqa[RC402]
                        break
                    message = conn.recv()  # repro: noqa[RC402]
                except (EOFError, OSError):
                    broken = True
                    break
                slot.last_seen = now
                kind = message[0]
                if kind == "ready":
                    slot.ready = True
                    events.append(WorkerEvent("ready", slot.name))
                elif kind == "heartbeat":
                    events.append(WorkerEvent(
                        "heartbeat", slot.name, key=message[1],
                        payload=message[2]))
                elif kind in ("ok", "error"):
                    key = message[1]
                    held = 0.0
                    if key == slot.busy_key:
                        slot.busy_key = None
                        slot.flight_path = None
                        held = now - slot.leased_at
                    events.append(WorkerEvent(
                        kind, slot.name, key=key, payload=message[2],
                        held_seconds=held))
            if broken or (slot.proc is not None and not slot.proc.is_alive()):
                orphan = slot.busy_key
                exitcode = slot.proc.exitcode if slot.proc else None
                if slot.proc is not None:
                    # Bounded reap of an already-dead child (<= 1 s, rare).
                    slot.proc.join(timeout=1.0)  # repro: noqa[RC402]
                events.append(WorkerEvent(
                    "died", slot.name, key=orphan, payload=exitcode,
                    held_seconds=(now - slot.leased_at
                                  if orphan is not None else 0.0)))
                self._schedule_restart(slot, now)
        return events

    def wait_for_events(self, timeout: float) -> None:
        """Block until a worker pipe has data or a worker exits, at most
        ``timeout`` seconds (a batch caller's sleep between pumps)."""
        waitables = []
        for slot in self.slots:
            if slot.conn is not None:
                waitables.append(slot.conn)
            if slot.proc is not None:
                waitables.append(slot.proc.sentinel)
        if waitables:
            wait_ready(waitables, timeout)
        else:
            _time.sleep(timeout)

    # ----------------------------------------------------------- liveness

    def expired_leases(self, now: float) -> List[WorkerSlot]:
        """Busy slots whose lease expired or whose heartbeats went
        silent — candidates for termination + work stealing."""
        suspects = []
        for slot in self.busy_slots():
            if not slot.alive:
                continue  # poll() will surface the death
            held = now - slot.leased_at
            silent = now - slot.last_seen
            if self.lease_seconds is not None and held > self.lease_seconds:
                suspects.append(slot)
            elif silent > self.heartbeat_timeout:
                suspects.append(slot)
        return suspects

    def steal(self, slot: WorkerSlot, now: float) -> Optional[str]:
        """Terminate a hung worker and reclaim its lease key."""
        key = slot.busy_key
        if slot.proc is not None:
            # Recovery path for a worker already presumed hung: the
            # bounded joins (<= 4 s total) deliberately run inline — the
            # service accepts the pause over leaving a zombie mid-steal.
            slot.proc.terminate()
            slot.proc.join(timeout=2.0)  # repro: noqa[RC402]
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(timeout=2.0)  # repro: noqa[RC402]
        self._schedule_restart(slot, now)
        return key

    # ----------------------------------------------------------- shutdown

    def stop(self, timeout: float = 5.0) -> None:
        """Politely stop idle workers, then terminate stragglers."""
        for slot in self.slots:
            if slot.conn is not None and slot.alive:
                try:
                    slot.conn.send(("stop",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        deadline = _time.monotonic() + timeout
        for slot in self.slots:
            if slot.proc is None:
                continue
            remaining = max(0.0, deadline - _time.monotonic())
            # Shutdown path: the server is draining and nothing else is
            # serviced anyway; the whole loop is bounded by ``timeout``.
            slot.proc.join(timeout=remaining)  # repro: noqa[RC402]
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=1.0)  # repro: noqa[RC402]
            if slot.conn is not None:
                slot.conn.close()
            slot.proc = None
            slot.conn = None
            slot.ready = False
