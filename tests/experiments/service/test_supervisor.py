"""Worker-pool liveness: long-lived workers, death detection, restarts."""

import os
import signal
import time

import pytest

from repro.experiments.campaign import ScenarioSpec
from repro.experiments.service.journal import spec_digest
from repro.experiments.service.supervisor import WorkerPool


def spec(seed=0):
    return ScenarioSpec("exp4", seed=seed, duration_bits=1_000)


def wait_for(predicate, timeout=30.0, step=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(step)
    return False


def drain(pool, events):
    events.extend(pool.poll())
    return events


@pytest.fixture
def pool():
    pool = WorkerPool(2, heartbeat_seconds=0.1, lease_seconds=30.0,
                      restart_backoff_seconds=0.01)
    pool.start()
    yield pool
    pool.stop()


def test_workers_come_up_ready_and_run_specs(pool):
    events = []
    assert wait_for(lambda: len(pool.idle_slots()) == 2
                    if drain(pool, events) or True else False)
    slot = pool.idle_slots()[0]
    s = spec(seed=1)
    key = spec_digest(s)
    assert pool.lease(slot, key, s, attempt=1)
    assert slot.busy_key == key

    def got_ok():
        drain(pool, events)
        return any(e.kind == "ok" and e.key == key for e in events)

    assert wait_for(got_ok)
    ok = next(e for e in events if e.kind == "ok")
    assert ok.payload["spec"]["seed"] == 1
    assert slot.busy_key is None  # slot freed on result
    # The same long-lived worker takes a second spec: no respawn.
    generation = slot.proc.name
    s2 = spec(seed=2)
    assert pool.lease(slot, spec_digest(s2), s2, attempt=1)
    assert wait_for(lambda: any(
        e.kind == "ok" and e.key == spec_digest(s2)
        for e in drain(pool, events)))
    assert slot.proc.name == generation
    assert pool.total_restarts == 0


def test_killed_worker_surfaces_one_died_event_with_the_orphaned_key(pool):
    events = []
    assert wait_for(lambda: len(pool.idle_slots()) == 2
                    if drain(pool, events) or True else False)
    slot = pool.idle_slots()[0]
    s = ScenarioSpec("exp4", seed=0, duration_bits=2_000_000)  # long run
    key = spec_digest(s)
    assert pool.lease(slot, key, s, attempt=1)
    os.kill(slot.proc.pid, signal.SIGKILL)

    def died():
        drain(pool, events)
        return [e for e in events if e.kind == "died"]

    assert wait_for(lambda: bool(died()))
    (event,) = died()
    assert event.key == key
    assert slot.proc is None  # scheduled for restart
    # The backoff elapses and the slot respawns.
    assert wait_for(lambda: (
        pool.tick_restarts(time.monotonic()) or slot.alive))


def test_restart_budget_retires_a_slot():
    pool = WorkerPool(1, heartbeat_seconds=0.1,
                      restart_backoff_seconds=0.0, max_worker_restarts=1)
    pool.start()
    try:
        slot = pool.slots[0]
        assert wait_for(lambda: bool(pool.poll() or slot.ready))
        os.kill(slot.proc.pid, signal.SIGKILL)
        assert wait_for(lambda: bool(
            [e for e in pool.poll() if e.kind == "died"]) or slot.proc is None)
        assert not slot.retired  # first death: restart granted
        pool.tick_restarts(time.monotonic())
        assert wait_for(lambda: slot.alive)
        wait_for(lambda: bool(pool.poll() or slot.ready))
        os.kill(slot.proc.pid, signal.SIGKILL)
        assert wait_for(lambda: (pool.poll(), slot.proc)[1] is None)
        assert slot.retired  # budget (1 restart) exhausted
        assert pool.live_slots() == []
    finally:
        pool.stop()


def test_expired_lease_is_detected_and_stolen(pool):
    events = []
    assert wait_for(lambda: len(pool.idle_slots()) == 2
                    if drain(pool, events) or True else False)
    slot = pool.idle_slots()[0]
    s = ScenarioSpec("exp4", seed=0, duration_bits=5_000_000)
    key = spec_digest(s)
    pool.lease_seconds = 0.2
    assert pool.lease(slot, key, s, attempt=1)

    def expired():
        drain(pool, events)  # keep heartbeats flowing into last_seen
        return pool.expired_leases(time.monotonic())

    assert wait_for(lambda: bool(expired()))
    assert pool.steal(slot, time.monotonic()) == key
    assert slot.proc is None and slot.busy_key is None


def test_stop_is_idempotent_and_leaves_no_processes(pool):
    procs = [slot.proc for slot in pool.slots]
    pool.stop()
    pool.stop()
    assert all(not proc.is_alive() for proc in procs)


def test_workers_exit_when_their_parent_is_killed():
    """A SIGKILLed parent runs no cleanup; its idle workers must notice
    and exit rather than linger as orphans."""
    import subprocess
    import sys

    code = (
        "import time\n"
        "from repro.experiments.service.supervisor import WorkerPool\n"
        "pool = WorkerPool(2, heartbeat_seconds=0.1)\n"
        "pool.start()\n"
        "while not all(s.ready for s in pool.slots):\n"
        "    pool.poll(); time.sleep(0.01)\n"
        "print(' '.join(str(s.proc.pid) for s in pool.slots), flush=True)\n"
        "time.sleep(60)\n")
    parent = subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True)
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()

    def alive(pid):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    assert wait_for(lambda: not any(alive(pid) for pid in pids),
                    timeout=10.0)
