"""CampaignService scheduling: dedupe, retries, quarantine, drain, resume."""

import pytest

from repro.experiments.campaign import Campaign, ScenarioSpec
from repro.experiments.service.journal import spec_digest
from repro.experiments.service.queue import QueueFullError
from repro.experiments.service.service import (
    CampaignService,
    ServiceDrainingError,
)
from repro.faults.plan import FaultPlan, FaultSpec


def good_spec(seed=0, duration_bits=1_000, engine="fast"):
    return ScenarioSpec("exp4", seed=seed, duration_bits=duration_bits,
                        engine=engine)


def bad_spec(kind, seed=0, **params):
    return ScenarioSpec(
        "exp4", duration_bits=1_000, seed=seed, label=f"{kind}#{seed}",
        faults=FaultPlan((FaultSpec(name="trouble", kind=kind,
                                    params=params, seed=0),)))


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("heartbeat_seconds", 0.1)
    kwargs.setdefault("retry_backoff_seconds", 0.0)
    kwargs.setdefault("restart_backoff_seconds", 0.01)
    return CampaignService(str(tmp_path / "journal.jsonl"), **kwargs)


# ------------------------------------------------------------- happy path

def test_batch_run_matches_the_serial_campaign(tmp_path):
    specs = [good_spec(seed=s) for s in range(3)]
    service = make_service(tmp_path)
    service.start()
    try:
        outcome = service.submit_specs(specs)
        assert len(outcome["accepted"]) == 3
        assert service.run_until_idle(timeout=120)
    finally:
        service.close()
    report = service.report()
    serial = Campaign(specs).run()
    assert report.payload_equal(serial)
    assert [r.spec.seed for r in report.records] == [0, 1, 2]


def test_partly_warm_cache_keeps_submission_order(tmp_path):
    """Cache hits settle in submission order, not after the queued specs,
    so the report order matches a serial run whatever the cache holds."""
    from repro.analysis.purity import PurityManifest, ScenarioPurity
    from repro.experiments.resultcache import ResultCache

    manifest = PurityManifest({"exp4": ScenarioPurity(
        "exp4", "experiment_4", "pure", slice_hash="stub")})
    specs = [good_spec(seed=s) for s in range(4)]
    cache = ResultCache(str(tmp_path / "cache"), manifest=manifest)
    Campaign([specs[1], specs[3]], result_cache=cache).run()
    service = make_service(tmp_path, result_cache=cache)
    service.start()
    try:
        outcome = service.submit_specs(specs)
        assert outcome["accepted"] == [spec_digest(s) for s in specs]
        assert service.run_until_idle(timeout=120)
    finally:
        service.close()
    report = service.report()
    serial = Campaign(specs).run()
    assert [r.spec for r in report.records] == [r.spec for r in serial.records]
    assert [r.cache_hit for r in report.records] == [False, True, False, True]
    assert report.payload_equal(serial)


def test_submission_dedupes_by_content_address(tmp_path):
    service = make_service(tmp_path)
    service.start()
    try:
        first = service.submit_specs([good_spec(seed=1), good_spec(seed=1)])
        assert len(first["accepted"]) == 1
        assert len(first["duplicate"]) == 1
        assert service.run_until_idle(timeout=120)
        again = service.submit_specs([good_spec(seed=1)])
        assert again["accepted"] == []
        assert again["completed"] == [spec_digest(good_spec(seed=1))]
        assert service.run_until_idle(timeout=10)
    finally:
        service.close()
    assert len(service.report().records) == 1


def test_unknown_scenario_is_rejected_before_enqueue(tmp_path):
    from repro.errors import ConfigurationError

    service = make_service(tmp_path)
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        service.submit_specs([ScenarioSpec("no_such_scenario")])
    assert len(service.queue) == 0


# ----------------------------------------------------------- backpressure

def test_queue_full_rejects_atomically_and_journals_nothing(tmp_path):
    service = make_service(tmp_path, queue_capacity=2)
    # No workers started: nothing drains the queue.
    service.submit_specs([good_spec(seed=1)])
    with pytest.raises(QueueFullError):
        service.submit_specs([good_spec(seed=2), good_spec(seed=3)])
    assert len(service.queue) == 1
    state = service.journal.load()
    assert len(state.order) == 1  # the rejected batch left no trace


def test_draining_service_refuses_submissions(tmp_path):
    service = make_service(tmp_path)
    service.request_drain()
    with pytest.raises(ServiceDrainingError):
        service.submit_specs([good_spec()])


# -------------------------------------------------- failures + quarantine

def test_raising_spec_is_retried_then_failed(tmp_path):
    service = make_service(tmp_path, max_retries=1)
    service.start()
    try:
        service.submit_specs([bad_spec("harness.crash", hard=False),
                              good_spec(seed=1)])
        assert service.run_until_idle(timeout=120)
    finally:
        service.close()
    report = service.report()
    assert [r.spec.seed for r in report.records] == [1]
    (failure,) = report.failures
    assert failure.kind == "error"
    assert failure.attempts == 2
    assert "injected" in failure.error.lower()


def test_worker_killing_spec_is_quarantined_as_poison(tmp_path):
    service = make_service(tmp_path, n_workers=1, poison_threshold=2,
                           max_worker_restarts=5)
    service.start()
    try:
        service.submit_specs([bad_spec("harness.crash", hard=True),
                              good_spec(seed=1)])
        assert service.run_until_idle(timeout=120)
    finally:
        service.close()
    report = service.report()
    assert [r.spec.seed for r in report.records] == [1]
    (failure,) = report.failures
    assert failure.kind == "crash"
    assert "quarantined after 2 kill(s)" in failure.error
    assert failure.wall_seconds > 0.0
    # The quarantine is durable: a resumed service does not retry it.
    resumed = make_service(tmp_path, resume=True)
    assert resumed.queue.keys() == []
    assert [f.kind for f in resumed.report().failures] == ["crash"]


def test_hung_spec_lease_is_stolen_and_quarantined(tmp_path):
    service = make_service(tmp_path, n_workers=1, lease_seconds=0.4,
                           poison_threshold=1, max_worker_restarts=5)
    service.start()
    try:
        service.submit_specs([bad_spec("harness.hang", seconds=60.0)])
        assert service.run_until_idle(timeout=60)
    finally:
        service.close()
    (failure,) = service.report().failures
    assert failure.kind == "timeout"
    assert "lease" in failure.error
    assert failure.wall_seconds >= 0.4


def test_exhausted_pool_fails_queued_work_instead_of_hanging(tmp_path):
    service = make_service(tmp_path, n_workers=1, poison_threshold=99,
                           max_worker_restarts=1)
    service.start()
    try:
        service.submit_specs([bad_spec("harness.crash", hard=True, seed=0),
                              good_spec(seed=1)])
        assert service.run_until_idle(timeout=120)
    finally:
        service.close()
    report = service.report()
    kinds = sorted(f.kind for f in report.failures)
    assert "crash" in kinds
    assert any("exhausted" in f.error for f in report.failures)


# ------------------------------------------------------------------ resume

def test_resume_replays_done_work_exactly_once(tmp_path):
    specs = [good_spec(seed=s) for s in range(4)]
    service = make_service(tmp_path)
    service.start()
    try:
        service.submit_specs(specs[:2])
        assert service.run_until_idle(timeout=120)
    finally:
        service.close()  # simulated parent death: no drain, no cleanup

    resumed = make_service(tmp_path, resume=True)
    assert len(resumed.report().records) == 2  # replayed, not re-run
    resumed.start()
    try:
        outcome = resumed.submit_specs(specs)  # first two dedupe
        assert len(outcome["completed"]) == 2
        assert len(outcome["accepted"]) == 2
        assert resumed.run_until_idle(timeout=120)
    finally:
        resumed.close()
    report = resumed.report()
    serial = Campaign(specs).run()
    assert report.payload_equal(serial)


def test_resume_requeues_unfinished_work_in_order(tmp_path):
    service = make_service(tmp_path)
    specs = [good_spec(seed=s) for s in range(3)]
    service.submit_specs(specs)  # journaled queued, never started
    resumed = make_service(tmp_path, resume=True)
    assert resumed.queue.keys() == [spec_digest(s) for s in specs]


# ------------------------------------------------------------ degradation

def test_journal_write_failures_degrade_gracefully(tmp_path):
    from repro.faults.store import StoreWriteFault

    fault = StoreWriteFault(FaultSpec(
        name="disk", kind="store.write_failure", params={}, seed=0))
    service = make_service(tmp_path, store_fault=fault)
    service.start()
    try:
        with pytest.warns(RuntimeWarning, match="journal append"):
            service.submit_specs([good_spec(seed=1)])
            assert service.run_until_idle(timeout=120)
    finally:
        service.close()
    # The run itself is complete and correct...
    report = service.report()
    assert len(report.records) == 1
    assert report.payload_equal(Campaign([good_spec(seed=1)]).run())
    # ...the degradation is loudly accounted...
    assert service.journal.degraded
    assert service.status()["journal_degraded"] is True
    # ...and only durability was lost: a resume sees an empty journal.
    state = service.journal.load()
    assert state.order == []


# ------------------------------------------------------------------ status

def test_wait_seconds_ends_at_the_next_backoff(tmp_path):
    import time

    service = make_service(tmp_path, n_workers=1)
    slot = service.pool.slots[0]
    slot.retired = True  # no restart pending
    assert service.wait_seconds(30.0) == 30.0
    service.queue.submit(["fresh"])  # ready now: a result will wake us
    assert service.wait_seconds(30.0) == 30.0
    service.queue.requeue("retry", attempt=2,
                          ready_at=time.monotonic() + 0.5)
    assert 0.0 < service.wait_seconds(30.0) <= 0.5
    slot.retired = False
    slot.respawn_at = time.monotonic() + 0.1  # proc is None: restarting
    assert 0.0 < service.wait_seconds(30.0) <= 0.1
    assert service.wait_seconds(0.02) == 0.02


def test_status_snapshot_is_json_safe(tmp_path):
    import json

    service = make_service(tmp_path)
    service.start()
    try:
        service.submit_specs([good_spec()])
        assert service.run_until_idle(timeout=120)
        status = service.status()
    finally:
        service.close()
    parsed = json.loads(json.dumps(status))
    assert parsed["submitted"] == 1
    assert parsed["completed"] == 1
    assert parsed["queued"] == 0
    assert len(parsed["workers"]) == 2
