"""Campaign-attached flight recorder: post-mortems for dead workers."""

import os

from repro.experiments.campaign import (
    SCHEMA_VERSION,
    Campaign,
    CampaignReport,
    ScenarioSpec,
    execute_spec,
)
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.flight import (
    FLIGHT_KIND,
    FlightRecorder,
    load_dump,
    render_dump,
)


def harness_plan(kind, **params):
    return FaultPlan((
        FaultSpec(name="trouble", kind=kind, params=params, seed=0),
    ))


def good_spec(seed=0):
    return ScenarioSpec("exp4", duration_bits=2_000, seed=seed)


def bad_spec(kind, seed=0, **params):
    return ScenarioSpec("exp4", duration_bits=2_000, seed=seed,
                        label=f"{kind}#{seed}", faults=harness_plan(
                            kind, **params))


def test_successful_runs_record_a_complete_dump(tmp_path):
    """A clean run ends its log with a ``complete`` checkpoint; the record
    carries the result, not a copy of the log."""
    flight_dir = str(tmp_path / "flights")
    report = Campaign([good_spec()], flight_dir=flight_dir).run()
    (record,) = report.records
    assert "flight" not in record.to_dict()
    (name,) = os.listdir(flight_dir)
    dump = load_dump(os.path.join(flight_dir, name))
    assert dump["kind"] == FLIGHT_KIND
    assert dump["reason"] == "complete"
    assert dump["events"]
    assert "final node states" in render_dump(dump)


def test_clean_run_log_folds_to_the_recorders_complete_dump(
        tmp_path, monkeypatch):
    """The log a clean ``execute_spec`` leaves equals the recorder's own
    ``complete`` dump taken as the run closes it."""
    dumps = []
    close = FlightRecorder.close

    def closing(recorder):
        dumps.append(recorder.dump(reason="complete"))
        close(recorder)

    monkeypatch.setattr(FlightRecorder, "close", closing)
    path = str(tmp_path / "run.flight.json")
    execute_spec(good_spec(), flight_path=path)
    (dump,) = dumps
    assert dump["reason"] == "complete"
    assert load_dump(path) == dump


def test_soft_crash_attaches_an_abort_dump(tmp_path):
    flight_dir = str(tmp_path / "flights")
    report = Campaign(
        [bad_spec("harness.crash", hard=False)],
        flight_dir=flight_dir,
    ).run()
    (failure,) = report.failures
    assert failure.kind == "error"
    assert failure.flight is not None
    assert failure.flight["reason"] == "abort"
    assert failure.flight_path.endswith(".flight.json")
    assert os.path.exists(failure.flight_path)


def test_hard_crash_leaves_an_autoflushed_dump(tmp_path):
    """os._exit runs no handlers; the dump survives via autoflush."""
    flight_dir = str(tmp_path / "flights")
    report = Campaign(
        [bad_spec("harness.crash", hard=True)],
        n_workers=2, timeout_seconds=30.0,
    ).run()
    assert report.failures[0].kind == "crash"

    report = Campaign(
        [bad_spec("harness.crash", hard=True)],
        n_workers=2, timeout_seconds=30.0, flight_dir=flight_dir,
    ).run()
    (failure,) = report.failures
    assert failure.kind == "crash"
    assert failure.flight is not None
    assert failure.flight["reason"] in ("start", "autoflush")
    assert load_dump(failure.flight_path) == failure.flight


def test_timeout_flushes_via_sigterm_handler(tmp_path):
    flight_dir = str(tmp_path / "flights")
    report = Campaign(
        [bad_spec("harness.hang", seconds=30.0)],
        n_workers=2, timeout_seconds=1.0, flight_dir=flight_dir,
    ).run()
    (failure,) = report.failures
    assert failure.kind == "timeout"
    assert failure.flight is not None
    assert failure.flight["reason"] in ("timeout", "start", "autoflush")
    assert "flight recorder dump" in render_dump(failure.flight)


def test_flight_dumps_round_trip_through_the_report(tmp_path):
    flight_dir = str(tmp_path / "flights")
    report = Campaign(
        [good_spec(), bad_spec("harness.crash", hard=False, seed=1)],
        flight_dir=flight_dir,
    ).run()
    clone = CampaignReport.from_dict(report.to_dict())
    assert clone.to_dict() == report.to_dict()
    assert clone.failures[0].flight == report.failures[0].flight
    assert clone.failures[0].flight_path == report.failures[0].flight_path
    assert "flight" not in clone.records[0].to_dict()


def test_a_report_whose_records_carry_dumps_still_loads(tmp_path):
    """Reports written while records embedded their final dump load at the
    same schema version; the dump is dropped."""
    data = Campaign([good_spec()], flight_dir=str(tmp_path)).run().to_dict()
    assert data["schema_version"] == SCHEMA_VERSION
    legacy = dict(data["records"][0],
                  flight={"kind": FLIGHT_KIND, "reason": "complete"})
    data["records"] = [legacy]
    (record,) = CampaignReport.from_dict(data).records
    assert not hasattr(record, "flight")
    assert record.to_dict() == {key: value for key, value in legacy.items()
                                if key != "flight"}


def test_no_flight_dir_means_no_dumps():
    spec = bad_spec("harness.crash", hard=False)
    report = Campaign([good_spec(), spec]).run()
    assert report.failures[0].flight is None
    assert report.failures[0].flight_path == ""
