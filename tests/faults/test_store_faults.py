"""Store-layer faults: seeded write-failure schedules + degradation proof."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import Campaign, ScenarioSpec
from repro.faults.plan import FaultPlan, FaultSpec, FaultWindow
from repro.faults.store import (
    StoreWriteFault,
    compile_store_fault,
    store_faults,
)


def store_spec(seed=0, window=None, **params):
    kwargs = dict(name="disk", kind="store.write_failure",
                  params=params, seed=seed)
    if window is not None:
        kwargs["window"] = window
    return FaultSpec(**kwargs)


# ------------------------------------------------------------- validation

def test_non_store_kind_is_rejected():
    with pytest.raises(ConfigurationError, match="not a store fault"):
        StoreWriteFault(FaultSpec(name="x", kind="wire.flip"))


@pytest.mark.parametrize("params", [
    {"probability": -0.1},
    {"probability": 1.5},
    {"max_failures": -1},
])
def test_bad_params_are_rejected(params):
    with pytest.raises(ConfigurationError):
        StoreWriteFault(store_spec(**params))


def test_store_kind_is_registered_in_the_taxonomy():
    from repro.faults.plan import FAULT_KINDS, layer_of

    assert "store.write_failure" in FAULT_KINDS
    assert layer_of("store.write_failure") == "store"


# --------------------------------------------------------------- schedule

def test_default_schedule_fails_every_write():
    fault = compile_store_fault(store_spec())
    for index in range(3):
        with pytest.raises(OSError, match=f"write #{index}"):
            fault.before_write("journal test")
    assert fault.writes == 3
    assert fault.failures == 3


def test_max_failures_bounds_the_damage():
    fault = compile_store_fault(store_spec(max_failures=2))
    failures = 0
    for _ in range(5):
        try:
            fault.before_write()
        except OSError:
            failures += 1
    assert failures == 2
    assert fault.failures == 2


def test_window_counts_write_operations_not_bits():
    fault = compile_store_fault(
        store_spec(window=FaultWindow(start_bit=2, end_bit=4)))
    outcomes = []
    for _ in range(6):
        try:
            fault.before_write()
            outcomes.append("ok")
        except OSError:
            outcomes.append("fail")
    assert outcomes == ["ok", "ok", "fail", "fail", "ok", "ok"]


def test_probability_schedule_is_seed_deterministic():
    def run(seed):
        fault = compile_store_fault(store_spec(seed=seed, probability=0.5))
        outcomes = []
        for _ in range(20):
            try:
                fault.before_write()
                outcomes.append(0)
            except OSError:
                outcomes.append(1)
        return outcomes

    assert run(7) == run(7)
    assert run(7) != run(8)
    assert 0 < sum(run(7)) < 20


def test_store_faults_filters_a_mixed_plan():
    plan = FaultPlan((
        FaultSpec(name="w", kind="wire.flip", params={"probability": 0.1}),
        store_spec(),
    ))
    compiled = store_faults(plan)
    assert len(compiled) == 1
    assert isinstance(compiled[0], StoreWriteFault)
    assert store_faults(None) == []


def test_apply_fault_plan_routes_store_faults_off_the_simulator():
    from repro.bus.simulator import CanBusSimulator
    from repro.faults.apply import apply_fault_plan

    applied = apply_fault_plan(CanBusSimulator(),
                               FaultPlan((store_spec(),)))
    assert len(applied.store_specs) == 1
    assert applied.store_specs[0].kind == "store.write_failure"


# ---------------------------------------------- campaign-level degradation

def test_campaign_checkpoint_degrades_gracefully_under_write_failure(
        tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    spec = ScenarioSpec("exp4", seed=1, duration_bits=1_000)
    fault = compile_store_fault(store_spec(max_failures=1))
    with pytest.warns(RuntimeWarning, match="work journal"):
        report = Campaign([spec], checkpoint=checkpoint,
                          store_fault=fault).run()
    # The run completed and reported everything...
    assert len(report.records) == 1
    assert not report.failures
    # ...and matches an unfaulted run exactly.
    assert report.payload_equal(Campaign([spec]).run())


def test_unfaulted_campaign_checkpoint_counts_no_write_failures(tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    spec = ScenarioSpec("exp4", seed=1, duration_bits=1_000)
    Campaign([spec], checkpoint=checkpoint).run()
    resumed = Campaign([spec], checkpoint=checkpoint).run(resume=True)
    assert len(resumed.records) == 1
    done = [line for line in open(checkpoint, encoding="utf-8")
            if '"state": "done"' in line]
    assert len(done) == 1, "the resumed spec replayed from the journal"
