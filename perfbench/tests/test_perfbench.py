"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import layers
import workloads
from spans import SpanRecorder, check_spans, layer_table

from repro.experiments.campaign import Campaign, ScenarioSpec
from repro.obs.tracing import Span

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


# ------------------------------------------------------------ generator

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_spec_bytes(workload):
    first = workloads.spec_list_bytes(workloads.generate(workload, 7))
    again = workloads.spec_list_bytes(workloads.generate(workload, 7))
    assert first == again


@pytest.mark.parametrize("workload", ["table2_fight", "serve_sweep"])
def test_seed_changes_the_spec_list(workload):
    assert (workloads.spec_list_bytes(workloads.generate(workload, 1))
            != workloads.spec_list_bytes(workloads.generate(workload, 2)))


def test_generated_specs_survive_a_json_round_trip():
    for workload in WORKLOADS:
        for spec in workloads.generate(workload, 3):
            data = json.loads(json.dumps(spec.to_dict()))
            assert ScenarioSpec.from_dict(data).to_dict() == spec.to_dict()


def test_serve_sweep_is_distinct_and_a_quarter_cached():
    specs = workloads.serve_sweep(5)
    keys = {json.dumps(spec.to_dict(), sort_keys=True) for spec in specs}
    assert len(keys) == len(specs)
    cached = workloads.cached_subset(specs, 5)
    assert len(cached) == len(specs) // 4
    assert cached == workloads.cached_subset(specs, 5)


def test_every_workload_has_a_recorded_reason():
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]]


# ------------------------------------------------------ correctness gate

@pytest.fixture(scope="module")
def small_report():
    specs = [ScenarioSpec("exp4", duration_bits=4_000, seed=1, metrics=True),
             ScenarioSpec("restbus_baseline", duration_bits=4_000, seed=1)]
    report = Campaign(specs).run().to_dict()
    return report, [spec.to_dict() for spec in specs]


def test_gate_accepts_a_real_report(small_report):
    report, specs = small_report
    checks.check_report(report, specs)


def _tampered(report, change):
    tampered = copy.deepcopy(report)
    change(tampered)
    return tampered


@pytest.mark.parametrize("change", [
    lambda r: r["records"][0]["result"]["episodes"]["attacker"][0].update(
        attempts=31),
    lambda r: r["records"][0]["result"].update(detections=0),
    lambda r: r["records"][1]["result"].update(counterattacks=1),
    lambda r: r["records"].pop(),
    lambda r: r["records"].reverse(),
    lambda r: r["failures"].append(
        {"spec": r["records"][0]["spec"], "kind": "crash", "error": "x"}),
], ids=["attempts", "detections", "benign-counterattack", "missing-record",
        "order", "failure"])
def test_gate_rejects_a_tampered_payload(small_report, change):
    report, specs = small_report
    with pytest.raises(checks.CheckFailed):
        checks.check_report(_tampered(report, change), specs)


def test_digest_ignores_timing_but_not_results(small_report):
    report, _ = small_report
    digest = checks.payload_digest(report)
    retimed = _tampered(report, lambda r: r["records"][0].update(
        wall_seconds=99.0, steps_per_second=1.0))
    assert checks.payload_digest(retimed) == digest
    altered = _tampered(report, lambda r: r["records"][0]["result"].update(
        busy_fraction=0.5))
    assert checks.payload_digest(altered) != digest
    with pytest.raises(checks.CheckFailed):
        checks.check_same_digest([digest, checks.payload_digest(altered)])


def test_in_spec_order_restores_submission_order(small_report):
    report, specs = small_report
    shuffled = _tampered(report, lambda r: r["records"].reverse())
    assert checks.in_spec_order(shuffled, specs)["records"] == report["records"]


# ----------------------------------------------------------------- spans

def test_self_time_excludes_child_spans():
    spans = [
        {"id": 1, "name": "a", "parent": None, "spec": "s", "start": 0.0,
         "end": 10.0},
        {"id": 2, "name": "b", "parent": 1, "spec": "s", "start": 1.0,
         "end": 4.0},
        {"id": 3, "name": "b", "parent": 1, "spec": "s", "start": 3.0,
         "end": 6.0},
        {"id": 4, "name": "a", "parent": 3, "spec": "s", "start": 4.0,
         "end": 5.0},
    ]
    table = layer_table(spans)
    assert table["a"]["self_s"] == pytest.approx(5.0 + 1.0)
    assert table["a"]["inclusive_s"] == pytest.approx(10.0)
    assert table["b"]["self_s"] == pytest.approx(3.0 + 2.0)
    assert table["b"]["calls"] == 2


def test_wrapped_calls_share_their_spec_id():
    recorder = SpanRecorder()

    class Layer:
        def outer(self, spec):
            return self.inner()

        def inner(self):
            return 1

    recorder.wrap(Layer, "outer", "layer.outer",
                  spec_of=lambda args, kwargs: args[1])
    recorder.wrap(Layer, "inner", "layer.inner")
    try:
        assert Layer().outer("spec-7") == 1
    finally:
        recorder.unwrap_all()
    assert Layer.inner.__name__ == "inner"
    check_spans(recorder.spans)
    assert [span["spec"] for span in recorder.spans] == ["spec-7", "spec-7"]
    assert recorder.spans[1]["parent"] == recorder.spans[0]["id"]


def test_region_split_gives_each_per_bit_bit_one_region():
    spans = [Span(1, "frame", "a", 0, 40), Span(2, "arbitration", "a", 0, 13),
             Span(3, "error", "a", 20, 20), Span(4, "busoff", "a", 60, 90),
             Span(5, "counterattack", "d", 15, 25)]
    engine = [Span(1, "ff.idle", "engine", 70, 80)]
    split = layers.region_bits(spans, engine, 100)
    assert split == {"arbitration": 13, "counterattack": 10, "error": 9,
                     "frame": 8, "busoff": 20, "idle": 30}
    assert sum(split.values()) == 100 - 10


# ------------------------------------------------------------ end to end

@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    started = time.monotonic()
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--quick")
    assert out.returncode == 0, out.stderr
    assert time.monotonic() - started < 60
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert "failed_fraction" in out.stdout


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "table2_fight", "--seed", "1",
                    "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
