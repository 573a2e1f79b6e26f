"""Campaign service throughput: the two front ends vs the bare pool.

Every campaign that needs worker processes runs on the campaign
service's pool of long-lived workers: ``Campaign(n_workers > 1)`` (and
any ``timeout_seconds``) builds a ``CampaignService``, submits its
specs, drains it and maps the report back onto its spec list, and
``repro serve`` runs the same service behind a unix socket.  This bench
prices both front ends, recorded to ``BENCH_service.json`` in the repo
root:

* a spawn-bound workload (many very short specs) run three ways with
  the same worker count — ``Campaign(n_workers=2)``, a
  ``repro serve --workers 2`` subprocess timed from ``submit`` until
  ``status`` shows every spec settled (its pool already up), and a bare
  ``CampaignService`` pumped directly;
* the three reports must be payload-identical (timing metadata aside);
* each front end must cost at most **1.25x** the bare service's wall
  time (best of alternating rounds), so neither ``repro campaign run``
  nor ``repro serve`` adds scheduling latency of its own;
* per-spec cost for every path, and the campaign's mean fan-out
  overhead (lease time minus run time) per spec.

Quick (``--quick``) runs shrink the workload and skip the ratio gate
(CI smoke containers are too noisy) but still check determinism.

Regenerate:  pytest benchmarks/bench_service_throughput.py --benchmark-only -s
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

from conftest import report
from repro.errors import ConfigurationError
from repro.experiments.campaign import Campaign, CampaignReport, ScenarioSpec
from repro.experiments.service.server import request
from repro.experiments.service.service import CampaignService

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_service.json"

MAX_FRONT_END_RATIO = 1.25
WORKERS = 2
ROUNDS = 3


def short_specs(n, duration_bits=300):
    """A spawn-bound workload: windows so short that scheduling dominates.

    ~300 bits of exp4 simulate in a couple of milliseconds, so the
    per-spec cost is mostly the lease round trip, not simulation.
    """
    return [ScenarioSpec("exp4", seed=seed, duration_bits=duration_bits)
            for seed in range(n)]


def run_campaign_front_end(specs):
    """What ``repro campaign run --workers 2`` pays, pool start included."""
    started = time.perf_counter()
    outcome = Campaign(specs, n_workers=WORKERS).run()
    return outcome, time.perf_counter() - started


def run_bare_service(specs, journal_path):
    """The service pumped directly: spawn the pool once, stream specs."""
    service = CampaignService(str(journal_path), n_workers=WORKERS,
                              heartbeat_seconds=0.5)
    started = time.perf_counter()
    service.start()
    try:
        service.submit_specs(specs)
        assert service.run_until_idle(poll_seconds=0.001, timeout=600)
    finally:
        service.close()
    return service.report(), time.perf_counter() - started


def _status_until(sock, done, timeout=60.0):
    deadline = time.monotonic() + timeout
    while True:
        status = request(sock, {"op": "status"})["status"]
        if done(status):
            return status
        assert time.monotonic() < deadline, status
        time.sleep(0.002)


def run_serve_front_end(specs, workdir):
    """What a ``repro serve`` client pays once the server is up: submit
    over the socket, then poll ``status`` until every spec settled."""
    workdir.mkdir()
    sock = str(workdir / "serve.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--journal", str(workdir / "journal.jsonl"),
         "--workers", str(WORKERS)],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while True:  # until serve answers
            try:
                request(sock, {"op": "ping"})
                break
            except ConfigurationError:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        _status_until(sock, lambda status: all(
            worker["state"] == "idle" for worker in status["workers"]))
        started = time.perf_counter()
        request(sock, {"op": "submit",
                       "specs": [spec.to_dict() for spec in specs]})
        _status_until(sock, lambda status: (
            status["completed"] + status["failed"] == len(specs)))
        wall = time.perf_counter() - started
        served = CampaignReport.from_dict(
            request(sock, {"op": "report"})["report"])
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return served, wall


def alternating_rounds(specs, tmp_path, rounds):
    """Best wall of each path over alternating rounds (noise-robust)."""
    walls = {"front": [], "serve": [], "bare": []}
    front = serve = bare = None
    for round_index in range(rounds):
        front, wall = run_campaign_front_end(specs)
        walls["front"].append(wall)
        serve, wall = run_serve_front_end(
            specs, tmp_path / f"serve-{round_index}")
        walls["serve"].append(wall)
        bare, wall = run_bare_service(
            specs, tmp_path / f"bench-journal-{round_index}.jsonl")
        walls["bare"].append(wall)
    return (front, min(walls["front"]), serve, min(walls["serve"]),
            bare, min(walls["bare"]))


def _record(payload):
    BENCH_FILE.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def test_front_ends_cost_no_more_than_the_bare_service(
        benchmark, quick, tmp_path):
    n_specs = 6 if quick else 24
    specs = short_specs(n_specs)

    front, front_wall, serve, serve_wall, bare, bare_wall = \
        benchmark.pedantic(
            alternating_rounds,
            args=(specs, tmp_path, 1 if quick else ROUNDS),
            rounds=1, iterations=1)

    # Determinism first: the execution strategy is timing metadata.
    assert not front.failures and not serve.failures and not bare.failures
    assert bare.payload_equal(front)
    assert bare.payload_equal(serve)

    ratio = front_wall / bare_wall
    serve_ratio = serve_wall / bare_wall
    overhead_ms = front.mean_spawn_overhead_seconds() * 1000
    front_ms = front_wall / n_specs * 1000
    serve_ms = serve_wall / n_specs * 1000
    bare_ms = bare_wall / n_specs * 1000

    if not quick:
        _record({
            "workload": {
                "scenario": "exp4",
                "n_specs": n_specs,
                "duration_bits": specs[0].duration_bits,
                "n_workers": WORKERS,
                "rounds": ROUNDS,
            },
            "campaign_front_end": {
                "wall_seconds": round(front_wall, 3),
                "per_spec_ms": round(front_ms, 1),
                "mean_spawn_overhead_ms": round(overhead_ms, 1),
            },
            "serve_front_end": {
                "wall_seconds": round(serve_wall, 3),
                "per_spec_ms": round(serve_ms, 1),
            },
            "bare_service": {
                "wall_seconds": round(bare_wall, 3),
                "per_spec_ms": round(bare_ms, 1),
                "worker_utilization": bare.worker_utilization(),
            },
            "front_end_ratio": round(ratio, 2),
            "serve_ratio": round(serve_ratio, 2),
            "max_front_end_ratio": MAX_FRONT_END_RATIO,
        })

    report("Campaign service — front ends vs bare service", [
        ("specs (short windows)", "-", n_specs),
        (f"Campaign front end wall (s), {WORKERS} workers", "-",
         f"{front_wall:.3f}"),
        (f"repro serve wall (s), {WORKERS} workers", "-",
         f"{serve_wall:.3f}"),
        (f"bare service wall (s), {WORKERS} workers", "-",
         f"{bare_wall:.3f}"),
        ("mean fan-out overhead per spec (ms)", "-", f"{overhead_ms:.1f}"),
        ("per-spec cost, front end (ms)", "-", f"{front_ms:.1f}"),
        ("per-spec cost, repro serve (ms)", "-", f"{serve_ms:.1f}"),
        ("front end / bare", f"<= {MAX_FRONT_END_RATIO}x", f"{ratio:.2f}x"),
        ("repro serve / bare", f"<= {MAX_FRONT_END_RATIO}x",
         f"{serve_ratio:.2f}x"),
        ("payloads bit-identical", True, True),
    ], notes=f"recorded to {BENCH_FILE.name}; best of "
             f"{1 if quick else ROUNDS} alternating round(s)")
    if not quick:
        assert ratio <= MAX_FRONT_END_RATIO
        assert serve_ratio <= MAX_FRONT_END_RATIO
