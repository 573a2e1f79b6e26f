"""Lint cache speedup: cold parse-everything vs warm content-validated hits.

Runs ``lint_paths`` over ``src/`` twice against the same on-disk cache —
once cold (empty cache: every file is parsed, summarized, and linted) and
once warm (every entry validates by the sha256 of the file's bytes;
findings are replayed from the cache without re-parsing) — and records
both wall times to ``BENCH_lint.json`` in the repo root.

The contract this bench enforces: the warm path of ``repro lint`` must be
at least ``MIN_SPEEDUP``x faster than the cold path, so incremental lint
runs stay interactive as the tree grows.

Regenerate:  pytest benchmarks/bench_lint_speed.py --benchmark-only -s
"""

import json
import os
import pathlib
import time

from conftest import report
from repro.analysis.callgraph import SUMMARY_SCHEMA_VERSION, AnalysisCache
from repro.analysis.lint import lint_paths

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_lint.json"

#: Warm-cache lint must beat a cold run by at least this factor.
MIN_SPEEDUP = 3.0

ROUNDS = 3


def _lint_once(cache_path, deep=False):
    cache = AnalysisCache(str(cache_path))
    started = time.perf_counter()
    report_obj = lint_paths([str(REPO_ROOT / "src")], cache=cache,
                            deep=deep)
    wall = time.perf_counter() - started
    cache.save()
    assert report_obj.ok, report_obj.render_text()
    return wall, report_obj.files_checked


def _best_cold(rounds, tmp_path):
    best, files = float("inf"), 0
    for index in range(rounds):
        wall, files = _lint_once(tmp_path / f"cold-{index}.json")
        best = min(best, wall)
    return best, files


def _best_warm(rounds, tmp_path):
    cache_path = tmp_path / "warm.json"
    _lint_once(cache_path)  # populate
    best = float("inf")
    for _ in range(rounds):
        wall, _ = _lint_once(cache_path)
        best = min(best, wall)
    return best


def test_warm_cache_lint_speedup(benchmark, quick, tmp_path):
    rounds = 1 if quick else ROUNDS

    cold, files = _best_cold(rounds, tmp_path)
    warm = _best_warm(rounds, tmp_path)
    benchmark.pedantic(lambda: _lint_once(tmp_path / "warm.json"),
                       rounds=1, iterations=1)

    speedup = cold / warm if warm else float("inf")

    # The deep path re-runs the interprocedural rules (call graph, effect
    # and concurrency analyses) every time, but a warm cache still spares
    # it the parse+summarize pass — measure both so the summary-schema
    # bumps (v3 added spawn/lock/handler/blocking facts) show up here
    # instead of silently eroding incremental lint.
    deep_cold, _ = _lint_once(tmp_path / "deep-cold.json", deep=True)
    deep_cache = tmp_path / "deep-warm.json"
    _lint_once(deep_cache, deep=True)  # populate
    deep_warm, _ = _lint_once(deep_cache, deep=True)

    if not quick:
        # Merge: bench_purity_speed.py records its block into the same
        # file under "purity", and each bench must survive the other.
        try:
            payload = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = {}
        payload.update({
            "files_checked": files,
            "rounds": rounds,
            "cpu_count": os.cpu_count() or 1,
            "cold_seconds": round(cold, 4),
            "warm_seconds": round(warm, 4),
            "warm_speedup": round(speedup, 2),
            "summary_schema_version": SUMMARY_SCHEMA_VERSION,
            "deep": {
                "cold_seconds": round(deep_cold, 4),
                "warm_seconds": round(deep_warm, 4),
                "warm_speedup": round(deep_cold / deep_warm
                                      if deep_warm else float("inf"), 2),
            },
        })
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Lint cache speedup (src/)", [
        ("files checked", "-", files),
        ("cold run (s)", "-", f"{cold:.3f}"),
        ("warm run (s)", "-", f"{warm:.3f}"),
        ("speedup", f">={MIN_SPEEDUP:.0f}x", f"{speedup:.1f}x"),
        ("deep cold (s)", "-", f"{deep_cold:.3f}"),
        ("deep warm (s)", "-", f"{deep_warm:.3f}"),
    ], notes=f"recorded to {BENCH_FILE.name}")

    assert speedup >= MIN_SPEEDUP
    # Warming the cache must never make the deep path slower (the graph
    # rules re-run either way; the parse pass is what the cache spares).
    assert deep_warm <= deep_cold * 1.10
