"""Purity/effect analyzer speed: cold, summary-warm and memo-hit builds.

Builds the full scenario purity manifest over ``src/repro`` against one
on-disk :class:`AnalysisCache` in three tiers:

* **cold** — every file parsed and summarized from scratch before the
  effect fixpoint and slice hashing run;
* **summary-warm** — summaries replay from the cache by content digest
  and only the fixpoint and the hashing re-run; the manifest memo is
  deleted before each timed build, so it cannot answer;
* **memo hit** — the finished manifest replays from the memo under its
  source-content key (what ``repro serve --cache`` pays on every start
  after the first).

All three wall times land in ``BENCH_lint.json`` under the ``purity`` key
(merged, so the lint-speed baseline in the same file survives).

The contract this bench enforces: the summary-warm build must beat the
cold one by at least ``MIN_SPEEDUP``x, so the first start after a source
edit stays interactive as the tree grows.  The memo-hit tier is
recorded, not gated.

Regenerate:  pytest benchmarks/bench_purity_speed.py --benchmark-only -s
"""

import json
import os
import pathlib
import time

from conftest import report
from repro.analysis.callgraph import AnalysisCache
from repro.analysis.purity import build_purity_manifest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILE = REPO_ROOT / "BENCH_lint.json"

#: The summary-warm analyzer run must beat a cold run by this factor.
MIN_SPEEDUP = 3.0

ROUNDS = 3


def _build_once(cache_path, drop_memo=False):
    cache = AnalysisCache(str(cache_path))
    if drop_memo and os.path.exists(cache.manifest_path):
        os.unlink(cache.manifest_path)
    started = time.perf_counter()
    manifest = build_purity_manifest([str(REPO_ROOT / "src" / "repro")],
                                     cache=cache)
    wall = time.perf_counter() - started
    cache.save()
    verdicts = [entry.verdict for entry in manifest.scenarios.values()]
    assert verdicts and set(verdicts) == {"pure"}, manifest.to_dict()
    return wall, len(manifest.scenarios)


def _best_cold(rounds, tmp_path):
    best, scenarios = float("inf"), 0
    for index in range(rounds):
        wall, scenarios = _build_once(tmp_path / f"cold-{index}.json")
        best = min(best, wall)
    return best, scenarios


def _best_warm(rounds, cache_path, drop_memo):
    best = float("inf")
    for _ in range(rounds):
        wall, _ = _build_once(cache_path, drop_memo=drop_memo)
        best = min(best, wall)
    return best


def test_warm_purity_analysis_speedup(benchmark, quick, tmp_path):
    rounds = 1 if quick else ROUNDS

    cold, scenarios = _best_cold(rounds, tmp_path)
    warm_path = tmp_path / "warm.json"
    _build_once(warm_path)  # populate summaries and the memo
    warm = _best_warm(rounds, warm_path, drop_memo=True)
    memo = _best_warm(rounds, warm_path, drop_memo=False)
    benchmark.pedantic(lambda: _build_once(warm_path),
                       rounds=1, iterations=1)

    speedup = cold / warm if warm else float("inf")

    if not quick:
        try:
            payload = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = {}
        payload["purity"] = {
            "scenarios": scenarios,
            "rounds": rounds,
            "cpu_count": os.cpu_count() or 1,
            "cold_seconds": round(cold, 4),
            "warm_seconds": round(warm, 4),
            "warm_speedup": round(speedup, 2),
            "memo_seconds": round(memo, 4),
            "memo_speedup": round(cold / memo if memo else 0.0, 2),
        }
        BENCH_FILE.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    report("Purity analyzer speedup (src/repro)", [
        ("scenarios certified", "-", scenarios),
        ("cold build (s)", "-", f"{cold:.3f}"),
        ("summary-warm build (s)", "-", f"{warm:.3f}"),
        ("memo hit (s)", "-", f"{memo:.4f}"),
        ("summary-warm speedup", f">={MIN_SPEEDUP:.0f}x", f"{speedup:.1f}x"),
    ], notes=f"recorded to {BENCH_FILE.name} under 'purity'")

    assert speedup >= MIN_SPEEDUP
