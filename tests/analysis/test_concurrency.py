"""Concurrency-safety analysis (RC401–RC405) and its CLI/report wiring."""

import json

from repro.analysis.callgraph import build_call_graph
from repro.analysis.concurrency import (
    CONCURRENCY_REPORT_SCHEMA_VERSION,
    ConcurrencyAnalysis,
    build_report,
    load_report,
    save_report,
)
from repro.analysis.lint import lint_paths
from repro.cli import main


def _write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return str(path)


def _package(tmp_path, *parts):
    directory = tmp_path
    for part in parts:
        directory = directory / part
        directory.mkdir(exist_ok=True)
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")


def _deep(tmp_path, monkeypatch, root="pkg"):
    monkeypatch.chdir(tmp_path)
    return lint_paths([str(tmp_path / root)], deep=True)


def _analysis(paths):
    return ConcurrencyAnalysis(build_call_graph(paths))


# ------------------------------------------------------------ RC401 (races)


def _race_tree(tmp_path, guard_beat="", guard_main=""):
    """A heartbeat thread and its spawner both touching a module global.

    ``guard_*`` optionally wraps each access in ``with state_lock:``.
    """
    _package(tmp_path, "pkg", "svc")

    def block(guard, statement):
        if guard:
            return f"    {guard}\n        {statement}\n"
        return f"    {statement}\n"

    _write(tmp_path, "pkg/svc/worker.py",
           "import threading\n"
           "state_lock = threading.Lock()\n"
           "status = {}\n"
           "def beat():\n"
           "    tick()\n"
           "def tick():\n"
           + block(guard_beat, "status['beat'] = 1")
           + "def run():\n"
           "    t = threading.Thread(target=beat)\n"
           "    t.start()\n"
           + block(guard_main, "status['run'] = 2"))
    return str(tmp_path / "pkg")


class TestThreadSharedState:
    def test_unlocked_global_from_two_roots_is_rc401(self, tmp_path,
                                                     monkeypatch):
        _race_tree(tmp_path)
        report = _deep(tmp_path, monkeypatch)
        races = [f for f in report.findings if f.code == "RC401"]
        assert races, report.render_text()
        finding = races[0]
        assert finding.path.replace("\\", "/").endswith("svc/worker.py")
        assert "status" in finding.message
        assert "thread root" in finding.message

    def test_witness_chain_is_the_shortest_path(self, tmp_path,
                                                monkeypatch):
        _race_tree(tmp_path)
        report = _deep(tmp_path, monkeypatch)
        finding = next(f for f in report.findings if f.code == "RC401")
        # The write two hops below the thread entry anchors the finding
        # and names the whole chain from the root.
        assert "beat -> tick" in finding.message

    def test_common_lock_on_both_sides_passes(self, tmp_path, monkeypatch):
        _race_tree(tmp_path, guard_beat="with state_lock:",
                   guard_main="with state_lock:")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC401"], \
            report.render_text()

    def test_lock_on_one_side_only_still_races(self, tmp_path,
                                               monkeypatch):
        _race_tree(tmp_path, guard_beat="with state_lock:")
        report = _deep(tmp_path, monkeypatch)
        assert [f for f in report.findings if f.code == "RC401"]

    def test_single_root_is_not_a_race(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/solo.py",
               "status = {}\n"
               "def run():\n"
               "    status['run'] = 1\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC401"]


# ---------------------------------------------------- RC402 (async blocking)


class TestAsyncBlocking:
    def test_sync_sleep_below_async_handler_is_rc402(self, tmp_path,
                                                     monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/server.py",
               "from pkg.svc.util import pause\n"
               "async def handle(reader, writer):\n"
               "    pause()\n")
        _write(tmp_path, "pkg/svc/util.py",
               "import time\n"
               "def pause():\n"
               "    time.sleep(0.1)\n")
        report = _deep(tmp_path, monkeypatch)
        finding = next(f for f in report.findings if f.code == "RC402")
        assert finding.path.replace("\\", "/").endswith("svc/util.py")
        assert "handle -> pause" in finding.message
        assert "time.sleep" in finding.message

    def test_awaited_asyncio_sleep_passes(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/server.py",
               "import asyncio\n"
               "async def handle(reader, writer):\n"
               "    await asyncio.sleep(0.1)\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC402"], \
            report.render_text()

    def test_sync_only_project_has_no_rc402(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/tool.py",
               "import time\n"
               "def pause():\n"
               "    time.sleep(0.1)\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC402"]


# ------------------------------------------------- RC403 (signal reentrancy)


class TestSignalSafety:
    def test_lock_acquire_below_handler_is_rc403(self, tmp_path,
                                                 monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/shutdown.py",
               "import signal\n"
               "import threading\n"
               "journal_lock = threading.Lock()\n"
               "def on_term(signum, frame):\n"
               "    flush()\n"
               "def flush():\n"
               "    with journal_lock:\n"
               "        pass\n"
               "def install():\n"
               "    signal.signal(signal.SIGTERM, on_term)\n")
        report = _deep(tmp_path, monkeypatch)
        finding = next(f for f in report.findings if f.code == "RC403")
        assert "journal_lock" in finding.message
        assert "on_term" in finding.message
        assert "SIGTERM" in finding.message
        assert "on_term -> flush" in finding.message

    def test_flag_only_handler_passes(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/shutdown.py",
               "import signal\n"
               "stopping = []\n"
               "def on_term(signum, frame):\n"
               "    stopping.append(True)\n"
               "def install():\n"
               "    signal.signal(signal.SIGTERM, on_term)\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC403"], \
            report.render_text()

    def test_os_exit_is_signal_safe(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/shutdown.py",
               "import os\n"
               "import signal\n"
               "def on_term(signum, frame):\n"
               "    os._exit(124)\n"
               "def install():\n"
               "    signal.signal(signal.SIGTERM, on_term)\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC403"], \
            report.render_text()


# ----------------------------------------------------- RC404 (fork vs locks)


def _fork_tree(tmp_path, daemon):
    _package(tmp_path, "pkg", "svc")
    _write(tmp_path, "pkg/svc/pool.py",
           "import multiprocessing\n"
           "import threading\n"
           "journal_lock = threading.Lock()\n"
           "def writer():\n"
           "    with journal_lock:\n"
           "        pass\n"
           "def job():\n"
           "    pass\n"
           "def serve():\n"
           f"    t = threading.Thread(target=writer, daemon={daemon})\n"
           "    t.start()\n"
           "    p = multiprocessing.Process(target=job)\n"
           "    p.start()\n")
    return str(tmp_path / "pkg")


class TestForkLockSafety:
    def test_nondaemon_lock_thread_plus_process_spawn_is_rc404(
            self, tmp_path, monkeypatch):
        _fork_tree(tmp_path, daemon=False)
        report = _deep(tmp_path, monkeypatch)
        finding = next(f for f in report.findings if f.code == "RC404")
        assert "journal_lock" in finding.message
        assert "serve" in finding.message

    def test_daemon_thread_is_exempt(self, tmp_path, monkeypatch):
        _fork_tree(tmp_path, daemon=True)
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC404"], \
            report.render_text()


# ------------------------------------------------------- RC405 (lock order)


class TestLockOrder:
    def test_opposite_nesting_orders_are_rc405(self, tmp_path,
                                               monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/locks.py",
               "import threading\n"
               "pool_lock = threading.Lock()\n"
               "queue_lock = threading.Lock()\n"
               "def drain():\n"
               "    with pool_lock:\n"
               "        with queue_lock:\n"
               "            pass\n"
               "def refill():\n"
               "    with queue_lock:\n"
               "        with pool_lock:\n"
               "            pass\n")
        report = _deep(tmp_path, monkeypatch)
        finding = next(f for f in report.findings if f.code == "RC405")
        assert "lock-acquisition-order cycle" in finding.message
        assert "pool_lock" in finding.message
        assert "queue_lock" in finding.message

    def test_interprocedural_nesting_is_seen(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/locks.py",
               "import threading\n"
               "pool_lock = threading.Lock()\n"
               "queue_lock = threading.Lock()\n"
               "def drain():\n"
               "    with pool_lock:\n"
               "        pull()\n"
               "def pull():\n"
               "    with queue_lock:\n"
               "        pass\n"
               "def refill():\n"
               "    with queue_lock:\n"
               "        with pool_lock:\n"
               "            pass\n")
        report = _deep(tmp_path, monkeypatch)
        assert [f for f in report.findings if f.code == "RC405"], \
            report.render_text()

    def test_consistent_order_passes(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/locks.py",
               "import threading\n"
               "pool_lock = threading.Lock()\n"
               "queue_lock = threading.Lock()\n"
               "def drain():\n"
               "    with pool_lock:\n"
               "        with queue_lock:\n"
               "            pass\n"
               "def refill():\n"
               "    with pool_lock:\n"
               "        with queue_lock:\n"
               "            pass\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC405"], \
            report.render_text()


# -------------------------------------------------------------- suppression


class TestSanctioning:
    def test_noqa_at_the_sink_suppresses_and_is_counted(self, tmp_path,
                                                        monkeypatch):
        _package(tmp_path, "pkg", "svc")
        _write(tmp_path, "pkg/svc/server.py",
               "from pkg.svc.util import pause\n"
               "async def handle(reader, writer):\n"
               "    pause()\n")
        _write(tmp_path, "pkg/svc/util.py",
               "import time\n"
               "def pause():\n"
               "    time.sleep(0.1)  # repro: noqa[RC402]\n")
        report = _deep(tmp_path, monkeypatch)
        assert not [f for f in report.findings if f.code == "RC402"]
        assert report.suppressed >= 1


# ------------------------------------------------------------------- report


class TestConcurrencyReport:
    def _graph(self, tmp_path):
        _race_tree(tmp_path)
        files = [str(tmp_path / "pkg" / "svc" / "worker.py")]
        return build_call_graph(files)

    def test_report_shape_and_round_trip(self, tmp_path):
        graph = self._graph(tmp_path)
        findings = ConcurrencyAnalysis(graph).findings()
        report = build_report(graph, findings, suppressed=3)
        assert report["schema_version"] == \
            CONCURRENCY_REPORT_SCHEMA_VERSION
        labels = {root["label"] for root in report["thread_roots"]}
        assert "thread:beat" in labels and "main:run" in labels
        assert report["suppressed"] == 3
        assert [f["code"] for f in report["findings"]] == ["RC401"]

        out = str(tmp_path / "reports" / "conc.json")
        save_report(report, out)
        assert load_report(out) == json.loads(
            json.dumps(report))  # JSON-clean, byte-stable round trip

    def test_version_skew_loads_as_none(self, tmp_path):
        graph = self._graph(tmp_path)
        report = build_report(graph, [], suppressed=0)
        report["concurrency_schema_version"] += 1
        out = str(tmp_path / "conc.json")
        save_report(report, out)
        assert load_report(out) is None

    def test_corrupted_and_missing_load_as_none(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert load_report(missing) is None
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert load_report(str(broken)) is None


# ------------------------------------------------------------ CLI contracts


class TestCli:
    def test_concurrency_report_requires_deep(self, tmp_path, monkeypatch,
                                              capsys):
        _race_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--no-cache", "--concurrency-report",
                     str(tmp_path / "c.json"), "pkg"]) == 2
        assert "--deep" in capsys.readouterr().err

    def test_concurrency_report_is_written_and_loadable(self, tmp_path,
                                                        monkeypatch,
                                                        capsys):
        _race_tree(tmp_path, guard_beat="with state_lock:",
                   guard_main="with state_lock:")
        monkeypatch.chdir(tmp_path)
        out = str(tmp_path / "conc.json")
        assert main(["lint", "--no-cache", "--deep",
                     "--concurrency-report", out, "pkg"]) == 0
        assert "concurrency report:" in capsys.readouterr().out
        report = load_report(out)
        assert report is not None
        assert {root["label"] for root in report["thread_roots"]} == \
            {"thread:beat", "main:run"}

    def test_list_rules_groups_by_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for header in ("RC1xx", "RC2xx", "RC3xx", "RC4xx", "VCxxx"):
            assert header in out
        # Family order: headers appear before the next family's rules.
        assert out.index("RC1xx") < out.index("RC401") < out.index("VC201")

    def test_list_rules_json_inventory(self, capsys):
        assert main(["lint", "--list-rules", "--format", "json"]) == 0
        inventory = json.loads(capsys.readouterr().out)
        assert set(inventory) == {"RC1xx", "RC2xx", "RC3xx", "RC4xx",
                                  "VCxxx"}
        rc4 = {entry["code"]: entry for entry in inventory["RC4xx"]}
        assert sorted(rc4) == ["RC401", "RC402", "RC403", "RC404", "RC405"]
        assert all(entry["deep"] for entry in rc4.values())
        assert rc4["RC401"]["name"] == "thread-shared-state"
        vc = {entry["code"] for entry in inventory["VCxxx"]}
        assert {"VC200", "VC201", "VC221", "VC233", "VC301"} <= vc


# ------------------------------------------------------- cache invalidation


class TestCacheInvalidation:
    def test_rules_key_folds_the_concurrency_schema(self, monkeypatch):
        import repro.analysis.callgraph as cg
        from repro.analysis.callgraph import rules_cache_key

        base = rules_cache_key(["RC401"], None)
        monkeypatch.setattr(cg, "CONCURRENCY_SCHEMA_VERSION",
                            cg.CONCURRENCY_SCHEMA_VERSION + 1)
        assert rules_cache_key(["RC401"], None) != base

    def test_warm_cache_from_old_summary_schema_recomputes(
            self, tmp_path, monkeypatch):
        """A cache written by the previous analyzer (schema v2, no
        concurrency facts) must be a silent full miss, never replay
        summaries that lack spawn/lock/handler facts."""
        import repro.analysis.callgraph as cg
        from repro.analysis.callgraph import AnalysisCache

        _race_tree(tmp_path)
        cache_file = str(tmp_path / "cache.json")
        monkeypatch.chdir(tmp_path)

        monkeypatch.setattr(cg, "SUMMARY_SCHEMA_VERSION",
                            cg.SUMMARY_SCHEMA_VERSION - 1)
        old_cache = AnalysisCache(cache_file)
        lint_paths([str(tmp_path / "pkg")], deep=True, cache=old_cache)
        old_cache.save()
        monkeypatch.undo()
        monkeypatch.chdir(tmp_path)

        warm = AnalysisCache(cache_file)
        report = lint_paths([str(tmp_path / "pkg")], deep=True,
                            cache=warm)
        assert [f.code for f in report.findings
                if f.code.startswith("RC4")] == ["RC401"]
        assert warm.hits == 0  # every entry was version-skewed

    def test_warm_cache_same_schema_still_finds_races(self, tmp_path,
                                                      monkeypatch):
        from repro.analysis.callgraph import AnalysisCache

        _race_tree(tmp_path)
        cache_file = str(tmp_path / "cache.json")
        monkeypatch.chdir(tmp_path)
        cold = AnalysisCache(cache_file)
        first = lint_paths([str(tmp_path / "pkg")], deep=True, cache=cold)
        cold.save()
        warm = AnalysisCache(cache_file)
        second = lint_paths([str(tmp_path / "pkg")], deep=True,
                            cache=warm)
        assert [f.code for f in first.findings] == \
            [f.code for f in second.findings]
        assert warm.hits > 0


# ----------------------------------------------------------- repo tree gate


class TestRepoConcurrencyGate:
    def test_service_layer_is_rc4xx_clean(self):
        """The campaign service, telemetry, and flight-recorder surfaces
        must stay RC4xx-clean: every real finding either fixed (the
        supervisor's ``state_lock``, the telemetry ``_beat_lock``) or
        sanctioned with a stated invariant at the sink line."""
        report = lint_paths(
            ["src"], deep=True,
            select=["RC401", "RC402", "RC403", "RC404", "RC405"])
        assert report.ok, report.render_text()
        # The sanctioned non-blocking/bounded-join sites must be counted.
        assert report.suppressed >= 8
