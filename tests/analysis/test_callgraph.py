"""The whole-program call-graph builder: summaries, resolution, cache."""

import json
import os

from repro.analysis.callgraph import (
    AnalysisCache,
    CACHE_SCHEMA_VERSION,
    SUMMARY_SCHEMA_VERSION,
    CallGraph,
    build_call_graph,
    file_digest,
    load_project,
    module_name_for,
    rules_cache_key,
    summarize_source,
)


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


# ------------------------------------------------------------- summaries


class TestSummaries:
    def test_module_name_walks_init_chain(self, tmp_path):
        _package(tmp_path, "pkg", "sub")
        path = _write(tmp_path, "pkg/sub/mod.py", "x = 1\n")
        assert module_name_for(path) == "pkg.sub.mod"
        init = str(tmp_path / "pkg" / "sub" / "__init__.py")
        assert module_name_for(init) == "pkg.sub"

    def test_sinks_and_calls_recorded(self):
        summary = summarize_source(
            "import time as _t\n"
            "import random\n"
            "from time import sleep\n"
            "def f():\n"
            "    _t.perf_counter()\n"
            "    sleep(1)\n"
            "    random.random()\n"
            "    helper(2)\n",
            "mod.py")
        fn = summary.functions["f"]
        assert [s.description for s in fn.wallclock_sinks] == [
            "_t.perf_counter()", "sleep()"]
        assert [s.description for s in fn.random_sinks] == ["random.random()"]
        assert ("helper",) in [c.parts for c in fn.calls]

    def test_seeded_random_is_not_a_sink(self):
        summary = summarize_source(
            "import random\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n",
            "mod.py")
        assert summary.functions["f"].random_sinks == []

    def test_unseeded_random_constructor_is_a_sink(self):
        summary = summarize_source(
            "import random\n"
            "def f():\n"
            "    return random.Random()\n",
            "mod.py")
        sinks = summary.functions["f"].random_sinks
        assert len(sinks) == 1
        assert "without a seed" in sinks[0].description

    def test_summary_round_trips_through_dict(self):
        summary = summarize_source(
            "import time\n"
            "class C:\n"
            "    def m(self):\n"
            "        time.sleep(1)  # repro: noqa[RC201]\n",
            "mod.py")
        from repro.analysis.callgraph import FileSummary

        clone = FileSummary.from_dict(
            json.loads(json.dumps(summary.to_dict())))
        assert clone.functions["C.m"].wallclock_sinks[0].line == 4
        assert clone.suppression_index().is_suppressed(4, "RC201")


# ------------------------------------------------------------ resolution


class TestResolution:
    def _graph(self, tmp_path, files):
        _package(tmp_path, "pkg")
        paths = [_write(tmp_path, rel, src) for rel, src in files.items()]
        paths.append(str(tmp_path / "pkg" / "__init__.py"))
        return build_call_graph(paths)

    def test_cross_module_from_import(self, tmp_path):
        graph = self._graph(tmp_path, {
            "pkg/a.py": "from pkg.b import helper\ndef f():\n    helper()\n",
            "pkg/b.py": "def helper():\n    pass\n",
        })
        a = str(tmp_path / "pkg" / "a.py")
        b = str(tmp_path / "pkg" / "b.py")
        assert ((b, "helper") in
                [callee for callee, _ in graph.edges[(a, "f")]])

    def test_module_alias_call(self, tmp_path):
        graph = self._graph(tmp_path, {
            "pkg/a.py": "import pkg.b as bee\ndef f():\n    bee.helper()\n",
            "pkg/b.py": "def helper():\n    pass\n",
        })
        a = str(tmp_path / "pkg" / "a.py")
        b = str(tmp_path / "pkg" / "b.py")
        assert ((b, "helper") in
                [callee for callee, _ in graph.edges[(a, "f")]])

    def test_self_call_dispatches_to_subclass_overrides(self, tmp_path):
        graph = self._graph(tmp_path, {
            "pkg/a.py": (
                "class Base:\n"
                "    def run(self):\n"
                "        self.hook()\n"
                "    def hook(self):\n"
                "        pass\n"
                "class Child(Base):\n"
                "    def hook(self):\n"
                "        pass\n"),
        })
        a = str(tmp_path / "pkg" / "a.py")
        callees = [callee for callee, _ in graph.edges[(a, "Base.run")]]
        assert (a, "Base.hook") in callees
        assert (a, "Child.hook") in callees

    def test_builtin_method_names_produce_no_fallback_edges(self, tmp_path):
        graph = self._graph(tmp_path, {
            "pkg/a.py": (
                "class Box:\n"
                "    def append(self, x):\n"
                "        pass\n"
                "def f(items):\n"
                "    items.append(1)\n"),
        })
        a = str(tmp_path / "pkg" / "a.py")
        assert graph.edges[(a, "f")] == []

    def test_unknown_method_falls_back_to_all_same_named(self, tmp_path):
        graph = self._graph(tmp_path, {
            "pkg/a.py": (
                "class Node:\n"
                "    def observe(self, t):\n"
                "        pass\n"
                "def f(node):\n"
                "    node.observe(0)\n"),
        })
        a = str(tmp_path / "pkg" / "a.py")
        assert ((a, "Node.observe") in
                [callee for callee, _ in graph.edges[(a, "f")]])

    def test_outside_module_calls_produce_no_fallback_edges(self, tmp_path):
        """``os.close(fd)`` never runs a project method named ``close``."""
        graph = self._graph(tmp_path, {
            "pkg/a.py": (
                "import os\n"
                "class Service:\n"
                "    def close(self):\n"
                "        pass\n"
                "def f(fd, service):\n"
                "    os.close(fd)\n"
                "def g(service):\n"
                "    service.close()\n"),
        })
        a = str(tmp_path / "pkg" / "a.py")
        assert graph.edges[(a, "f")] == []
        assert ((a, "Service.close") in
                [callee for callee, _ in graph.edges[(a, "g")]])

    def test_reachability_returns_shortest_chain(self, tmp_path):
        graph = self._graph(tmp_path, {
            "pkg/a.py": (
                "def entry():\n"
                "    mid()\n"
                "def mid():\n"
                "    leaf()\n"
                "def leaf():\n"
                "    pass\n"),
        })
        a = str(tmp_path / "pkg" / "a.py")
        parents = graph.reachable_from([(a, "entry")])
        chain = CallGraph.call_chain(parents, (a, "leaf"))
        assert [q for _, q in chain] == ["entry", "mid", "leaf"]


# ----------------------------------------------------------------- cache


class TestAnalysisCache:
    def test_summary_round_trip_and_hit_counting(self, tmp_path):
        path = _write(tmp_path, "mod.py", "def f():\n    pass\n")
        cache_file = str(tmp_path / "cache.json")
        cache = AnalysisCache(cache_file)
        assert cache.get_summary(path) is None
        cache.put_summary(path, summarize_source("def f():\n    pass\n",
                                                 path))
        cache.save()

        warm = AnalysisCache(cache_file)
        summary = warm.get_summary(path)
        assert summary is not None and "f" in summary.functions
        assert warm.hits == 1

    def test_stale_mtime_invalidates(self, tmp_path):
        path = _write(tmp_path, "mod.py", "def f():\n    pass\n")
        cache_file = str(tmp_path / "cache.json")
        cache = AnalysisCache(cache_file)
        cache.put_summary(path, summarize_source("def f():\n    pass\n",
                                                 path))
        cache.save()

        with open(path, "w", encoding="utf-8") as handle:
            handle.write("def g():\n    pass\n")
        os.utime(path, (1, 1))  # force a different mtime either way
        warm = AnalysisCache(cache_file)
        assert warm.get_summary(path) is None
        assert warm.misses == 1

    def test_same_length_edit_with_restored_mtime_reparses(self, tmp_path):
        """Entries are validated by content: an edit that keeps the size
        and puts the mtime back (as some sync and checkout tools do) must
        re-parse, where an ``(mtime_ns, size)`` key replays the stale
        summary."""
        path = _write(tmp_path, "mod.py", "def f():\n    pass\n")
        before = os.stat(path)
        cache_file = str(tmp_path / "cache.json")
        cold = AnalysisCache(cache_file)
        load_project([path], cache=cold)
        cold.save()

        with open(path, "w", encoding="utf-8") as handle:
            handle.write("def g():\n    pass\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == \
            (before.st_size, before.st_mtime_ns)
        warm = AnalysisCache(cache_file)
        project = load_project([path], cache=warm)
        assert (warm.hits, warm.misses) == (0, 1)
        assert list(project.summaries[path].functions) == ["g"]

    def test_touch_without_an_edit_still_hits(self, tmp_path):
        path = _write(tmp_path, "mod.py", "def f():\n    pass\n")
        cache_file = str(tmp_path / "cache.json")
        cold = AnalysisCache(cache_file)
        load_project([path], cache=cold)
        cold.save()

        os.utime(path, ns=(1, 1))
        warm = AnalysisCache(cache_file)
        assert warm.get_summary(path) is not None
        assert (warm.hits, warm.misses) == (1, 0)

    def test_corrupted_cache_file_recovers_silently(self, tmp_path):
        path = _write(tmp_path, "mod.py", "def f():\n    pass\n")
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json at all", encoding="utf-8")
        cache = AnalysisCache(str(cache_file))
        assert cache.get_summary(path) is None
        cache.put_summary(path, summarize_source("def f():\n    pass\n",
                                                 path))
        cache.save()
        assert AnalysisCache(str(cache_file)).get_summary(path) is not None

    def test_wrong_schema_version_discarded(self, tmp_path):
        path = _write(tmp_path, "mod.py", "x = 1\n")
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(json.dumps({
            "schema_version": CACHE_SCHEMA_VERSION + 1,
            "files": {os.path.abspath(path): {
                "sha256": file_digest(path),
                "summary_version": SUMMARY_SCHEMA_VERSION,
                "summary": summarize_source("x = 1\n", path).to_dict(),
            }},
        }), encoding="utf-8")
        cache = AnalysisCache(str(cache_file))
        assert cache.get_summary(path) is None

    def test_corrupted_summary_payload_is_a_miss(self, tmp_path):
        path = _write(tmp_path, "mod.py", "x = 1\n")
        cache_file = tmp_path / "cache.json"
        cache_file.write_text(json.dumps({
            "schema_version": CACHE_SCHEMA_VERSION,
            "files": {os.path.abspath(path): {
                "sha256": file_digest(path),
                "summary_version": SUMMARY_SCHEMA_VERSION,
                "summary": {"garbage": True},
            }},
        }), encoding="utf-8")
        cache = AnalysisCache(str(cache_file))
        assert cache.get_summary(path) is None
        assert cache.misses == 1

    def test_findings_cache_round_trip(self, tmp_path):
        path = _write(tmp_path, "mod.py", "x = 1\n")
        cache_file = str(tmp_path / "cache.json")
        key = rules_cache_key(["RC101"], frozenset({"Event"}))
        cache = AnalysisCache(cache_file)
        cache.put_findings(path, key, [{"code": "RC101"}], 2)
        cache.save()
        warm = AnalysisCache(cache_file)
        assert warm.get_findings(path, key) == ([{"code": "RC101"}], 2)
        assert warm.get_findings(path, "other-key") is None

    def test_rules_key_depends_on_codes_and_vocabulary(self):
        base = rules_cache_key(["RC101", "RC102"], frozenset({"A"}))
        assert rules_cache_key(["RC102", "RC101"], frozenset({"A"})) == base
        assert rules_cache_key(["RC101"], frozenset({"A"})) != base
        assert rules_cache_key(["RC101", "RC102"], frozenset({"B"})) != base

    def test_rules_key_folds_the_analysis_schema_versions(self, monkeypatch):
        """Bumping the summary or effect schema must move every rules
        key, so an upgraded analyzer never replays findings cached under
        an older extraction or effect interpretation."""
        import repro.analysis.callgraph as cg

        base = rules_cache_key(["RC101"], None)
        monkeypatch.setattr(cg, "SUMMARY_SCHEMA_VERSION",
                            cg.SUMMARY_SCHEMA_VERSION + 1)
        bumped_summary = rules_cache_key(["RC101"], None)
        assert bumped_summary != base
        monkeypatch.setattr(cg, "EFFECT_SCHEMA_VERSION",
                            cg.EFFECT_SCHEMA_VERSION + 1)
        assert rules_cache_key(["RC101"], None) != bumped_summary

    def test_unwritable_cache_directory_never_raises(self, tmp_path):
        path = _write(tmp_path, "mod.py", "x = 1\n")
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory", encoding="utf-8")
        cache = AnalysisCache(str(blocked / "cache.json"))
        cache.put_summary(path, summarize_source("x = 1\n", path))
        cache.save()  # must not raise


# ------------------------------------------------- engine cache integration


class TestEngineCacheIntegration:
    def test_warm_run_reuses_findings_and_rehomes_paths(self, tmp_path,
                                                        monkeypatch):
        from repro.analysis.lint import lint_paths

        _package(tmp_path, "pkg", "bus")
        _write(tmp_path, "pkg/bus/mod.py",
               "import time\n"
               "def f():\n"
               "    return time.time()\n")
        cache_file = str(tmp_path / "cache.json")
        monkeypatch.chdir(tmp_path)

        cold_cache = AnalysisCache(cache_file)
        cold = lint_paths(["pkg"], cache=cold_cache)
        cold_cache.save()
        assert not cold.ok

        warm_cache = AnalysisCache(cache_file)
        warm = lint_paths(["pkg"], cache=warm_cache)
        assert [f.to_dict() for f in warm.findings] == \
            [f.to_dict() for f in cold.findings]
        assert warm_cache.hits > 0

    def test_edited_file_invalidates_only_its_entry(self, tmp_path,
                                                    monkeypatch):
        from repro.analysis.lint import lint_paths

        _package(tmp_path, "pkg", "bus")
        offender = _write(tmp_path, "pkg/bus/mod.py",
                          "import time\n"
                          "def f():\n"
                          "    return time.time()\n")
        _write(tmp_path, "pkg/bus/clean.py", "def g():\n    return 1\n")
        cache_file = str(tmp_path / "cache.json")
        monkeypatch.chdir(tmp_path)

        cache = AnalysisCache(cache_file)
        assert not lint_paths(["pkg"], cache=cache).ok
        cache.save()

        with open(offender, "w", encoding="utf-8") as handle:
            handle.write("def f(now):\n    return now\n")
        os.utime(offender, (2, 2))
        warm_cache = AnalysisCache(cache_file)
        report = lint_paths(["pkg"], cache=warm_cache)
        assert report.ok
        assert warm_cache.hits > 0 and warm_cache.misses > 0

    def test_same_length_edit_with_restored_mtime_relints(self, tmp_path,
                                                          monkeypatch):
        """Cached findings are content-keyed too: defusing the offender
        without changing its size or mtime must not replay its finding."""
        from repro.analysis.lint import lint_paths

        _package(tmp_path, "pkg", "bus")
        offender = _write(tmp_path, "pkg/bus/mod.py",
                          "import time\n"
                          "def f():\n"
                          "    return time.time()\n")
        before = os.stat(offender)
        cache_file = str(tmp_path / "cache.json")
        monkeypatch.chdir(tmp_path)

        cache = AnalysisCache(cache_file)
        assert not lint_paths(["pkg"], cache=cache).ok
        cache.save()

        with open(offender, "w", encoding="utf-8") as handle:
            handle.write("import time\n"
                         "def f():\n"
                         "    return time.tame()\n")
        os.utime(offender, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(offender).st_size == before.st_size
        assert lint_paths(["pkg"], cache=AnalysisCache(cache_file)).ok
