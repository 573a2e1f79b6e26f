"""Interprocedural rules RC201/RC202 and RC301/RC302, and their CLI wiring."""

import json
import os

import pytest

from repro.analysis.lint import lint_paths
from repro.cli import main
from repro.errors import ConfigurationError


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


def _fixture_tree(tmp_path, noqa_line=""):
    """A mini-project where ``time.time()`` sits two call hops below the
    simulator step loop, in a module the per-file rules never look at."""
    _package(tmp_path, "pkg", "bus")
    _package(tmp_path, "pkg", "util")
    _write(tmp_path, "pkg/bus/simulator.py",
           "from pkg.util.sched import advance\n"
           "class Simulator:\n"
           "    def step(self):\n"
           "        advance(self)\n")
    _write(tmp_path, "pkg/util/sched.py",
           "from pkg.util.clock import now\n"
           "def advance(sim):\n"
           "    return now()\n")
    _write(tmp_path, "pkg/util/clock.py",
           "import time\n"
           "def now():\n"
           f"    return time.time(){noqa_line}\n")
    return str(tmp_path / "pkg")


class TestTransitiveWallclock:
    def test_two_hops_below_simulator_is_flagged_rc201(self, tmp_path,
                                                       monkeypatch):
        root = _fixture_tree(tmp_path)
        monkeypatch.chdir(tmp_path)

        report = lint_paths([root], deep=True)
        codes = [f.code for f in report.findings]
        assert "RC201" in codes
        finding = next(f for f in report.findings if f.code == "RC201")
        assert finding.path.replace("\\", "/").endswith("util/clock.py")
        assert "Simulator.step -> advance -> now" in finding.message

    def test_same_tree_passes_the_per_file_rules(self, tmp_path,
                                                 monkeypatch):
        root = _fixture_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert lint_paths([root]).ok  # util/ is outside RC101's scope

    def test_unreachable_sink_is_not_flagged(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "bus")
        _package(tmp_path, "pkg", "tools")
        _write(tmp_path, "pkg/bus/simulator.py",
               "class Simulator:\n"
               "    def step(self):\n"
               "        return 1\n")
        _write(tmp_path, "pkg/tools/cli.py",
               "import time\n"
               "def bench():\n"
               "    return time.time()\n")
        monkeypatch.chdir(tmp_path)
        assert lint_paths([str(tmp_path / "pkg")], deep=True).ok

    def test_unseeded_random_two_hops_down_is_rc202(self, tmp_path,
                                                    monkeypatch):
        _package(tmp_path, "pkg", "bus")
        _package(tmp_path, "pkg", "util")
        _write(tmp_path, "pkg/bus/simulator.py",
               "from pkg.util.noise import jitter\n"
               "class Simulator:\n"
               "    def step(self):\n"
               "        return jitter()\n")
        _write(tmp_path, "pkg/util/noise.py",
               "import random\n"
               "def jitter():\n"
               "    return random.random()\n")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([str(tmp_path / "pkg")], deep=True)
        assert [f.code for f in report.findings] == ["RC202"]


class TestSinkSuppression:
    def test_noqa_at_the_sink_suppresses(self, tmp_path, monkeypatch):
        root = _fixture_tree(tmp_path, noqa_line="  # repro: noqa[RC201]")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert report.ok
        assert report.suppressed == 1

    def test_noqa_on_the_transitive_caller_does_not_suppress(
            self, tmp_path, monkeypatch):
        root = _fixture_tree(tmp_path)
        # Decorate every line of the *caller* chain with suppressions: the
        # finding anchors at the sink, so none of these may silence it.
        sched = tmp_path / "pkg" / "util" / "sched.py"
        sched.write_text(
            "from pkg.util.clock import now  # repro: noqa[RC201]\n"
            "def advance(sim):  # repro: noqa[RC201]\n"
            "    return now()  # repro: noqa[RC201]\n",
            encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert [f.code for f in report.findings] == ["RC201"]
        assert report.suppressed == 0


class TestSelection:
    def test_deep_codes_require_deep_flag(self):
        with pytest.raises(ConfigurationError):
            lint_paths(["src"], select=["RC201"])

    def test_unknown_code_still_rejected(self):
        with pytest.raises(ConfigurationError):
            lint_paths(["src"], select=["RC999"], deep=True)

    def test_deep_only_selection_skips_per_file_rules(self, tmp_path,
                                                      monkeypatch):
        _package(tmp_path, "pkg", "bus")
        _write(tmp_path, "pkg/bus/mod.py",
               "import time\n"
               "def f():\n"
               "    return time.time()\n")  # RC101 would fire
        monkeypatch.chdir(tmp_path)
        report = lint_paths([str(tmp_path / "pkg")], select=["RC301"],
                            deep=True)
        assert report.ok  # RC101 not selected, RC301 has no worker entry

    def test_deep_rules_can_be_ignored(self, tmp_path, monkeypatch):
        root = _fixture_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], ignore=["RC201"], deep=True)
        assert "RC201" not in [f.code for f in report.findings]


class TestRepoTreeGate:
    def test_repo_tree_is_deep_clean(self):
        """`repro lint --deep src/` must exit 0 on the repo itself: the
        analyzer proves the tree's hot paths deterministic and its
        worker paths free of unlocked shared state."""
        report = lint_paths(["src"], deep=True)
        assert report.ok, report.render_text()
        # Sanctioned sinks are suppressed at the sink, so they must show
        # up in the counter: the hang fault's sleep (RC201), the
        # serialize memo (RC302 x2), and the warn-dedup / flight-registry
        # globals (RC301 x4).
        assert report.suppressed >= 7


class TestCli:
    def test_lint_deep_flag(self, tmp_path, monkeypatch, capsys):
        root = _fixture_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--no-cache", root]) == 0
        capsys.readouterr()
        assert main(["lint", "--no-cache", "--deep", root]) == 1
        assert "RC201" in capsys.readouterr().out

    def test_lint_deep_json_format(self, tmp_path, monkeypatch, capsys):
        root = _fixture_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--no-cache", "--deep", "--format", "json",
                     root]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload["findings"]] == ["RC201"]

    def test_list_rules_includes_deep_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RC101", "RC201", "RC405"):
            assert code in out

    def test_lint_cache_flag_writes_and_reuses(self, tmp_path, monkeypatch,
                                               capsys):
        root = _fixture_tree(tmp_path)
        cache_file = tmp_path / "lint-cache.json"
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--cache", str(cache_file), root]) == 0
        assert cache_file.exists()
        capsys.readouterr()
        assert main(["lint", "--cache", str(cache_file), root]) == 0


def _worker_tree(tmp_path, body_lines, extra_files=()):
    """A mini-project whose ``execute_spec`` worker calls into ``body``."""
    _package(tmp_path, "pkg", "experiments")
    _package(tmp_path, "pkg", "util")
    _write(tmp_path, "pkg/experiments/campaign.py",
           "from pkg.util.state import body\n"
           "def execute_spec(spec):\n"
           "    return body(spec)\n")
    _write(tmp_path, "pkg/util/state.py",
           "".join(line + "\n" for line in body_lines))
    for relative, source in extra_files:
        _write(tmp_path, relative, source)
    return str(tmp_path / "pkg")


class TestWorkerSharedState:
    def test_global_mutation_under_worker_is_rc301(self, tmp_path,
                                                   monkeypatch):
        root = _worker_tree(tmp_path, [
            "SEEN = []",
            "def body(spec):",
            "    SEEN.append(spec)",
        ])
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        findings = [f for f in report.findings if f.code == "RC301"]
        assert len(findings) == 1
        assert findings[0].path.replace("\\", "/").endswith("util/state.py")
        assert "execute_spec -> body" in findings[0].message

    def test_unlocked_cache_mutation_is_rc302(self, tmp_path, monkeypatch):
        root = _worker_tree(tmp_path, [
            "_CACHE = {}",
            "def body(spec):",
            "    _CACHE[spec] = 1",
        ])
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert [f.code for f in report.findings] == ["RC302"]
        assert "_CACHE" in report.findings[0].message

    def test_locked_cache_mutation_passes(self, tmp_path, monkeypatch):
        root = _worker_tree(tmp_path, [
            "import threading",
            "_CACHE = {}",
            "_LOCK = threading.Lock()",
            "def body(spec):",
            "    with _LOCK:",
            "        _CACHE[spec] = 1",
        ])
        monkeypatch.chdir(tmp_path)
        assert lint_paths([root], deep=True).ok

    def test_unreachable_mutation_is_not_flagged(self, tmp_path,
                                                 monkeypatch):
        root = _worker_tree(tmp_path, [
            "SEEN = []",
            "def body(spec):",
            "    return spec",
            "def offline_tool(spec):",
            "    SEEN.append(spec)",
        ])
        monkeypatch.chdir(tmp_path)
        assert lint_paths([root], deep=True).ok

    def test_noqa_at_the_mutation_site_suppresses(self, tmp_path,
                                                  monkeypatch):
        root = _worker_tree(tmp_path, [
            "SEEN = []",
            "def body(spec):",
            "    SEEN.append(spec)  # repro: noqa[RC301]",
        ])
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert report.ok
        assert report.suppressed == 1

    def test_registered_factory_is_a_worker_entry(self, tmp_path,
                                                  monkeypatch):
        """A mutation below a registered scenario factory is flagged even
        when the campaign machinery never calls it statically."""
        _package(tmp_path, "pkg", "experiments")
        _write(tmp_path, "pkg/experiments/scen.py",
               "STATE = []\n"
               "def make():\n"
               "    STATE.append(1)\n"
               "    return object()\n"
               "def register_scenario(name, factory):\n"
               "    return factory\n"
               "register_scenario('s', make)\n")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([str(tmp_path / "pkg")], deep=True)
        assert [f.code for f in report.findings] == ["RC301"]
        assert "make" in report.findings[0].message


class TestPurityManifestCli:
    def test_manifest_requires_deep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _package(tmp_path, "pkg")
        _write(tmp_path, "pkg/mod.py", "x = 1\n")
        assert main(["lint", "--no-cache", "--purity-manifest",
                     str(tmp_path / "p.json"), "pkg"]) == 2
        assert "--deep" in capsys.readouterr().err

    def test_manifest_is_written_and_loadable(self, tmp_path, capsys):
        from repro.analysis.purity import PurityManifest
        from repro.experiments.campaign import scenario_names

        out = str(tmp_path / "purity.json")
        assert main(["lint", "--no-cache", "--deep",
                     "--purity-manifest", out, "src/repro"]) == 0
        stdout = capsys.readouterr().out
        assert "purity manifest:" in stdout
        manifest = PurityManifest.load(out)
        assert manifest is not None
        assert sorted(manifest.scenarios) == scenario_names()


class TestEntryTables:
    def test_every_entry_resolves_to_a_function_in_the_package(self):
        """A table entry that matches nothing silently drops the rule's
        coverage of it (``find_functions`` returns an empty list)."""
        import repro
        from repro.analysis.callgraph import load_project
        from repro.analysis.lint.deep import ENTRY_SPECS, WORKER_ENTRY_SPECS

        root = os.path.dirname(repro.__file__)
        files = sorted(os.path.join(directory, name)
                       for directory, _, names in os.walk(root)
                       for name in names if name.endswith(".py"))
        project = load_project(files)
        unresolved = [
            (suffix, name)
            for table in (ENTRY_SPECS, WORKER_ENTRY_SPECS)
            for suffix, names in table
            for name in names
            if not project.find_functions(suffix, [name])]
        assert unresolved == []
