"""Interprocedural rules RC201–RC205 and their CLI wiring."""

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


class TestFaultContainment:
    def _tree(self, tmp_path, guard):
        _package(tmp_path, "pkg", "experiments")
        _package(tmp_path, "pkg", "faults")
        _write(tmp_path, "pkg/faults/boom.py",
               "class InjectedFaultError(Exception):\n"
               "    pass\n"
               "class CrashFault(InjectedFaultError):\n"
               "    pass\n"
               "def execute_spec(spec):\n"
               "    raise CrashFault('worker died')\n")
        handler = (
            "        except Exception:\n            return None\n" if guard
            else "        except KeyboardInterrupt:\n            raise\n")
        _write(tmp_path, "pkg/experiments/campaign.py",
               "from pkg.faults.boom import execute_spec\n"
               "class Campaign:\n"
               "    def run(self):\n"
               "        try:\n"
               "            return execute_spec(None)\n"
               f"{handler}")
        return str(tmp_path / "pkg")

    def test_contained_fault_passes(self, tmp_path, monkeypatch):
        root = self._tree(tmp_path, guard=True)
        monkeypatch.chdir(tmp_path)
        assert lint_paths([root], deep=True).ok

    def test_escaping_fault_is_rc203_at_the_raise_site(self, tmp_path,
                                                       monkeypatch):
        root = self._tree(tmp_path, guard=False)
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        findings = [f for f in report.findings if f.code == "RC203"]
        assert len(findings) == 1
        assert findings[0].path.replace("\\", "/").endswith("faults/boom.py")
        assert "Campaign.run" in findings[0].message


class TestEventLiveness:
    def _tree(self, tmp_path, consumer_lines, emitter_lines):
        _package(tmp_path, "pkg", "bus")
        _write(tmp_path, "pkg/bus/events.py",
               "class Event:\n"
               "    pass\n"
               "class FrameSent(Event):\n"
               "    pass\n"
               "class FrameDropped(Event):\n"
               "    pass\n")
        _write(tmp_path, "pkg/bus/sim.py",
               "from pkg.bus.events import FrameDropped, FrameSent\n"
               "def run(listener):\n"
               + "".join(f"    {line}\n" for line in emitter_lines)
               + "def watch(event):\n"
               + "".join(f"    {line}\n" for line in consumer_lines))
        return str(tmp_path / "pkg")

    def test_alive_vocabulary_passes(self, tmp_path, monkeypatch):
        root = self._tree(
            tmp_path,
            emitter_lines=["listener(FrameSent())",
                           "listener(FrameDropped())"],
            consumer_lines=["return isinstance(event, "
                            "(FrameSent, FrameDropped))"])
        monkeypatch.chdir(tmp_path)
        assert lint_paths([root], deep=True).ok

    def test_emitted_never_consumed_is_rc204(self, tmp_path, monkeypatch):
        root = self._tree(
            tmp_path,
            emitter_lines=["listener(FrameSent())",
                           "listener(FrameDropped())"],
            consumer_lines=["return isinstance(event, FrameSent)"])
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert [f.code for f in report.findings] == ["RC204"]
        assert "FrameDropped" in report.findings[0].message

    def test_consumed_never_emitted_is_rc205(self, tmp_path, monkeypatch):
        root = self._tree(
            tmp_path,
            emitter_lines=["listener(FrameSent())"],
            consumer_lines=["return isinstance(event, "
                            "(FrameSent, FrameDropped))"])
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert [f.code for f in report.findings] == ["RC205"]
        assert "FrameDropped" in report.findings[0].message

    def test_annotations_are_not_consumption_evidence(self, tmp_path,
                                                      monkeypatch):
        root = self._tree(
            tmp_path,
            emitter_lines=["listener(FrameSent())",
                           "listener(FrameDropped())"],
            consumer_lines=["return isinstance(event, FrameSent)"])
        _write(tmp_path, "pkg/bus/types.py",
               "from pkg.bus.events import FrameDropped\n"
               "def annotated(event: FrameDropped) -> FrameDropped:\n"
               "    return event\n")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], deep=True)
        assert "RC204" in [f.code for f in report.findings]


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
        report = lint_paths([str(tmp_path / "pkg")], select=["RC204"],
                            deep=True)
        assert report.ok  # RC101 not selected, RC204 has no events.py

    def test_deep_rules_can_be_ignored(self, tmp_path, monkeypatch):
        root = _fixture_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        report = lint_paths([root], ignore=["RC201"], deep=True)
        assert "RC201" not in [f.code for f in report.findings]


class TestRepoTreeGate:
    def test_repo_tree_is_deep_clean(self):
        """`repro lint --deep src/` must exit 0 on the repo itself: the
        analyzer proves the tree's hot paths deterministic, its injected
        faults contained, and its event vocabulary alive."""
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
        for code in ("RC101", "RC201", "RC205"):
            assert code in out

    def test_lint_changed_in_a_fresh_repo(self, tmp_path, monkeypatch,
                                          capsys):
        import subprocess

        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        "commit", "-q", "--allow-empty", "-m", "seed"],
                       check=True)
        _package(tmp_path, "pkg", "bus")
        _write(tmp_path, "pkg/bus/mod.py",
               "import time\n"
               "def f():\n"
               "    return time.time()\n")
        assert main(["lint", "--no-cache", "--changed"]) == 1
        out = capsys.readouterr().out
        assert "RC101" in out

    def test_lint_changed_outside_a_repo_is_exit_2(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nope"))
        assert main(["lint", "--no-cache", "--changed"]) == 2
        assert "git" in capsys.readouterr().err

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


class TestPickleSafeRegistration:
    def test_lambda_registration_is_rc303(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "experiments")
        _write(tmp_path, "pkg/experiments/scen.py",
               "def register_scenario(name, factory):\n"
               "    return factory\n"
               "register_scenario('bad', lambda: object())\n")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([str(tmp_path / "pkg")], deep=True)
        assert [f.code for f in report.findings] == ["RC303"]
        assert "'bad'" in report.findings[0].message
        assert report.findings[0].line == 3

    def test_nested_def_registration_is_rc303(self, tmp_path, monkeypatch):
        _package(tmp_path, "pkg", "experiments")
        _write(tmp_path, "pkg/experiments/scen.py",
               "def register_scenario(name, factory):\n"
               "    return factory\n"
               "def install():\n"
               "    def make():\n"
               "        return object()\n"
               "    register_scenario('nested', make)\n")
        monkeypatch.chdir(tmp_path)
        report = lint_paths([str(tmp_path / "pkg")], deep=True)
        assert [f.code for f in report.findings] == ["RC303"]
        assert "nested function make" in report.findings[0].message

    def test_module_level_ref_registration_passes(self, tmp_path,
                                                  monkeypatch):
        _package(tmp_path, "pkg", "experiments")
        _write(tmp_path, "pkg/experiments/scen.py",
               "def register_scenario(name, factory):\n"
               "    return factory\n"
               "def make():\n"
               "    return object()\n"
               "register_scenario('good', make)\n")
        monkeypatch.chdir(tmp_path)
        assert lint_paths([str(tmp_path / "pkg")], deep=True).ok


class TestChangedSetCli:
    def _seed_repo(self, tmp_path):
        import subprocess

        subprocess.run(["git", "init", "-q"], check=True)
        subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                        "commit", "-q", "--allow-empty", "-m", "seed"],
                       check=True)

    def test_untracked_new_file_is_picked_up_from_a_subdir(
            self, tmp_path, monkeypatch, capsys):
        """The historical bug: `git diff` prints toplevel-relative names,
        `git ls-files --others` cwd-relative ones — running --changed
        from a subdirectory silently dropped untracked new files."""
        monkeypatch.chdir(tmp_path)
        self._seed_repo(tmp_path)
        _package(tmp_path, "pkg", "bus")
        _write(tmp_path, "pkg/bus/mod.py",
               "import time\n"
               "def f():\n"
               "    return time.time()\n")
        monkeypatch.chdir(tmp_path / "pkg")
        assert main(["lint", "--no-cache", "--changed"]) == 1
        assert "RC101" in capsys.readouterr().out

    def test_changed_with_anchored_deep_select_errors_clearly(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._seed_repo(tmp_path)
        _package(tmp_path, "pkg", "util")
        _write(tmp_path, "pkg/util/helper.py",
               "def f():\n"
               "    return 1\n")
        assert main(["lint", "--no-cache", "--changed", "--deep",
                     "--select", "RC204"]) == 2
        err = capsys.readouterr().err
        assert "RC204" in err
        assert "bus/events.py" in err

    def test_changed_with_anchor_file_in_the_set_runs(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self._seed_repo(tmp_path)
        _package(tmp_path, "pkg", "bus")
        _write(tmp_path, "pkg/bus/events.py",
               "class Event:\n"
               "    pass\n"
               "class Orphan(Event):\n"
               "    pass\n")
        assert main(["lint", "--no-cache", "--changed", "--deep",
                     "--select", "RC204"]) == 1
        assert "Orphan" in capsys.readouterr().out

    def test_plain_changed_deep_has_no_anchor_requirement(self, tmp_path,
                                                          monkeypatch,
                                                          capsys):
        monkeypatch.chdir(tmp_path)
        self._seed_repo(tmp_path)
        _package(tmp_path, "pkg", "util")
        _write(tmp_path, "pkg/util/helper.py",
               "def f():\n"
               "    return 1\n")
        assert main(["lint", "--no-cache", "--changed", "--deep"]) == 0


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
        from repro.analysis.lint.deep import (
            ENTRY_SPECS,
            FAULT_BOUNDARY_SPECS,
            WORKER_ENTRY_SPECS,
        )

        root = os.path.dirname(repro.__file__)
        files = sorted(os.path.join(directory, name)
                       for directory, _, names in os.walk(root)
                       for name in names if name.endswith(".py"))
        project = load_project(files)
        tables = ((ENTRY_SPECS, False), (FAULT_BOUNDARY_SPECS, True),
                  (WORKER_ENTRY_SPECS, False))
        unresolved = [
            (suffix, name)
            for table, by_qualname in tables
            for suffix, names in table
            for name in names
            if not project.find_functions(suffix, [name],
                                          match_qualname=by_qualname)]
        assert unresolved == []
