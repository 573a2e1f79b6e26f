"""Effect analysis (fixpoint + slices) and the purity manifest."""

import json

from repro.analysis.callgraph import CallGraph, load_project
from repro.analysis.effects import (
    EFFECT_AMBIENT,
    EFFECT_IO,
    EFFECT_MUTATES_ARGS,
    EFFECT_MUTATES_GLOBAL,
    EffectAnalysis,
    is_cache_like,
    local_effect_sites,
)
from repro.analysis.purity import (
    MANIFEST_SCHEMA_VERSION,
    PurityManifest,
    ScenarioPurity,
    build_purity_manifest,
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


def _analysis(tmp_path, files):
    project = load_project(files)
    return project, EffectAnalysis(CallGraph(project))


class TestLocalEffects:
    def test_global_mutation_io_and_ambient_are_recorded(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      "import os\n"
                      "STATE = {}\n"
                      "def f(key):\n"
                      "    STATE[key] = 1\n"
                      "    print(key)\n"
                      "    return os.environ\n")
        project, _analysis_ = _analysis(tmp_path, [path])
        fn = project.summaries[path].functions["f"]
        kinds = {site.kind for site in local_effect_sites(path, fn)}
        assert EFFECT_MUTATES_GLOBAL in kinds
        assert EFFECT_IO in kinds
        assert EFFECT_AMBIENT in kinds

    def test_param_mutation_is_mutates_args_not_global(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      "def f(out):\n"
                      "    out.append(1)\n")
        project, _analysis_ = _analysis(tmp_path, [path])
        fn = project.summaries[path].functions["f"]
        kinds = [site.kind for site in local_effect_sites(path, fn)]
        assert kinds == [EFFECT_MUTATES_ARGS]

    def test_constructor_self_mutation_is_exempt(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      "class C:\n"
                      "    def __init__(self):\n"
                      "        self.items = []\n"
                      "        self.items.append(1)\n"
                      "    def poke(self):\n"
                      "        self.items.append(2)\n")
        project, _analysis_ = _analysis(tmp_path, [path])
        init = project.summaries[path].functions["C.__init__"]
        poke = project.summaries[path].functions["C.poke"]
        assert local_effect_sites(path, init) == []
        assert [s.kind for s in local_effect_sites(path, poke)] \
            == [EFFECT_MUTATES_ARGS]

    def test_local_variables_are_not_effects(self, tmp_path):
        path = _write(tmp_path, "mod.py",
                      "def f():\n"
                      "    acc = []\n"
                      "    acc.append(1)\n"
                      "    total = 0\n"
                      "    total += 1\n"
                      "    return acc, total\n")
        project, _analysis_ = _analysis(tmp_path, [path])
        fn = project.summaries[path].functions["f"]
        assert local_effect_sites(path, fn) == []


class TestFixpoint:
    def test_callee_effects_propagate_to_callers(self, tmp_path):
        _package(tmp_path, "pkg")
        _write(tmp_path, "pkg/leaf.py",
               "STATE = []\n"
               "def poke():\n"
               "    STATE.append(1)\n")
        mid = _write(tmp_path, "pkg/mid.py",
                     "from pkg.leaf import poke\n"
                     "def relay():\n"
                     "    poke()\n")
        top = _write(tmp_path, "pkg/top.py",
                     "from pkg.mid import relay\n"
                     "def drive():\n"
                     "    relay()\n")
        files = [str(p) for p in (tmp_path / "pkg").glob("*.py")]
        _project, analysis = _analysis(tmp_path, files)
        sets = analysis.effect_sets()
        assert EFFECT_MUTATES_GLOBAL in sets[(top, "drive")]
        assert EFFECT_MUTATES_GLOBAL in sets[(mid, "relay")]

    def test_slice_sites_carry_shortest_witness_chain(self, tmp_path):
        _package(tmp_path, "pkg")
        leaf = _write(tmp_path, "pkg/leaf.py",
                      "STATE = []\n"
                      "def poke():\n"
                      "    STATE.append(1)\n")
        _write(tmp_path, "pkg/mid.py",
               "from pkg.leaf import poke\n"
               "def relay():\n"
               "    poke()\n")
        top = _write(tmp_path, "pkg/top.py",
                     "from pkg.leaf import poke\n"
                     "from pkg.mid import relay\n"
                     "def drive():\n"
                     "    relay()\n"
                     "    poke()\n")
        files = [str(p) for p in (tmp_path / "pkg").glob("*.py")]
        _project, analysis = _analysis(tmp_path, files)
        parents = analysis.slice_from([(top, "drive")])
        sites = analysis.slice_sites(parents)
        (site, chain), = [(s, c) for s, c in sites
                          if s.path == leaf and s.kind
                          == EFFECT_MUTATES_GLOBAL]
        # The direct drive -> poke edge wins over drive -> relay -> poke.
        assert [qual for _, qual in chain] == ["drive", "poke"]

    def test_noqa_on_the_sink_line_drops_the_site(self, tmp_path):
        _package(tmp_path, "pkg")
        leaf = _write(tmp_path, "pkg/leaf.py",
                      "STATE = []\n"
                      "def poke():\n"
                      "    STATE.append(1)  # repro: noqa[RC301]\n")
        files = [leaf]
        _project, analysis = _analysis(tmp_path, files)
        parents = analysis.slice_from([(leaf, "poke")])
        assert analysis.slice_sites(parents) == []
        raw = analysis.slice_sites(parents, respect_suppressions=False)
        assert [s.kind for s, _ in raw] == [EFFECT_MUTATES_GLOBAL]

    def test_is_cache_like_names(self):
        assert is_cache_like("_SERIALIZE_CACHE")
        assert is_cache_like("memo_table")
        assert not is_cache_like("_REGISTRY")


class TestManifestRoundTrip:
    def _manifest(self):
        manifest = PurityManifest()
        manifest.scenarios["exp1"] = ScenarioPurity(
            scenario="exp1", factory="m:f", verdict="pure",
            slice_files=[{"path": "a.py", "sha256": "00"}],
            slice_hash="abc")
        return manifest

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "purity.json")
        self._manifest().save(path)
        loaded = PurityManifest.load(path)
        assert loaded is not None
        assert loaded.verdict("exp1") == "pure"
        assert loaded.slice_hash("exp1") == "abc"
        assert loaded.verdict("missing") == "unresolved"
        assert loaded.slice_hash("missing") is None

    def test_corrupted_manifest_loads_as_none(self, tmp_path):
        path = tmp_path / "purity.json"
        path.write_text("{ not json", encoding="utf-8")
        assert PurityManifest.load(str(path)) is None

    def test_stale_schema_version_loads_as_none(self, tmp_path):
        path = tmp_path / "purity.json"
        data = self._manifest().to_dict()
        data["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        path.write_text(json.dumps(data), encoding="utf-8")
        assert PurityManifest.load(str(path)) is None

    def test_stale_summary_schema_loads_as_none(self, tmp_path):
        path = tmp_path / "purity.json"
        data = self._manifest().to_dict()
        data["summary_schema_version"] = -1
        path.write_text(json.dumps(data), encoding="utf-8")
        assert PurityManifest.load(str(path)) is None

    def test_missing_manifest_loads_as_none(self, tmp_path):
        assert PurityManifest.load(str(tmp_path / "absent.json")) is None


class TestRealRegistry:
    def test_every_builtin_scenario_certifies_pure(self):
        """The repo's own registry is the good fixture: every factory the
        campaign ships must certify pure, or the result cache silently
        turns itself off for it."""
        from repro.experiments.campaign import scenario_names

        manifest = build_purity_manifest(["src/repro"])
        assert sorted(manifest.scenarios) == scenario_names()
        verdicts = {name: entry.verdict
                    for name, entry in manifest.scenarios.items()}
        assert set(verdicts.values()) == {"pure"}, verdicts
        for entry in manifest.scenarios.values():
            assert entry.slice_hash
            assert entry.slice_files

    def test_editing_a_slice_file_moves_the_hash(self, tmp_path):
        """Rehashing after an edit to any slice file must change the
        scenario's slice hash (the cache-invalidation lever)."""
        import os
        import shutil

        shutil.copytree("src/repro", tmp_path / "repro")
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            before = build_purity_manifest(["repro"])
            target = tmp_path / "repro" / "experiments" / "scenarios.py"
            target.write_text(
                target.read_text(encoding="utf-8") + "\n# edited\n",
                encoding="utf-8")
            after = build_purity_manifest(["repro"])
        finally:
            os.chdir(cwd)
        assert before.slice_hash("exp4") != after.slice_hash("exp4")

    def test_impure_scenario_is_flagged_with_its_effects(self, monkeypatch,
                                                         tmp_path):
        """A deliberately impure factory (module-global mutation) must
        certify impure, with the offending site in the evidence list."""
        import sys

        import repro.experiments.campaign as campaign

        _package(tmp_path, "impurepkg")
        _write(tmp_path, "impurepkg/scen.py",
               "COUNTER = []\n"
               "def make(seed=0):\n"
               "    COUNTER.append(seed)\n"
               "    return object()\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(campaign, "_REGISTRY",
                            dict(campaign._REGISTRY))
        import importlib

        scen = importlib.import_module("impurepkg.scen")
        campaign.register_scenario("deliberately_impure", scen.make)
        try:
            manifest = build_purity_manifest(
                [str(tmp_path / "impurepkg")])
        finally:
            del sys.modules["impurepkg.scen"]
            del sys.modules["impurepkg"]
        entry = manifest.scenarios["deliberately_impure"]
        assert entry.verdict == "impure"
        kinds = {effect["kind"] for effect in entry.effects}
        assert "mutates-global" in kinds
        chains = [effect["chain"] for effect in entry.effects
                  if effect["kind"] == "mutates-global"]
        assert ["make"] in chains  # shortest witness: the factory itself

    def test_unknown_factory_is_unresolved(self, monkeypatch):
        import repro.experiments.campaign as campaign

        monkeypatch.setattr(campaign, "_REGISTRY",
                            dict(campaign._REGISTRY))
        campaign.register_scenario("lambda_scenario", lambda: object())
        manifest = build_purity_manifest(["src/repro"])
        assert manifest.verdict("lambda_scenario") == "unresolved"

    def test_nested_def_factory_is_unresolved(self, monkeypatch):
        """A factory defined inside another function has a ``<locals>``
        qualname that the static graph cannot locate."""
        import repro.experiments.campaign as campaign

        def make(seed=0):
            return object()

        monkeypatch.setattr(campaign, "_REGISTRY",
                            dict(campaign._REGISTRY))
        campaign.register_scenario("nested_scenario", make)
        manifest = build_purity_manifest(["src/repro"])
        assert manifest.verdict("nested_scenario") == "unresolved"
        assert "<locals>" in manifest.scenarios["nested_scenario"].factory
