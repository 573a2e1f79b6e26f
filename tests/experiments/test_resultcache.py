"""The content-addressed campaign result cache and its CLI wiring."""

import json
import os
import shutil

import pytest

import repro
from repro.analysis.callgraph import DEFAULT_CACHE_PATH, AnalysisCache
from repro.analysis.purity import (
    PurityManifest,
    ScenarioPurity,
    build_purity_manifest,
)
from repro.experiments.campaign import Campaign, RunRecord, ScenarioSpec
from repro.experiments.resultcache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
)


@pytest.fixture(scope="module")
def manifest():
    """One real effect-analysis pass shared by the whole module."""
    return build_purity_manifest(["src/repro"])


def _records_json(report):
    return json.dumps([record.to_dict() for record in report.records],
                      sort_keys=True)


class TestSpecHash:
    def test_no_manifest_means_uncacheable(self):
        cache = ResultCache(manifest=None)
        assert cache.spec_hash(ScenarioSpec("exp4")) is None
        assert cache.get(ScenarioSpec("exp4")) is None

    def test_pure_scenario_gets_a_stable_hash(self, manifest, tmp_path):
        cache = ResultCache(str(tmp_path), manifest)
        spec = ScenarioSpec("exp4", duration_bits=4000, seed=3)
        first = cache.spec_hash(spec)
        assert first is not None
        assert first == cache.spec_hash(
            ScenarioSpec("exp4", duration_bits=4000, seed=3))

    def test_every_spec_field_flip_moves_the_hash(self, manifest, tmp_path):
        cache = ResultCache(str(tmp_path), manifest)
        base = ScenarioSpec("exp4", duration_bits=4000, seed=3)
        flipped = [
            ScenarioSpec("exp4", duration_bits=4001, seed=3),
            ScenarioSpec("exp4", duration_bits=4000, seed=4),
            ScenarioSpec("exp4", duration_bits=4000, seed=3,
                         params={"n_attackers": 1}),
            ScenarioSpec("exp4", duration_bits=4000, seed=3, label="x"),
            ScenarioSpec("exp4", duration_bits=4000, seed=3, metrics=True),
            ScenarioSpec("exp4", duration_bits=4000, seed=3, engine="bit"),
            ScenarioSpec("exp3", duration_bits=4000, seed=3),
        ]
        hashes = {cache.spec_hash(spec) for spec in flipped}
        assert cache.spec_hash(base) not in hashes
        assert len(hashes) == len(flipped)  # all distinct too

    def test_slice_hash_change_moves_the_hash(self, manifest, tmp_path):
        doctored = PurityManifest()
        for name, entry in manifest.scenarios.items():
            doctored.scenarios[name] = ScenarioPurity(
                scenario=entry.scenario, factory=entry.factory,
                verdict=entry.verdict, slice_files=entry.slice_files,
                slice_hash=entry.slice_hash + "x")
        spec = ScenarioSpec("exp4", duration_bits=4000)
        a = ResultCache(str(tmp_path), manifest).spec_hash(spec)
        b = ResultCache(str(tmp_path), doctored).spec_hash(spec)
        assert a != b

    def test_impure_or_unresolved_scenarios_never_hash(self, tmp_path):
        bad = PurityManifest()
        bad.scenarios["exp4"] = ScenarioPurity(
            scenario="exp4", factory="m:f", verdict="impure",
            slice_hash="abc")
        bad.scenarios["exp3"] = ScenarioPurity(
            scenario="exp3", factory="m:f", verdict="unresolved")
        cache = ResultCache(str(tmp_path), bad)
        assert cache.spec_hash(ScenarioSpec("exp4")) is None
        assert cache.spec_hash(ScenarioSpec("exp3")) is None
        record = RunRecord(spec=ScenarioSpec("exp4"), result=None,
                           wall_seconds=0.0, steps_per_second=0.0,
                           worker="w")
        assert cache.put(ScenarioSpec("exp4"), record) is False


class TestColdWarm:
    @pytest.mark.parametrize("engine", ["fast", "bit"])
    def test_warm_run_replays_byte_identical_records(self, manifest,
                                                     tmp_path, engine):
        specs = [ScenarioSpec("exp4", duration_bits=4000, seed=seed,
                              engine=engine) for seed in (0, 1)]
        cold_cache = ResultCache(str(tmp_path / "rc"), manifest)
        cold = Campaign(specs, result_cache=cold_cache).run()
        assert cold.cache_hits() == 0
        assert cold_cache.stores == 2

        warm_cache = ResultCache(str(tmp_path / "rc"), manifest)
        warm = Campaign(specs, result_cache=warm_cache).run()
        assert warm.cache_hits() == 2
        assert warm_cache.hits == 2
        assert all(record.cache_hit for record in warm.records)
        assert _records_json(cold) == _records_json(warm)
        assert cold.payload_equal(warm)

    def test_cache_hit_marker_never_serializes(self, manifest, tmp_path):
        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([spec], result_cache=cache).run()
        warm = Campaign([spec],
                        result_cache=ResultCache(str(tmp_path),
                                                 manifest)).run()
        record = warm.records[0]
        assert record.cache_hit
        assert "cache_hit" not in record.to_dict()
        # ... so a round-tripped record reads back as a fresh one.
        assert RunRecord.from_dict(record.to_dict()).cache_hit is False

    def test_render_reports_the_replay_count(self, manifest, tmp_path):
        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([spec], result_cache=cache).run()
        warm = Campaign([spec],
                        result_cache=ResultCache(str(tmp_path),
                                                 manifest)).run()
        text = warm.render()
        assert "result cache: 1 of 1 record(s)" in text
        assert "(cached)" in text

    def test_flipping_a_spec_field_misses(self, manifest, tmp_path):
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([ScenarioSpec("exp4", duration_bits=3000)],
                 result_cache=cache).run()
        probe = ResultCache(str(tmp_path), manifest)
        report = Campaign([ScenarioSpec("exp4", duration_bits=3001)],
                          result_cache=probe).run()
        assert report.cache_hits() == 0
        assert probe.misses == 1


    def test_entry_bytes_match_the_streaming_encoder(self, manifest,
                                                     tmp_path):
        """``put`` encodes in one C-encoder pass; the file is byte for
        byte what streaming ``json.dump`` wrote."""
        import io

        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path / "rc"), manifest)
        Campaign([spec], result_cache=cache,
                 flight_dir=str(tmp_path / "flights")).run()
        (name,) = [n for n in os.listdir(tmp_path / "rc")
                   if n.endswith(".json")]
        data = (tmp_path / "rc" / name).read_bytes()
        streamed = io.StringIO()
        json.dump(json.loads(data), streamed, sort_keys=True)
        streamed.write("\n")
        assert data == streamed.getvalue().encode("utf-8")


class TestDegradation:
    def _store_one(self, manifest, tmp_path):
        spec = ScenarioSpec("exp4", duration_bits=3000)
        cache = ResultCache(str(tmp_path), manifest)
        Campaign([spec], result_cache=cache).run()
        entries = [name for name in os.listdir(str(tmp_path))
                   if name.endswith(".json")]
        assert len(entries) == 1
        return spec, os.path.join(str(tmp_path), entries[0])

    def test_corrupted_entry_degrades_to_a_miss(self, manifest, tmp_path):
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ torn")
        cache = ResultCache(str(tmp_path), manifest)
        assert cache.get(spec) is None
        assert cache.misses == 1
        # ... and the campaign still completes, re-storing the entry.
        report = Campaign([spec], result_cache=cache).run()
        assert report.cache_hits() == 0
        assert len(report.records) == 1

    def test_an_entry_whose_record_carries_a_flight_dump_hits(
            self, manifest, tmp_path):
        """Entries stored while records embedded their final flight dump
        still replay, without the dump of that earlier run."""
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        stored = dict(entry["record"])
        entry["record"]["flight"] = {"kind": "repro.obs.flight"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        record = ResultCache(str(tmp_path), manifest).get(spec)
        assert record is not None and record.cache_hit
        assert not hasattr(record, "flight")
        assert record.to_dict() == stored

    def test_version_skewed_entry_degrades_to_a_miss(self, manifest,
                                                     tmp_path):
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["schema_version"] = CACHE_SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert ResultCache(str(tmp_path), manifest).get(spec) is None

    def test_spec_mismatch_in_the_entry_degrades_to_a_miss(self, manifest,
                                                           tmp_path):
        spec, path = self._store_one(manifest, tmp_path)
        with open(path, encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["spec"]["seed"] = 999  # a hash collision in effigy
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        assert ResultCache(str(tmp_path), manifest).get(spec) is None

    def test_unwritable_directory_never_fails_the_campaign(self, manifest,
                                                           tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory", encoding="utf-8")
        cache = ResultCache(str(blocked), manifest)
        report = Campaign([ScenarioSpec("exp4", duration_bits=3000)],
                          result_cache=cache).run()
        assert len(report.records) == 1
        assert cache.stores == 0


class TestCli:
    _ARGV = ["campaign", "run", "--scenario", "exp4", "--duration", "2000",
             "--no-metrics", "--cache", "--cache-dir", "rc"]

    def test_cache_flags_are_mutually_exclusive(self, capsys):
        from repro.cli import main

        assert main(["campaign", "run", "--scenario", "exp4",
                     "--duration", "1000", "--cache", "--no-cache"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def cli_dir(self, tmp_path_factory):
        """A cwd in which one cold ``campaign run --cache`` wrote the
        default analysis cache, its manifest memo and one result."""
        from repro.cli import main

        root = tmp_path_factory.mktemp("cli")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            assert main(self._ARGV + ["--out", "cold.json"]) == 0
        finally:
            os.chdir(cwd)
        return root

    def test_cold_then_warm_run_via_the_cli(self, cli_dir, monkeypatch,
                                            capsys):
        """The warm run replays from the memo (no file is parsed) and
        from the result cache, byte-identical to the cold run."""
        from repro.analysis import purity
        from repro.cli import main
        from repro.experiments.store import load_report

        monkeypatch.chdir(cli_dir)
        assert os.path.isfile(DEFAULT_CACHE_PATH + ".manifest")
        calls = []
        monkeypatch.setattr(purity, "load_project",
                            lambda *a, **k: calls.append(a))
        capsys.readouterr()
        assert main(self._ARGV + ["--out", "warm.json"]) == 0
        warm_out = capsys.readouterr().out
        assert calls == []
        assert "result cache: 1 of 1 record(s)" in warm_out
        assert "(cached)" in warm_out
        assert _records_json(load_report("cold.json")) \
            == _records_json(load_report("warm.json"))

    def test_corrupt_memo_degrades_to_a_fresh_analysis(self, cli_dir,
                                                       monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(cli_dir)
        memo = DEFAULT_CACHE_PATH + ".manifest"
        with open(memo, "w", encoding="utf-8") as handle:
            handle.write("{ not a memo")
        capsys.readouterr()
        assert main(self._ARGV) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "result cache: 1 of 1 record(s)" in captured.out
        with open(memo, encoding="utf-8") as handle:
            assert json.load(handle)["manifest"]["scenarios"]


class TestManifestMemo:
    """``build_purity_manifest`` memoizes its result in the analysis
    cache it is given, keyed on the content of the analysed sources.

    Every test runs in a temp cwd holding a copy of the package, so the
    repo's own ``.repro_cache`` is never written.
    """

    CACHE = os.path.join(".repro_cache", "lint.json")
    SLICE_FILE = os.path.join("repro", "experiments", "scenarios.py")

    @pytest.fixture(scope="class")
    def tree(self, tmp_path_factory):
        """(root, cold manifest JSON): one cold build of a package copy."""
        root = tmp_path_factory.mktemp("memo")
        shutil.copytree(os.path.dirname(repro.__file__), root / "repro")
        cwd = os.getcwd()
        os.chdir(root)
        try:
            cache = AnalysisCache(self.CACHE)
            cold = build_purity_manifest(["repro"], cache=cache)
            cache.save()
        finally:
            os.chdir(cwd)
        assert os.path.isfile(root / (self.CACHE + ".manifest"))
        return root, cold.render_json()

    @pytest.fixture
    def parses(self, tree, monkeypatch):
        """Run in the tree; returns the list of ``load_project`` calls."""
        from repro.analysis import purity

        monkeypatch.chdir(tree[0])
        calls = []
        real = purity.load_project

        def counting(files, cache=None):
            calls.append(len(files))
            return real(files, cache=cache)

        monkeypatch.setattr(purity, "load_project", counting)
        return calls

    def _build(self, path=None):
        cache = AnalysisCache(path or self.CACHE)
        manifest = build_purity_manifest(["repro"], cache=cache)
        cache.save()
        return manifest, cache

    def test_memo_hit_is_byte_identical_to_the_fresh_build(self, tree,
                                                           parses):
        hit, cache = self._build()
        assert parses == []
        assert cache.hits == cache.misses == 0
        assert hit.render_json() == tree[1]

    def test_one_byte_edit_misses_and_moves_the_slice_hash(self, tree,
                                                           parses):
        before = PurityManifest.from_dict(json.loads(tree[1]))
        with open(self.SLICE_FILE, "rb") as handle:
            original = handle.read()
        try:
            with open(self.SLICE_FILE, "wb") as handle:
                handle.write(original + b"#")
            edited, cache = self._build()
            assert len(parses) == 1
            assert cache.misses == 1  # only the edited file re-parses
            assert edited.slice_hash("exp4") != before.slice_hash("exp4")
        finally:
            with open(self.SLICE_FILE, "wb") as handle:
                handle.write(original)
        restored, _ = self._build()
        assert len(parses) == 2
        assert restored.render_json() == tree[1]

    @pytest.mark.parametrize("damage", ["corrupt", "truncated", "skewed"])
    def test_damaged_memo_rebuilds_silently(self, tree, parses, damage):
        memo = self.CACHE + ".manifest"
        with open(memo, encoding="utf-8") as handle:
            text = handle.read()
        if damage == "corrupt":
            bad = "{ torn"
        elif damage == "truncated":
            bad = text[:len(text) // 2]
        else:
            data = json.loads(text)
            data["manifest"]["schema_version"] += 1
            bad = json.dumps(data)
        with open(memo, "w", encoding="utf-8") as handle:
            handle.write(bad)
        rebuilt, _ = self._build()
        assert len(parses) == 1
        assert rebuilt.render_json() == tree[1]
        with open(memo, encoding="utf-8") as handle:
            assert handle.read() == text  # the rebuild re-stored it

    def test_registry_change_misses(self, tree, parses, monkeypatch):
        import repro.experiments.campaign as campaign

        memo = self.CACHE + ".manifest"
        with open(memo, encoding="utf-8") as handle:
            text = handle.read()
        registry = dict(campaign._REGISTRY)
        registry["exp4"] = registry["exp3"]
        monkeypatch.setattr(campaign, "_REGISTRY", registry)
        try:
            manifest, _ = self._build()
        finally:
            with open(memo, "w", encoding="utf-8") as handle:
                handle.write(text)
        assert len(parses) == 1
        assert manifest.scenarios["exp4"].factory \
            == manifest.scenarios["exp3"].factory

    def test_each_file_is_hashed_once_per_build(self, tree, parses,
                                                monkeypatch):
        """The memo key, the summary lookups and the slice hashes share
        the cache's digests: a build with nothing cached reads each file
        for hashing exactly once."""
        import collections

        import repro.analysis.callgraph as callgraph
        from repro.analysis import purity

        hashed = collections.Counter()
        real = callgraph.file_digest

        def counting(path):
            hashed[os.path.abspath(path)] += 1
            return real(path)

        monkeypatch.setattr(callgraph, "file_digest", counting)
        monkeypatch.setattr(purity, "file_digest", counting)
        manifest, cache = self._build(os.path.join(".repro_cache",
                                                   "fresh.json"))
        assert len(parses) == 1 and cache.hits == 0
        assert hashed and set(hashed.values()) == {1}
        assert len(hashed) == cache.misses  # every project file, once
        assert manifest.render_json() == tree[1]

    def test_cache_paths_do_not_share_a_memo(self, tree, parses):
        other = os.path.join(".repro_cache", "other.json")
        shutil.copyfile(self.CACHE, other)  # warm summaries, no memo
        manifest, cache = self._build(other)
        assert len(parses) == 1
        assert cache.manifest_path == other + ".manifest"
        assert os.path.isfile(cache.manifest_path)
        assert manifest.render_json() == tree[1]
