"""Purity manifest: scenario purity verdicts + transitive slice hashes.

The campaign result cache (:mod:`repro.experiments.resultcache`) may only
replay a stored :class:`~repro.experiments.campaign.RunRecord` when two
things hold for the spec's scenario:

1. its code slice performs no impure effect (:data:`IMPURE_KINDS`) — the
   **verdict** certified here by the effect analysis
   (:mod:`repro.analysis.effects`); and
2. none of the code the run would execute has changed since the cached
   entry was written — the **slice hash**, a content digest over every
   file in the BFS closure of the scenario's factory *and* the campaign
   execution machinery (``execute_spec`` down through the engine).

The verdict intentionally runs over the *scenario slice* only (the
factory plus ``ScenarioSpec.build``/``run_config``): the shared engine
below ``execute_spec`` is certified separately by the RC201/RC202
determinism rules and the RC301/RC302 shared-state rules, and its
sanctioned effects (checkpoint writes, flight-recorder dumps) do not
depend on cache state.  The slice *hash* conservatively covers the full
execution closure, so an engine edit still invalidates every cached
result.

Scenario discovery uses the **runtime registry**
(:func:`repro.experiments.campaign.scenario_names`), not the static
registration sites: factories registered through loop variables or
f-string names resolve fine at runtime, and each resolved factory is then
located in the static graph by ``(module, qualname)``.  A factory the
static graph cannot locate (a lambda, a ``<locals>`` closure, a module
outside the scanned tree) gets the ``unresolved`` verdict: it is never
cached, and CI's purity gate fails on it.  VC220/VC221 reject such a
factory at runtime as well.

The manifest is schema-versioned and loads with the same silent
degradation discipline as the analysis cache: corrupted, stale or
version-skewed manifests read as ``None`` (cold), never as an error.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.callgraph import (
    EFFECT_SCHEMA_VERSION,
    SUMMARY_SCHEMA_VERSION,
    AnalysisCache,
    CallGraph,
    NodeKey,
    file_digest,
    load_project,
)
from repro.analysis.effects import IMPURE_KINDS, EffectAnalysis

#: Bump when the manifest layout or hashing recipe changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1

#: Campaign machinery included in every scenario's hash slice: the worker
#: path from spec to result.  Matched by path suffix + last segment.
_MACHINERY_SPECS = (
    ("experiments/campaign.py", ("execute_spec", "build", "run_config")),
)

#: The sub-slice whose effects decide the verdict (see module docstring).
_VERDICT_SPECS = (
    ("experiments/campaign.py", ("build", "run_config")),
)


@dataclass
class ScenarioPurity:
    """One scenario's verdict, effect evidence and slice digest."""

    scenario: str
    factory: str
    verdict: str  # "pure" | "impure" | "unresolved"
    effects: List[Dict[str, Any]] = field(default_factory=list)
    slice_files: List[Dict[str, str]] = field(default_factory=list)
    slice_hash: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "factory": self.factory,
            "verdict": self.verdict,
            "effects": list(self.effects),
            "slice_files": list(self.slice_files),
            "slice_hash": self.slice_hash,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioPurity":
        return cls(
            scenario=str(data["scenario"]),
            factory=str(data.get("factory", "")),
            verdict=str(data.get("verdict", "unresolved")),
            effects=list(data.get("effects", ())),
            slice_files=[dict(entry)
                         for entry in data.get("slice_files", ())],
            slice_hash=str(data.get("slice_hash", "")),
        )


@dataclass
class PurityManifest:
    """The full manifest: one :class:`ScenarioPurity` per scenario."""

    scenarios: Dict[str, ScenarioPurity] = field(default_factory=dict)

    def verdict(self, scenario: str) -> str:
        entry = self.scenarios.get(scenario)
        return entry.verdict if entry is not None else "unresolved"

    def slice_hash(self, scenario: str) -> Optional[str]:
        entry = self.scenarios.get(scenario)
        if entry is None or not entry.slice_hash:
            return None
        return entry.slice_hash

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "summary_schema_version": SUMMARY_SCHEMA_VERSION,
            "effect_schema_version": EFFECT_SCHEMA_VERSION,
            "scenarios": {name: entry.to_dict()
                          for name, entry in sorted(self.scenarios.items())},
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        """Atomic write (tmp + rename), creating parent directories."""
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".purity-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(self.render_json())
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    @classmethod
    def from_dict(cls, data: Any) -> Optional["PurityManifest"]:
        """Rebuild a manifest from :meth:`to_dict` output; ``None`` for
        malformed or version-skewed documents."""
        if not isinstance(data, dict) \
                or data.get("schema_version") != MANIFEST_SCHEMA_VERSION \
                or data.get(
                    "summary_schema_version") != SUMMARY_SCHEMA_VERSION \
                or data.get(
                    "effect_schema_version") != EFFECT_SCHEMA_VERSION:
            return None
        raw = data.get("scenarios")
        if not isinstance(raw, dict):
            return None
        manifest = cls()
        try:
            for name, entry in raw.items():
                manifest.scenarios[str(name)] = ScenarioPurity.from_dict(
                    entry)
        except (KeyError, TypeError, ValueError):
            return None
        return manifest

    @classmethod
    def load(cls, path: str) -> Optional["PurityManifest"]:
        """Read a manifest; ``None`` for missing, corrupted or
        version-skewed files (silent degradation — callers fall back to
        uncached runs, never crash)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        return cls.from_dict(data)


# ------------------------------------------------------------------ hashing


def _slice_digests(paths: Sequence[str],
                   cache: Optional[AnalysisCache]) -> List[Dict[str, str]]:
    digest_of = cache.digest if cache is not None else file_digest
    entries: List[Dict[str, str]] = []
    for path in paths:
        digest = digest_of(path)
        if digest is None:
            continue
        rel = os.path.relpath(path).replace("\\", "/")
        entries.append({"path": rel, "sha256": digest})
    entries.sort(key=lambda entry: entry["path"])
    return entries


def _combine_hash(entries: Sequence[Mapping[str, str]]) -> str:
    hasher = hashlib.sha256()
    hasher.update(
        f"s{SUMMARY_SCHEMA_VERSION}|e{EFFECT_SCHEMA_VERSION}\n".encode())
    for entry in entries:
        hasher.update(f"{entry['path']}:{entry['sha256']}\n".encode())
    return hasher.hexdigest()


# ----------------------------------------------------------------- building


def _locate_factory(graph: CallGraph,
                    module: str, qualname: str) -> Optional[NodeKey]:
    path = graph.project.modules.get(module)
    if path is None:
        return None
    if qualname in graph.project.summaries[path].functions:
        return (path, qualname)
    return None


def _machinery_nodes(graph: CallGraph, specs: Sequence[Any]) -> List[NodeKey]:
    nodes: List[NodeKey] = []
    for suffix, names in specs:
        nodes.extend(graph.project.find_functions(suffix, names))
    return nodes


def _registry() -> List[Tuple[str, str, str]]:
    """``(scenario, factory module, factory qualname)`` per runtime-
    registered scenario."""
    from repro.experiments.campaign import scenario_factory, scenario_names

    triples = []
    for name in scenario_names():
        factory = scenario_factory(name)
        triples.append((name, getattr(factory, "__module__", "") or "",
                        getattr(factory, "__qualname__", "") or ""))
    return triples


def _memo_key(files: Sequence[str],
              registry: Sequence[Tuple[str, str, str]],
              cache: AnalysisCache) -> str:
    """Content key of a manifest build: schema versions, the Python
    version, every project file's cwd-relative path and sha256 (the
    manifest's paths are cwd-relative too), and the registry."""
    blob = json.dumps([MANIFEST_SCHEMA_VERSION, list(sys.version_info[:2]),
                       _combine_hash(_slice_digests(files, cache)), registry])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_purity_manifest(files: Sequence[str],
                          cache: Optional[AnalysisCache] = None,
                          ) -> PurityManifest:
    """Analyze ``files`` and certify every runtime-registered scenario.

    ``files`` is expanded to the enclosing project the same way the deep
    lint rules do, so the slice sees callers and callees outside the
    requested set.  With a ``cache`` the finished manifest is memoized
    in it under a content key (:func:`_memo_key`): a build whose sources,
    registry and analyzer versions all match the memo parses nothing,
    and any source edit misses (only the edited files then re-parse).
    Every file is hashed once: the memo key, the summary lookups and the
    slice hashes share the cache's per-run digests.
    Call ``cache.save()`` to persist the memo and the summaries.
    """
    from repro.analysis.lint.deep import expand_project_files
    from repro.analysis.lint.engine import collect_python_files

    paths = expand_project_files(collect_python_files(files))
    registry = _registry()
    key = ""
    if cache is not None:
        key = _memo_key(paths, registry, cache)
        memo = PurityManifest.from_dict(cache.get_manifest(key))
        if memo is not None and sorted(memo.scenarios) == [
                name for name, _, _ in registry]:
            return memo

    project = load_project(paths, cache=cache)
    graph = CallGraph(project)
    analysis = EffectAnalysis(graph)
    machinery = _machinery_nodes(graph, _MACHINERY_SPECS)
    verdict_machinery = _machinery_nodes(graph, _VERDICT_SPECS)

    manifest = PurityManifest()
    for name, module, qualname in registry:
        label = f"{module}:{qualname}"
        node = _locate_factory(graph, module, qualname)
        if node is None:
            manifest.scenarios[name] = ScenarioPurity(
                scenario=name, factory=label, verdict="unresolved")
            continue

        verdict_slice = analysis.slice_from([node] + verdict_machinery)
        sites = analysis.slice_sites(verdict_slice)
        effects: List[Dict[str, Any]] = []
        impure = False
        for site, chain in sites:
            if site.kind in IMPURE_KINDS:
                impure = True
            record = site.to_dict()
            record["path"] = os.path.relpath(site.path).replace("\\", "/")
            record["chain"] = [qual for _, qual in chain]
            effects.append(record)

        hash_slice = analysis.slice_from([node] + machinery)
        digests = _slice_digests(analysis.slice_files(hash_slice), cache)
        manifest.scenarios[name] = ScenarioPurity(
            scenario=name, factory=label,
            verdict="impure" if impure else "pure",
            effects=effects,
            slice_files=digests,
            slice_hash=_combine_hash(digests),
        )
    if cache is not None:
        cache.put_manifest(key, manifest.to_dict())
    return manifest
