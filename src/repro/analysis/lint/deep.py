"""Interprocedural (whole-program) rules: RC201/RC202, RC301/RC302 and
RC401–RC405.

The per-file rules in :mod:`repro.analysis.lint.rules` only see one module
at a time, so a wall-clock read hiding two call hops below the simulator
step loop passes them.  These rules run on the project call graph
(:mod:`repro.analysis.callgraph`) instead:

========  =======================  ==========================================
RC201     deep-no-wallclock        a wall-clock read is *transitively*
                                   reachable from the simulator step loop or
                                   the firmware ISR
RC202     deep-no-unseeded-random  unseeded randomness is transitively
                                   reachable from the same entry points
RC301     worker-shared-global     shared module/class state is mutated
                                   somewhere transitively reachable from a
                                   campaign worker entry point
RC302     unlocked-shared-cache    a cache/memo global is mutated without a
                                   lock on a worker-reachable path
RC401     thread-shared-state      shared mutable state is reached from >= 2
                                   thread roots with no common lock
                                   (Eraser-style lockset check)
RC402     async-blocking-call      a blocking call is reachable from an
                                   ``async def`` without await or an
                                   executor hand-off
RC403     signal-unsafe-handler    a non-reentrant operation (lock acquire,
                                   I/O) is reachable from a registered
                                   signal handler
RC404     fork-lock-safety         a process spawn can run while a live
                                   non-daemon thread holds a tracked lock
RC405     lock-order-cycle         a cycle in the lock-acquisition-order
                                   graph (deadlock potential)
========  =======================  ==========================================

The RC3xx family is the effect/purity analysis
(:mod:`repro.analysis.effects`): RC301/RC302 walk the BFS closure of the
worker entry points (:data:`WORKER_ENTRY_SPECS` plus every statically
resolvable registered factory) and flag global-mutation sites inside it;
the same machinery certifies scenario purity for the campaign result
cache (:mod:`repro.analysis.purity`).

The RC4xx family is the concurrency-safety analysis
(:mod:`repro.analysis.concurrency`): thread roots, locksets, signal
handlers, spawn edges and the lock-order graph lifted over the same
call graph; ``repro lint --deep --concurrency-report`` additionally
dumps the machine-readable facts behind the findings.

Findings anchor at the *sink* (the offending call or mutation), never at
the transitive caller — so a ``# repro: noqa[RC201]`` suppression lives
next to the code that needs the exemption, and callers stay clean.

Invariants a tier-1 test already sees at run time (fault containment at
the campaign boundary, event-vocabulary liveness, picklable scenario
factories) have no rule here; ``docs/static-analysis.md`` records the
verdict for every code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.suppressions import SuppressionIndex

if TYPE_CHECKING:  # imported lazily at runtime: callgraph imports this
    # package's rule helpers, so a module-level import would be circular.
    from repro.analysis.callgraph import (
        AnalysisCache,
        CallGraph,
        CallSite,
        NodeKey,
        Project,
    )

#: Entry points of the deterministic hot path, matched by normalized path
#: suffix + the final segment of the function qualname.  ``step`` is listed
#: even though ``advance`` reaches per-bit stepping without calling it:
#: ``_step_bits`` binds node methods to bare names (statically
#: unresolvable), so the fan-out to node ``output``/``observe``
#: implementations is only visible via ``step``.
ENTRY_SPECS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("bus/simulator.py", ("step", "advance", "advance_until")),
    ("bus/fastforward.py", ("try_advance", "_notify_span")),
    ("core/detection.py", ("handler",)),
    # Observability listeners ride the engine's event and span delivery,
    # so their handlers must stay wallclock- and entropy-free like the
    # hot loop.
    ("obs/tracing.py", ("_on_span_commit",)),
    ("obs/flight.py", ("_on_event",)),
    ("obs/snapshot.py", ("observe",)),
)

#: Campaign worker entry points for RC301/RC302, matched like
#: :data:`ENTRY_SPECS` (path suffix + last qualname segment).  Statically
#: resolvable registered scenario factories are added per project on top.
WORKER_ENTRY_SPECS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("experiments/campaign.py", ("execute_spec", "build")),
    ("experiments/service/supervisor.py", ("_pool_worker",)),
    ("bus/simulator.py", ("advance", "advance_until")),
)


@dataclass(frozen=True)
class DeepRule:
    """Catalogue metadata for one interprocedural rule."""

    code: str
    name: str
    summary: str


DEEP_RULES: Tuple[DeepRule, ...] = (
    DeepRule("RC201", "deep-no-wallclock",
             "no wall-clock read transitively reachable from the simulator "
             "step loop or firmware ISR"),
    DeepRule("RC202", "deep-no-unseeded-random",
             "no unseeded randomness transitively reachable from the "
             "simulator step loop or firmware ISR"),
    DeepRule("RC301", "worker-shared-global",
             "no shared module/class state is mutated on a path reachable "
             "from a campaign worker entry point or scenario factory"),
    DeepRule("RC302", "unlocked-shared-cache",
             "cache/memo globals on worker-reachable paths are only "
             "mutated under a lock"),
    DeepRule("RC401", "thread-shared-state",
             "no shared mutable state is reached from two thread roots "
             "without a common lock (Eraser-style lockset check)"),
    DeepRule("RC402", "async-blocking-call",
             "no blocking call is reachable from an async def without "
             "await or an executor hand-off"),
    DeepRule("RC403", "signal-unsafe-handler",
             "no non-reentrant operation (lock acquire, I/O) is reachable "
             "from a registered signal handler"),
    DeepRule("RC404", "fork-lock-safety",
             "no process spawn can run while a live non-daemon thread "
             "holds a tracked lock"),
    DeepRule("RC405", "lock-order-cycle",
             "the lock-acquisition-order graph is acyclic (no deadlock "
             "potential)"),
)


def deep_rule_codes() -> List[str]:
    """All interprocedural rule codes, sorted."""
    return sorted(rule.code for rule in DEEP_RULES)


def deep_rule_catalogue() -> Tuple[DeepRule, ...]:
    """The interprocedural rules, for ``--list-rules`` and docs."""
    return DEEP_RULES


_CONCURRENCY_CODES = frozenset(
    {"RC401", "RC402", "RC403", "RC404", "RC405"})


# ----------------------------------------------------------- project scope


def expand_project_files(files: Sequence[str]) -> List[str]:
    """The graph's file set: ``files`` plus the rest of every package they
    belong to.

    Interprocedural facts need the whole program: linting a single module
    must still see its callers and callees.  Each requested file's
    enclosing top-level package (found by walking the ``__init__.py``
    chain upward) is walked in full; requested spellings win over the
    expansion's so findings keep the paths the user typed.
    """
    from repro.analysis.lint.engine import collect_python_files

    known = {os.path.abspath(path) for path in files}
    roots: Set[str] = set()
    for path in files:
        directory = os.path.dirname(os.path.abspath(path))
        top: Optional[str] = None
        while os.path.isfile(os.path.join(directory, "__init__.py")):
            top = directory
            parent = os.path.dirname(directory)
            if parent == directory:
                break
            directory = parent
        if top is not None:
            roots.add(top)
    merged = list(files)
    for path in collect_python_files(sorted(roots)):
        absolute = os.path.abspath(path)
        if absolute not in known:
            known.add(absolute)
            merged.append(path)
    return merged


# ------------------------------------------------------------- rule bodies


def _entry_points(project: Project) -> List[NodeKey]:
    entries: List[NodeKey] = []
    for suffix, names in ENTRY_SPECS:
        entries.extend(project.find_functions(suffix, names))
    return entries


def _chain_text(
    graph: CallGraph,
    parents: "Mapping[NodeKey, Optional[Tuple[NodeKey, CallSite]]]",
    node: NodeKey,
) -> str:
    chain = graph.call_chain(parents, node)
    return " -> ".join(qualname for _, qualname in chain)


def _reachable_sink_findings(graph: CallGraph, codes: Set[str],
                             ) -> List[Finding]:
    entries = _entry_points(graph.project)
    if not entries:
        return []
    parents = graph.reachable_from(entries)
    findings: List[Finding] = []
    for node in parents:
        fn = graph.project.function(node)
        if fn is None:
            continue
        path, _ = node
        chain: Optional[str] = None
        sink_groups = []
        if "RC201" in codes:
            sink_groups.append(("RC201", "deep-no-wallclock",
                                "wall-clock read",
                                "thread simulated time through as a "
                                "parameter instead",
                                fn.wallclock_sinks))
        if "RC202" in codes:
            sink_groups.append(("RC202", "deep-no-unseeded-random",
                                "unseeded randomness",
                                "thread a seeded random.Random through "
                                "instead",
                                fn.random_sinks))
        for code, rule_name, what, fix, sinks in sink_groups:
            for sink in sinks:
                if chain is None:
                    chain = _chain_text(graph, parents, node)
                findings.append(Finding(
                    code=code, rule=rule_name,
                    message=(f"{what} {sink.description} is reachable from "
                             f"the deterministic hot path: {chain}; {fix}"),
                    path=path, line=sink.line, column=sink.column))
    return findings


def registered_factory_nodes(project: Project) -> List[NodeKey]:
    """Call-graph nodes of every statically resolvable registered scenario
    factory (``register_scenario`` sites with a name/attribute factory
    argument).  Loop variables and computed factories stay unresolved —
    the runtime registry (:mod:`repro.analysis.purity`) covers those."""
    nodes: Set[NodeKey] = set()
    for path, summary in project.summaries.items():
        for site in summary.registrations:
            if site.factory_kind == "nested":
                nodes.add((path, site.factory[0]))
                continue
            if site.factory_kind != "ref" or not site.factory:
                continue
            parts = site.factory
            if len(parts) == 1:
                if parts[0] in summary.functions:
                    nodes.add((path, parts[0]))
                    continue
                target = summary.from_imports.get(parts[0])
                if target is not None:
                    module_path = project.modules.get(target[0])
                    if module_path is not None and target[1] in \
                            project.summaries[module_path].functions:
                        nodes.add((module_path, target[1]))
            elif len(parts) == 2:
                module = summary.import_aliases.get(parts[0])
                if module is None:
                    continue
                module_path = project.modules.get(module)
                if module_path is not None and parts[1] in \
                        project.summaries[module_path].functions:
                    nodes.add((module_path, parts[1]))
    return sorted(nodes)


def worker_entry_points(project: Project) -> List[NodeKey]:
    """RC301/RC302 roots: the campaign worker machinery plus every
    statically resolvable registered factory."""
    entries: List[NodeKey] = []
    for suffix, names in WORKER_ENTRY_SPECS:
        entries.extend(project.find_functions(suffix, names))
    entries.extend(registered_factory_nodes(project))
    return entries


def _shared_state_findings(graph: CallGraph,
                           codes: Set[str]) -> List[Finding]:
    from repro.analysis.effects import is_cache_like

    entries = worker_entry_points(graph.project)
    if not entries:
        return []
    parents = graph.reachable_from(entries)
    findings: List[Finding] = []
    for node in parents:
        fn = graph.project.function(node)
        if fn is None:
            continue
        path, _ = node
        chain: Optional[str] = None
        for mutation in fn.mutations:
            if mutation.scope != "global":
                continue
            if is_cache_like(mutation.root):
                if "RC302" not in codes or mutation.locked:
                    continue
                if chain is None:
                    chain = _chain_text(graph, parents, node)
                findings.append(Finding(
                    code="RC302", rule="unlocked-shared-cache",
                    message=(f"unlocked mutation of shared cache "
                             f"{mutation.target} is reachable from a "
                             f"campaign worker entry point: {chain}; "
                             "guard it with a lock (a `with *lock*:` "
                             "block) or key it off immutable inputs"),
                    path=path, line=mutation.line,
                    column=mutation.column))
            else:
                if "RC301" not in codes:
                    continue
                if chain is None:
                    chain = _chain_text(graph, parents, node)
                findings.append(Finding(
                    code="RC301", rule="worker-shared-global",
                    message=(f"shared module state {mutation.target} is "
                             f"mutated on a worker-reachable path: "
                             f"{chain}; workers must stay effect-free "
                             "for memoized campaign results to be sound"),
                    path=path, line=mutation.line,
                    column=mutation.column))
    return findings


# --------------------------------------------------------------- top level


def _analyze(files: Sequence[str], codes: Set[str],
             cache: Optional[AnalysisCache],
             ) -> Tuple[CallGraph, List[Finding], int]:
    """Build the project call graph around ``files`` and run the ``codes``
    rules on it.

    Only findings whose sink falls in a requested file are reported,
    de-duplicated, with ``# repro: noqa`` suppressions on the sink line
    counted rather than dropped.  Returns ``(graph, findings,
    suppressed)``.
    """
    from repro.analysis.callgraph import CallGraph, load_project

    project = load_project(expand_project_files(files), cache=cache)
    graph = CallGraph(project)
    candidates: List[Finding] = []
    if codes & {"RC201", "RC202"}:
        candidates.extend(_reachable_sink_findings(graph, codes))
    if codes & {"RC301", "RC302"}:
        candidates.extend(_shared_state_findings(graph, codes))
    if codes & _CONCURRENCY_CODES:
        from repro.analysis.concurrency import ConcurrencyAnalysis

        candidates.extend(ConcurrencyAnalysis(graph).findings(
            sorted(codes & _CONCURRENCY_CODES)))

    requested = {os.path.abspath(path) for path in files}
    indexes: Dict[str, SuppressionIndex] = {}
    findings: List[Finding] = []
    suppressed = 0
    emitted: Set[Tuple[str, int, int, str]] = set()
    for finding in candidates:
        key = (finding.path, finding.line, finding.column, finding.code)
        if os.path.abspath(finding.path) not in requested or key in emitted:
            continue
        emitted.add(key)
        if finding.path not in indexes:
            indexes[finding.path] = \
                project.summaries[finding.path].suppression_index()
        if indexes[finding.path].is_suppressed(finding.line, finding.code):
            suppressed += 1
        else:
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return graph, findings, suppressed


def run_deep_rules(files: Sequence[str],
                   codes: Optional[Sequence[str]] = None,
                   cache: Optional[AnalysisCache] = None,
                   ) -> Tuple[List[Finding], int]:
    """Run the interprocedural rules over ``files``.

    ``files`` is the already-collected list of requested ``*.py`` files;
    the analysis itself runs over the whole enclosing project (see
    :func:`expand_project_files`) but only findings whose sink falls in a
    *requested* file are reported.  Returns ``(findings, suppressed)``
    where suppressed counts findings silenced by a ``# repro: noqa``
    comment on the sink line.
    """
    wanted: Set[str] = set(codes if codes is not None else deep_rule_codes())
    if not wanted or not files:
        return [], 0
    _, findings, suppressed = _analyze(files, wanted, cache)
    return findings, suppressed


def build_concurrency_report(files: Sequence[str],
                             cache: Optional[AnalysisCache] = None,
                             ) -> Dict[str, object]:
    """The machine-readable RC4xx report over ``files`` (the
    ``--concurrency-report`` payload): thread roots, handlers, spawns,
    the lock-order graph, and the unsuppressed findings anchored in the
    requested files.  Schema-versioned via
    :data:`repro.analysis.concurrency.CONCURRENCY_REPORT_SCHEMA_VERSION`.
    """
    from repro.analysis.concurrency import build_report

    graph, findings, suppressed = _analyze(
        files, set(_CONCURRENCY_CODES), cache)
    return build_report(graph, findings, suppressed)
