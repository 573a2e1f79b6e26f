"""Interprocedural (whole-program) rules: RC201–RC205, RC301–RC303 and
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
RC203     fault-containment        an injected-fault exception can propagate
                                   uncaught past the campaign run boundary
RC204     event-never-consumed     a ``bus/events.py`` class is emitted (or
                                   defined) but nothing ever consumes it
RC205     event-never-emitted      a ``bus/events.py`` class is consumed but
                                   nothing ever emits it
RC301     worker-shared-global     shared module/class state is mutated
                                   somewhere transitively reachable from a
                                   campaign worker entry point
RC302     unlocked-shared-cache    a cache/memo global is mutated without a
                                   lock on a worker-reachable path
RC303     pickle-safe-registration a scenario factory is registered as a
                                   lambda or nested function (unpicklable by
                                   reference — the static VC220/VC221)
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

Findings anchor at the *sink* (the offending call, the raise site, the
class definition), never at the transitive caller — so a
``# repro: noqa[RC201]`` suppression lives next to the code that needs the
exemption, and callers stay clean.

On fault containment (RC203): :class:`~repro.bus.simulator.Simulator.run`
deliberately lets :class:`~repro.errors.InjectedFaultError` propagate —
that is how a crash fault reaches the harness.  The boundary that must be
tight is the campaign's: ``Campaign.run`` (serial path) and the worker
pool's ``_pool_worker`` loop (isolated path) must catch every
injected-fault exception, or one chaotic spec takes down the whole
campaign instead of producing a failure record.
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

if TYPE_CHECKING:  # imported lazily at runtime: callgraph imports this
    # package's rule helpers, so a module-level import would be circular.
    from repro.analysis.callgraph import (
        AnalysisCache,
        CallGraph,
        CallSite,
        FileSummary,
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
    # Observability listeners ride the engine's event delivery, so their
    # handlers must stay wallclock- and entropy-free like the hot loop.
    ("obs/tracing.py", ("_on_event", "_on_span_commit")),
    ("obs/flight.py", ("_on_event",)),
    ("obs/snapshot.py", ("observe",)),
)

#: Exception boundaries for RC203, matched by path suffix + *full*
#: qualname: no injected-fault exception may escape these uncaught.
#: Every name must resolve (``tests/analysis/lint/test_deep.py`` checks
#: all three tables): an entry that matches nothing drops its coverage
#: without a word.
FAULT_BOUNDARY_SPECS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("experiments/campaign.py", ("Campaign.run",)),
    # The worker pool's long-lived loop: an injected fault escaping here
    # would kill the worker instead of reporting an error.
    ("experiments/service/supervisor.py", ("_pool_worker",)),
)

#: Campaign worker entry points for RC301/RC302, matched like
#: :data:`ENTRY_SPECS` (path suffix + last qualname segment).  Statically
#: resolvable registered scenario factories are added per project on top.
WORKER_ENTRY_SPECS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("experiments/campaign.py", ("execute_spec", "build")),
    ("experiments/service/supervisor.py", ("_pool_worker",)),
    ("bus/simulator.py", ("advance", "advance_until")),
)

#: Deep rules whose findings can only ever anchor in one fixed file.
#: ``repro lint --deep --changed`` errors when such a rule is explicitly
#: selected but its anchor file is outside the changed set — silence
#: there would mean "not checked", not "clean".
RULE_ANCHOR_SUFFIXES: Dict[str, Tuple[str, ...]] = {
    "RC204": ("bus/events.py",),
    "RC205": ("bus/events.py",),
}

#: Root of the injected-fault exception taxonomy (plus name-resolved
#: subclasses found in the project).
FAULT_EXCEPTION_ROOT = "InjectedFaultError"


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
    DeepRule("RC203", "fault-containment",
             "no injected-fault exception escapes the campaign run "
             "boundary uncaught"),
    DeepRule("RC204", "event-never-consumed",
             "every bus/events.py class is consumed somewhere"),
    DeepRule("RC205", "event-never-emitted",
             "every consumed bus/events.py class is emitted somewhere"),
    DeepRule("RC301", "worker-shared-global",
             "no shared module/class state is mutated on a path reachable "
             "from a campaign worker entry point or scenario factory"),
    DeepRule("RC302", "unlocked-shared-cache",
             "cache/memo globals on worker-reachable paths are only "
             "mutated under a lock"),
    DeepRule("RC303", "pickle-safe-registration",
             "scenario factories are registered as module-level functions "
             "(picklable by reference), never lambdas or nested defs"),
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


_GRAPH_CODES = frozenset({"RC201", "RC202", "RC203", "RC301", "RC302",
                          "RC401", "RC402", "RC403", "RC404", "RC405"})

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


def _pickle_soundness_findings(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for path, summary in project.summaries.items():
        for site in summary.registrations:
            if site.factory_kind == "lambda":
                what = "a lambda"
            elif site.factory_kind == "nested":
                what = f"nested function {site.factory[0].split('.')[-1]}"
            else:
                continue
            scenario = f"scenario {site.scenario!r}" if site.scenario \
                else "a scenario"
            findings.append(Finding(
                code="RC303", rule="pickle-safe-registration",
                message=(f"{scenario} registers {what} as its factory; "
                         "factories must be module-level functions so "
                         "specs pickle by reference into subprocess "
                         "workers (the static form of VC220/VC221)"),
                path=path, line=site.line, column=site.column))
    return findings


def _fault_escape_findings(graph: CallGraph) -> List[Finding]:
    boundaries: List[NodeKey] = []
    for suffix, qualnames in FAULT_BOUNDARY_SPECS:
        boundaries.extend(graph.project.find_functions(
            suffix, qualnames, match_qualname=True))
    if not boundaries:
        return []
    family = graph.project.exception_family(FAULT_EXCEPTION_ROOT)
    escaping = graph.escaping_exceptions()
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    for boundary in boundaries:
        for exc, path, line in sorted(escaping.get(boundary, ())):
            if exc not in family:
                continue
            key = (path, line, exc)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="RC203", rule="fault-containment",
                message=(f"{exc} raised here can propagate uncaught past "
                         f"the campaign boundary {boundary[1]}; injected "
                         "faults must surface as failure records, not "
                         "crash the campaign"),
                path=path, line=line))
    return findings


def _event_liveness_findings(project: Project,
                             codes: Set[str]) -> List[Finding]:
    events_summary: Optional[FileSummary] = None
    for summary in project.summaries.values():
        if summary.path.replace("\\", "/").endswith("bus/events.py"):
            events_summary = summary
            break
    if events_summary is None:
        return []
    others = [summary for summary in project.summaries.values()
              if summary is not events_summary]
    # Abstract roots (classes other vocabulary classes derive from) are
    # not events themselves — nothing should instantiate them directly.
    vocab_bases = {
        base.split(".")[-1]
        for cls in events_summary.classes.values()
        for base in cls.bases
    }
    findings: List[Finding] = []
    for name in sorted(events_summary.class_lines):
        if name in vocab_bases:
            continue
        line = events_summary.class_lines[name]
        consumed = any(name in summary.consumed for summary in others)
        emitted = any(name in summary.instantiated
                      or name in summary.referenced for summary in others)
        if not consumed and "RC204" in codes:
            detail = ("emitted but never consumed" if emitted
                      else "neither emitted nor consumed")
            findings.append(Finding(
                code="RC204", rule="event-never-consumed",
                message=(f"event class {name} is {detail} outside "
                         "bus/events.py — dead vocabulary; drop it or "
                         "consume it"),
                path=events_summary.path, line=line))
        elif consumed and not emitted and "RC205" in codes:
            findings.append(Finding(
                code="RC205", rule="event-never-emitted",
                message=(f"event class {name} is consumed but never "
                         "emitted outside bus/events.py — that consumer "
                         "branch is dead; emit it or drop the handler"),
                path=events_summary.path, line=line))
    return findings


# --------------------------------------------------------------- top level


def _dependent_files(graph: "CallGraph",
                     requested: Set[str]) -> Set[str]:
    """Absolute paths of files whose *deep* findings can change when the
    ``requested`` (changed) files change: the transitive call-graph
    neighbourhood, both directions.

    Deep findings anchor at sinks, so editing a caller can create or
    remove a finding anchored in an unchanged callee (a new call edge
    makes a blocking sink reachable), and editing a callee changes what
    escapes through its unchanged callers (RC203).  The symmetric
    closure is the conservative answer; the analysis already runs over
    the whole project either way, this only widens the reporting filter.
    """
    adjacency: Dict[str, Set[str]] = {}
    for (caller_path, _), out_edges in graph.edges.items():
        caller_abs = os.path.abspath(caller_path)
        for (callee_path, _), _site in out_edges:
            if callee_path == caller_path:
                continue
            callee_abs = os.path.abspath(callee_path)
            adjacency.setdefault(caller_abs, set()).add(callee_abs)
            adjacency.setdefault(callee_abs, set()).add(caller_abs)
    seen = set(requested)
    frontier = list(requested)
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency.get(current, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def _filter_candidates(project: "Project",
                       candidates: Sequence[Finding],
                       requested: Set[str],
                       ) -> Tuple[List[Finding], int]:
    """Keep findings anchored in ``requested`` files, de-duplicated, with
    ``# repro: noqa`` suppressions counted (not silently dropped)."""
    suppression_cache: Dict[str, object] = {}
    findings: List[Finding] = []
    suppressed = 0
    emitted: Set[Tuple[str, int, int, str]] = set()
    for finding in candidates:
        if os.path.abspath(finding.path) not in requested:
            continue
        key = (finding.path, finding.line, finding.column, finding.code)
        if key in emitted:
            continue
        emitted.add(key)
        index = suppression_cache.get(finding.path)
        if index is None:
            summary = project.summaries.get(finding.path)
            index = (summary.suppression_index() if summary is not None
                     else None)
            suppression_cache[finding.path] = index
        if index is not None and index.is_suppressed(  # type: ignore[union-attr]
                finding.line, finding.code):
            suppressed += 1
        else:
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return findings, suppressed


def run_deep_rules(files: Sequence[str],
                   codes: Optional[Sequence[str]] = None,
                   cache: Optional[AnalysisCache] = None,
                   include_dependents: bool = False,
                   ) -> Tuple[List[Finding], int]:
    """Run the interprocedural rules over ``files``.

    ``files`` is the already-collected list of requested ``*.py`` files;
    the analysis itself runs over the whole enclosing project (see
    :func:`expand_project_files`) but only findings whose sink falls in a
    *requested* file are reported.  With ``include_dependents`` (the
    ``--changed`` path) the requested set additionally covers the
    transitive call-graph neighbourhood of the given files, because a
    change in one file can move deep findings anchored in another (see
    :func:`_dependent_files`).  Returns ``(findings, suppressed)`` where
    suppressed counts findings silenced by a ``# repro: noqa`` comment
    on the sink line.
    """
    from repro.analysis.callgraph import CallGraph, load_project

    wanted: Set[str] = set(codes if codes is not None else deep_rule_codes())
    if not wanted or not files:
        return [], 0

    project = load_project(expand_project_files(files), cache=cache)

    candidates: List[Finding] = []
    graph: Optional[CallGraph] = None
    if wanted & _GRAPH_CODES or include_dependents:
        graph = CallGraph(project)
        if wanted & {"RC201", "RC202"}:
            candidates.extend(_reachable_sink_findings(graph, wanted))
        if "RC203" in wanted:
            candidates.extend(_fault_escape_findings(graph))
        if wanted & {"RC301", "RC302"}:
            candidates.extend(_shared_state_findings(graph, wanted))
        if wanted & _CONCURRENCY_CODES:
            from repro.analysis.concurrency import ConcurrencyAnalysis

            candidates.extend(ConcurrencyAnalysis(graph).findings(
                sorted(wanted & _CONCURRENCY_CODES)))
    if wanted & {"RC204", "RC205"}:
        candidates.extend(_event_liveness_findings(project, wanted))
    if "RC303" in wanted:
        candidates.extend(_pickle_soundness_findings(project))

    requested = {os.path.abspath(path) for path in files}
    if include_dependents and graph is not None:
        requested = _dependent_files(graph, requested)
    return _filter_candidates(project, candidates, requested)


def build_concurrency_report(files: Sequence[str],
                             cache: Optional[AnalysisCache] = None,
                             ) -> Dict[str, object]:
    """The machine-readable RC4xx report over ``files`` (the
    ``--concurrency-report`` payload): thread roots, handlers, spawns,
    the lock-order graph, and the unsuppressed findings anchored in the
    requested files.  Schema-versioned via
    :data:`repro.analysis.concurrency.CONCURRENCY_REPORT_SCHEMA_VERSION`.
    """
    from repro.analysis.callgraph import CallGraph, load_project
    from repro.analysis.concurrency import ConcurrencyAnalysis, build_report

    project = load_project(expand_project_files(files), cache=cache)
    graph = CallGraph(project)
    candidates = ConcurrencyAnalysis(graph).findings()
    findings, suppressed = _filter_candidates(
        project, candidates, {os.path.abspath(path) for path in files})
    return build_report(graph, findings, suppressed)
