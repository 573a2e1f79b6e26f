"""Whole-program call graph over a Python source tree (pure stdlib).

The per-file lint rules (:mod:`repro.analysis.lint.rules`) can only see one
module at a time, so a wall-clock read *two call hops below* the simulator
step loop passes them.  This module closes that hole: it parses every file
of the scanned tree exactly once into a compact :class:`FileSummary`
(imports, classes, per-function call/sink/effect/concurrency facts),
resolves calls across module boundaries into a :class:`CallGraph`, and
answers the whole-program question the deep rules need: which functions
are transitively callable from a set of entry points (the simulator step
loop, the firmware ISR, the campaign workers), with the call chain that
proves it (:meth:`CallGraph.reachable_from`).

Summaries are cached on disk keyed by the sha256 of each file's bytes via
:class:`AnalysisCache`, so repeated ``repro lint`` runs only re-parse the
files whose content actually changed.  The cache is advisory: a
corrupted, stale or unwritable cache degrades to a cold run, never to an
error.

Resolution policy (documented over-approximation)
-------------------------------------------------

Static call resolution in Python is necessarily approximate.  The builder
resolves, in order: bare names (nested siblings, module functions, local
classes, ``from``-imports), ``self.m()`` / ``cls.m()`` through the project
class hierarchy (the defining class, its ancestors *and* its descendants —
virtual dispatch), ``alias.f()`` through ``import``/``from`` module
aliases, and ``Cls.m()`` through known class names.  Any other attribute
call ``obj.m()`` falls back to *every* project method named ``m`` — a safe
over-approximation — except when ``m`` shadows a builtin container/str
method (``append``, ``get``, ``items``, ...), which would drown the graph
in false edges.  Calls through bound-method variables, subscripts and
lambdas are statically unresolvable and produce no edge; the engine's
``step()`` uses plain attribute calls precisely so its fan-out to node
``output``/``observe`` implementations stays visible here.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.lint.rules import (
    _DATETIME_FACTORIES,
    _GLOBAL_RNG_FUNCS,
    _TIME_FUNCS,
    _dotted_parts,
)
from repro.analysis.lint.suppressions import SuppressionIndex

#: Bump when the FileSummary layout changes incompatibly: cached summaries
#: with another version are re-parsed, never misread.
#: v2: per-function effect facts (global/param mutation sites, I/O and
#: ambient-state sinks) and per-file registration sites / module globals.
#: v3: per-function concurrency facts (named locksets on call/mutation
#: sites, ``with <lock>:`` acquisition sites, thread/process spawn sites,
#: signal-handler registrations, blocking sinks, ``async def`` flags).
#: v4: dropped the raise sites, try-guards and event-class evidence that
#: only the retired RC203/RC204/RC205 rules read, and the registration
#: fields (line, column, scenario, lambda kind) only RC303 read.
SUMMARY_SCHEMA_VERSION = 4
#: Bump when the effect/purity *interpretation* of the summaries changes
#: (new effect kinds, changed fixpoint semantics) without the summary
#: layout itself changing.  Folded into :func:`rules_cache_key` and the
#: purity manifest so upgraded analyzers never replay stale verdicts.
EFFECT_SCHEMA_VERSION = 1
#: Bump when the concurrency *interpretation* of the summaries changes
#: (thread-root discovery, lockset semantics, blocking-sink policy)
#: without the summary layout itself changing.  Folded into
#: :func:`rules_cache_key` and the concurrency report so upgraded
#: analyzers never replay stale RC4xx findings.
CONCURRENCY_SCHEMA_VERSION = 1
#: Bump when the on-disk cache file layout changes incompatibly.
#: v2: entries are validated by the sha256 of the file's bytes instead
#: of ``(mtime_ns, size)``.
CACHE_SCHEMA_VERSION = 2

#: Default on-disk location of the analysis cache (relative to the CWD).
DEFAULT_CACHE_PATH = os.path.join(".repro_cache", "lint.json")

#: Method names that shadow builtin container/str methods: excluded from
#: the name-based fallback so ``results.append(x)`` does not edge into a
#: project class that happens to define ``append``.
_BUILTIN_METHOD_NAMES: FrozenSet[str] = frozenset(
    name
    for typ in (dict, list, set, frozenset, tuple, str, bytes, bytearray)
    for name in dir(typ)
    if not name.startswith("_")
)

#: Container/str methods that mutate their receiver in place.  A call
#: ``root.append(x)`` where ``root`` is module-level state is a shared
#: mutation even though nothing is assigned.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "setdefault", "add", "discard", "popitem", "sort", "reverse",
    "appendleft", "popleft",
})

#: ``random`` module functions that mutate/draw from the *global* RNG are
#: the RC102/RC202 family's concern, not the mutation analysis: exclude
#: the whole module from mutation classification so ``random.seed(spec)``
#: (the campaign's sanctioned deterministic reseed) is not double-flagged.
_RNG_MODULES = frozenset({"random"})

#: Calls that write to the world outside the process (the "io" effect).
_IO_CALLS = {
    "os": frozenset({
        "remove", "unlink", "makedirs", "mkdir", "rename", "replace",
        "rmdir", "chdir", "symlink", "link", "chmod", "system", "popen",
        "_exit", "kill",
    }),
    "shutil": None,  # any shutil call writes
    "subprocess": None,  # any subprocess call spawns
}
#: Bare-name builtins that perform I/O.
_IO_BUILTINS = frozenset({"open", "print", "input"})
#: Method names that read/write files through handles or pathlib.
_IO_METHODS = frozenset({"write_text", "write_bytes"})

#: Calls that read ambient process/host state beyond the arguments (the
#: "reads-ambient" effect): environment, filesystem metadata, host info.
_AMBIENT_CALLS = {
    "os": frozenset({
        "getenv", "getcwd", "cpu_count", "stat", "listdir", "walk",
        "scandir", "uname", "getpid", "urandom",
    }),
    "os.path": frozenset({
        "exists", "isfile", "isdir", "getsize", "getmtime", "realpath",
        "abspath", "expanduser",
    }),
    "platform": None,  # any platform call reads host identity
    "socket": frozenset({"gethostname", "getfqdn"}),
}
#: Attribute chains whose *read* is ambient state (not calls).
_AMBIENT_ATTRS = frozenset({("os", "environ"), ("sys", "argv")})
#: Method names that read files through pathlib-style handles.
_AMBIENT_METHODS = frozenset({"read_text", "read_bytes"})

#: Function names whose call sites register scenario factories; the second
#: positional argument (or ``factory=`` keyword) is the factory, a worker
#: entry point for RC301/RC302.
_REGISTRATION_FUNCS = frozenset({"register_scenario"})

#: Method names whose *unresolved* calls can block the calling thread,
#: mapped to a blocking category.  A call that resolves to a project
#: function is never classified through this table — the callee's own
#: body is analyzed instead (the RC402 rule checks resolved edges at the
#: same line before trusting a name-based match).
_BLOCKING_METHOD_CATEGORIES: Mapping[str, str] = {
    "recv": "net", "recv_bytes": "net", "recv_into": "net",
    "accept": "net", "poll": "net", "sendall": "net", "connect": "net",
    "readline": "file",
    "wait": "wait",
    "acquire": "lock",
    "join": "join",
}
#: ``.join()`` is only a blocking sink when the receiver chain hints at a
#: thread/process handle — ``", ".join(...)`` and ``os.path.join`` stay
#: out of the graph entirely (no dotted parts / no hint).
_JOIN_RECEIVER_HINTS = ("proc", "thread", "worker", "pool", "child")
#: Module-level calls that block, via the resolved ``(module, func)``
#: target (``None`` means every function of the module).
_BLOCKING_CALLS: Mapping[str, Optional[FrozenSet[str]]] = {
    "subprocess": None,
    "select": frozenset({"select"}),
    "time": frozenset({"sleep"}),
}
#: Spawn constructors: last call segment -> spawn kind.  Guarded by a
#: ``target=`` keyword or a resolved threading/multiprocessing import so
#: arbitrary project classes named ``Process`` do not match.
_SPAWN_CTORS: Mapping[str, str] = {"Thread": "thread", "Process": "process"}


# ------------------------------------------------------------- summary model


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    Attributes:
        parts: The dotted callee chain (``a.b.c()`` -> ``("a","b","c")``).
        line: 1-based source line of the call.
        locks: Normalized names of locks held (``with <lock>:`` blocks
            enclosing the call within the same function) — the lock-order
            analysis propagates these across the edge.
    """

    parts: Tuple[str, ...]
    line: int
    locks: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"parts": list(self.parts), "line": self.line,
                "locks": list(self.locks)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CallSite":
        return cls(parts=tuple(data["parts"]), line=int(data["line"]),
                   locks=tuple(data.get("locks", ())))


@dataclass(frozen=True)
class SinkSite:
    """A determinism sink (wall-clock read / global-RNG draw) in a body."""

    line: int
    column: int
    description: str

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "column": self.column,
                "description": self.description}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SinkSite":
        return cls(line=int(data["line"]), column=int(data.get("column", 0)),
                   description=str(data.get("description", "")))


@dataclass(frozen=True)
class MutationSite:
    """One statement that mutates state outliving the function call.

    Attributes:
        line: 1-based source line of the mutation.
        column: 0-based column offset.
        target: Display form of the mutated expression
            (``"_REGISTRY[...]"``, ``"Cls.attr"``).
        root: The leftmost name of the mutated chain.
        scope: ``"global"`` (module/class-level state) or ``"param"``
            (an argument escaping the call, ``self`` included).
        kind: ``"assign"``, ``"augassign"``, ``"delete"`` or ``"method"``
            (an in-place mutating method call such as ``.append()``).
        locked: True when the statement sits inside a ``with`` block whose
            context expression names a lock — the RC302 exemption.
        locks: Normalized names of the locks held (the RC401 lockset).
    """

    line: int
    column: int
    target: str
    root: str
    scope: str
    kind: str
    locked: bool = False
    locks: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "column": self.column,
                "target": self.target, "root": self.root,
                "scope": self.scope, "kind": self.kind,
                "locked": self.locked, "locks": list(self.locks)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MutationSite":
        return cls(line=int(data["line"]), column=int(data.get("column", 0)),
                   target=str(data.get("target", "")),
                   root=str(data.get("root", "")),
                   scope=str(data.get("scope", "global")),
                   kind=str(data.get("kind", "assign")),
                   locked=bool(data.get("locked", False)),
                   locks=tuple(data.get("locks", ())))


@dataclass(frozen=True)
class RegistrationSite:
    """One ``register_scenario(...)`` call site: its factory is a worker
    entry point for RC301/RC302.

    ``factory_kind`` classifies the factory argument statically:
    ``"nested"`` (a function defined inside the registering function),
    ``"ref"`` (a name/attribute chain, recorded in ``factory`` for
    project-level resolution) or ``"unknown"`` (a lambda or computed
    value the analysis cannot locate — the purity manifest calls those
    ``unresolved``).
    """

    factory_kind: str
    factory: Tuple[str, ...] = ()
    #: Qualname of the enclosing function ("" at module level).
    enclosing: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"factory_kind": self.factory_kind,
                "factory": list(self.factory), "enclosing": self.enclosing}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RegistrationSite":
        return cls(factory_kind=str(data.get("factory_kind", "unknown")),
                   factory=tuple(data.get("factory", ())),
                   enclosing=str(data.get("enclosing", "")))


@dataclass(frozen=True)
class LockSite:
    """One lock acquisition (``with <lock>:`` or ``<lock>.acquire()``).

    ``name`` is the normalized lock identity (``self`` replaced by the
    enclosing class name, module globals qualified by their module) and
    ``held`` names the locks already held at the acquisition — the edges
    of the RC405 lock-order graph.
    """

    line: int
    name: str
    held: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "name": self.name,
                "held": list(self.held)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LockSite":
        return cls(line=int(data["line"]), name=str(data.get("name", "")),
                   held=tuple(data.get("held", ())))


@dataclass(frozen=True)
class SpawnSite:
    """One thread/process spawn (``Thread(target=...)``, ``Process(...)``,
    ``os.fork()``).

    ``target`` is the dotted chain of the ``target=`` argument when
    statically visible (resolved project-wide by the concurrency
    analysis); ``daemon`` is the constructor's ``daemon=`` constant
    (``None`` when absent or dynamic — treated as non-daemon).
    """

    line: int
    column: int
    kind: str  # "thread" | "process"
    target: Tuple[str, ...] = ()
    daemon: Optional[bool] = None
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "column": self.column, "kind": self.kind,
                "target": list(self.target), "daemon": self.daemon,
                "description": self.description}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpawnSite":
        daemon = data.get("daemon")
        return cls(line=int(data["line"]), column=int(data.get("column", 0)),
                   kind=str(data.get("kind", "thread")),
                   target=tuple(data.get("target", ())),
                   daemon=None if daemon is None else bool(daemon),
                   description=str(data.get("description", "")))


@dataclass(frozen=True)
class HandlerSite:
    """One signal-handler registration (``signal.signal(sig, handler)``
    or ``loop.add_signal_handler(sig, handler)``).

    ``handler_kind`` mirrors :class:`RegistrationSite`: ``"ref"`` (dotted
    chain in ``handler``), ``"lambda"`` (``handler`` holds the single
    dotted call inside the lambda body when there is one) or
    ``"unknown"``.
    """

    line: int
    column: int
    signal_name: str
    handler_kind: str
    handler: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "column": self.column,
                "signal_name": self.signal_name,
                "handler_kind": self.handler_kind,
                "handler": list(self.handler)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HandlerSite":
        return cls(line=int(data["line"]), column=int(data.get("column", 0)),
                   signal_name=str(data.get("signal_name", "")),
                   handler_kind=str(data.get("handler_kind", "unknown")),
                   handler=tuple(data.get("handler", ())))


@dataclass(frozen=True)
class BlockingSite:
    """One potentially blocking call (RC402 evidence).

    ``category`` is one of ``"sleep"``, ``"net"``, ``"file"``, ``"wait"``,
    ``"lock"``, ``"join"`` or ``"proc"``; ``awaited`` is True when the
    call sits anywhere inside an ``await`` expression (an asyncio
    coroutine, not a thread-blocking primitive).
    """

    line: int
    column: int
    category: str
    description: str
    awaited: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"line": self.line, "column": self.column,
                "category": self.category,
                "description": self.description, "awaited": self.awaited}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BlockingSite":
        return cls(line=int(data["line"]), column=int(data.get("column", 0)),
                   category=str(data.get("category", "")),
                   description=str(data.get("description", "")),
                   awaited=bool(data.get("awaited", False)))


@dataclass
class FunctionSummary:
    """Call/sink/effect/concurrency facts for one function."""

    qualname: str
    line: int
    calls: List[CallSite] = field(default_factory=list)
    wallclock_sinks: List[SinkSite] = field(default_factory=list)
    random_sinks: List[SinkSite] = field(default_factory=list)
    io_sinks: List[SinkSite] = field(default_factory=list)
    ambient_sinks: List[SinkSite] = field(default_factory=list)
    mutations: List[MutationSite] = field(default_factory=list)
    is_async: bool = False
    lock_sites: List[LockSite] = field(default_factory=list)
    spawns: List[SpawnSite] = field(default_factory=list)
    handlers: List[HandlerSite] = field(default_factory=list)
    blocking_sinks: List[BlockingSite] = field(default_factory=list)
    #: Reads of closure variables shared with a nested function (recorded
    #: as :class:`MutationSite` with ``kind="read"``, ``scope="closure"``)
    #: — the read half of the RC401 lockset analysis.
    shared_reads: List[MutationSite] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "calls": [c.to_dict() for c in self.calls],
            "wallclock_sinks": [s.to_dict() for s in self.wallclock_sinks],
            "random_sinks": [s.to_dict() for s in self.random_sinks],
            "io_sinks": [s.to_dict() for s in self.io_sinks],
            "ambient_sinks": [s.to_dict() for s in self.ambient_sinks],
            "mutations": [m.to_dict() for m in self.mutations],
            "is_async": self.is_async,
            "lock_sites": [s.to_dict() for s in self.lock_sites],
            "spawns": [s.to_dict() for s in self.spawns],
            "handlers": [s.to_dict() for s in self.handlers],
            "blocking_sinks": [s.to_dict() for s in self.blocking_sinks],
            "shared_reads": [m.to_dict() for m in self.shared_reads],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FunctionSummary":
        return cls(
            qualname=str(data["qualname"]),
            line=int(data.get("line", 0)),
            calls=[CallSite.from_dict(c) for c in data.get("calls", ())],
            wallclock_sinks=[SinkSite.from_dict(s)
                             for s in data.get("wallclock_sinks", ())],
            random_sinks=[SinkSite.from_dict(s)
                          for s in data.get("random_sinks", ())],
            io_sinks=[SinkSite.from_dict(s)
                      for s in data.get("io_sinks", ())],
            ambient_sinks=[SinkSite.from_dict(s)
                           for s in data.get("ambient_sinks", ())],
            mutations=[MutationSite.from_dict(m)
                       for m in data.get("mutations", ())],
            is_async=bool(data.get("is_async", False)),
            lock_sites=[LockSite.from_dict(s)
                        for s in data.get("lock_sites", ())],
            spawns=[SpawnSite.from_dict(s)
                    for s in data.get("spawns", ())],
            handlers=[HandlerSite.from_dict(s)
                      for s in data.get("handlers", ())],
            blocking_sinks=[BlockingSite.from_dict(s)
                            for s in data.get("blocking_sinks", ())],
            shared_reads=[MutationSite.from_dict(m)
                          for m in data.get("shared_reads", ())],
        )


@dataclass
class ClassSummary:
    """One top-level class: bases (raw dotted strings) and method names."""

    name: str
    line: int
    bases: Tuple[str, ...] = ()
    methods: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "line": self.line,
                "bases": list(self.bases), "methods": list(self.methods)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClassSummary":
        return cls(name=str(data["name"]), line=int(data.get("line", 0)),
                   bases=tuple(data.get("bases", ())),
                   methods=tuple(data.get("methods", ())))


@dataclass
class FileSummary:
    """Everything the whole-program analysis needs from one parsed file."""

    path: str
    module: Optional[str]
    import_aliases: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    #: Module-level assigned names -> first binding line.  The mutation
    #: analysis classifies writes through these roots as shared state.
    module_globals: Dict[str, int] = field(default_factory=dict)
    #: ``register_scenario(...)`` call sites found anywhere in the file.
    registrations: List[RegistrationSite] = field(default_factory=list)

    def suppression_index(self) -> SuppressionIndex:
        return SuppressionIndex.from_mapping(
            {line: codes for line, codes in self.suppressions.items()})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "module": self.module,
            "import_aliases": dict(self.import_aliases),
            "from_imports": {k: list(v) for k, v in self.from_imports.items()},
            "functions": {k: v.to_dict() for k, v in self.functions.items()},
            "classes": {k: v.to_dict() for k, v in self.classes.items()},
            "suppressions": {str(k): v for k, v in self.suppressions.items()},
            "module_globals": dict(self.module_globals),
            "registrations": [r.to_dict() for r in self.registrations],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FileSummary":
        return cls(
            path=str(data["path"]),
            module=data.get("module"),
            import_aliases=dict(data.get("import_aliases", {})),
            from_imports={k: (v[0], v[1])
                          for k, v in data.get("from_imports", {}).items()},
            functions={k: FunctionSummary.from_dict(v)
                       for k, v in data.get("functions", {}).items()},
            classes={k: ClassSummary.from_dict(v)
                     for k, v in data.get("classes", {}).items()},
            suppressions={int(k): list(v)
                          for k, v in data.get("suppressions", {}).items()},
            module_globals={k: int(v)
                            for k, v in data.get("module_globals",
                                                 {}).items()},
            registrations=[RegistrationSite.from_dict(r)
                           for r in data.get("registrations", ())],
        )


# -------------------------------------------------------------- module names


def module_name_for(path: str) -> Optional[str]:
    """Dotted module name of ``path``, walking up the ``__init__.py`` chain.

    ``src/repro/bus/simulator.py`` -> ``repro.bus.simulator`` (assuming
    ``src/`` itself is not a package).  A package ``__init__.py`` maps to
    the package name.  Files outside any package map to their bare stem.
    """
    absolute = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(absolute))[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    directory = os.path.dirname(absolute)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:  # filesystem root
            break
        directory = parent
    if not parts:
        return None
    parts.reverse()
    return ".".join(parts)


def _resolve_relative(module: Optional[str], level: int,
                      own_module: Optional[str],
                      is_package: bool) -> Optional[str]:
    """Absolute module named by ``from <dots><module> import ...``."""
    if level == 0:
        return module
    if own_module is None:
        return module
    base_parts = own_module.split(".")
    if not is_package:
        base_parts = base_parts[:-1]
    drop = level - 1
    if drop > len(base_parts):
        return module
    base = base_parts[:len(base_parts) - drop]
    if module:
        base = base + module.split(".")
    return ".".join(base) if base else None


# ---------------------------------------------------------------- summarizer


_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)
_TRY_NODES: Tuple[type, ...] = tuple(
    t for t in (getattr(ast, "Try", None), getattr(ast, "TryStar", None))
    if t is not None
)


#: Methods whose ``self`` mutations are construction, not escape: the
#: receiver does not exist outside the call yet.
_CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _flatten_targets(nodes: Iterable[ast.expr]) -> List[ast.expr]:
    """Unpack tuple/list/starred assignment targets into leaf targets."""
    leaves: List[ast.expr] = []
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        else:
            leaves.append(node)
    return leaves


def _is_lockish(parts: Sequence[str]) -> bool:
    """Does a ``with`` context expression look like a lock acquisition?"""
    return any("lock" in part.lower() for part in parts)


def _function_params(node: ast.AST) -> Set[str]:
    assert isinstance(node, _FunctionNode)
    args = node.args
    params = {a.arg for a in (list(args.posonlyargs) + list(args.args)
                              + list(args.kwonlyargs))}
    if args.vararg is not None:
        params.add(args.vararg.arg)
    if args.kwarg is not None:
        params.add(args.kwarg.arg)
    return params


class _FunctionContext:
    """Name-binding facts for one function body (mutation classification).

    ``locals`` over-approximates (nested-function locals bleed in via the
    plain AST walk), which only ever *suppresses* mutation findings —
    a name bound locally anywhere in the subtree is never classified as
    shared state.

    ``shared_with_nested`` holds this function's own bindings that some
    nested ``def`` captures (reads without binding), and ``parent`` chains
    to the enclosing function's context: together they classify closure
    state shared between a function and the threads it spawns from nested
    targets (the RC401 evidence).  ``owner_class`` names the enclosing
    class for methods — used to normalize ``self._lock`` spellings.
    """

    def __init__(self, node: ast.AST,
                 parent: Optional["_FunctionContext"] = None,
                 owner_class: Optional[str] = None) -> None:
        assert isinstance(node, _FunctionNode)
        self.parent = parent
        self.owner_class = owner_class
        self.params = _function_params(node)
        self.is_constructor = node.name in _CONSTRUCTOR_METHODS
        self.global_decls: Set[str] = set()
        self.locals: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Global, ast.Nonlocal)):
                self.global_decls.update(sub.names)
            elif isinstance(sub, ast.Name) and isinstance(
                    sub.ctx, (ast.Store, ast.Del)):
                self.locals.add(sub.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                for leaf in _flatten_targets([sub.target]):
                    if isinstance(leaf, ast.Name):
                        self.locals.add(leaf.id)
        self.locals -= self.global_decls
        self.shared_with_nested: Set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, _FunctionNode) and sub is not node:
                bound = _function_params(sub)
                used: Set[str] = set()
                for inner in ast.walk(sub):
                    if isinstance(inner, ast.Name):
                        used.add(inner.id)
                        if isinstance(inner.ctx, (ast.Store, ast.Del)):
                            bound.add(inner.id)
                self.shared_with_nested.update(used - bound)
        self.shared_with_nested &= (self.locals | self.params)

    def captured_from_enclosing(self, root: str) -> bool:
        """Is ``root`` a free variable bound by an enclosing function?"""
        parent = self.parent
        while parent is not None:
            if root in parent.locals or root in parent.params:
                return True
            parent = parent.parent
        return False

    def closure_shared(self, root: str) -> bool:
        """Does ``root`` name state shared across a closure boundary?"""
        if root in ("self", "cls") or root in self.global_decls:
            return False
        if root in self.locals or root in self.params:
            return root in self.shared_with_nested
        return self.captured_from_enclosing(root)


class _Summarizer:
    """One-pass AST -> :class:`FileSummary` extraction."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        module = module_name_for(path)
        self.summary = FileSummary(
            path=path,
            module=module,
            suppressions=SuppressionIndex(source.splitlines()).to_mapping(),
        )
        self._is_package = path.replace("\\", "/").endswith("__init__.py")
        self._collect_imports(tree)
        self._time_aliases = {a for a, m in
                              self.summary.import_aliases.items()
                              if m == "time"}
        self._datetime_aliases = {a for a, m in
                                  self.summary.import_aliases.items()
                                  if m == "datetime"}
        self._random_aliases = {a for a, m in
                                self.summary.import_aliases.items()
                                if m == "random"}
        self._class_names = {node.name for node in tree.body
                             if isinstance(node, ast.ClassDef)}
        self._collect_module_globals(tree)
        for node in tree.body:
            if isinstance(node, _FunctionNode):
                self._summarize_function(node, prefix="")
            elif isinstance(node, ast.ClassDef):
                self._summarize_class(node)
        self._scan_module_level(tree)
        self._finalize_registrations()

    # ------------------------------------------------------------ imports

    def _collect_imports(self, tree: ast.Module) -> None:
        own = self.summary.module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.summary.import_aliases[
                        alias.asname or alias.name.split(".")[0]
                    ] = alias.name if alias.asname else alias.name.split(".")[0]
                    if alias.asname:
                        self.summary.import_aliases[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom):
                module = _resolve_relative(node.module, node.level, own,
                                           self._is_package)
                if module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.summary.from_imports[
                        alias.asname or alias.name] = (module, alias.name)

    def _collect_module_globals(self, tree: ast.Module) -> None:
        """Names bound by module-level assignments (shared-state roots)."""
        for node in tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = _flatten_targets(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    self.summary.module_globals.setdefault(
                        target.id, node.lineno)

    # ------------------------------------------------------------ classes

    def _summarize_class(self, node: ast.ClassDef) -> None:
        bases: List[str] = []
        for base in node.bases:
            parts = _dotted_parts(base)
            if parts:
                bases.append(".".join(parts))
        methods = [item.name for item in node.body
                   if isinstance(item, _FunctionNode)]
        self.summary.classes[node.name] = ClassSummary(
            name=node.name, line=node.lineno,
            bases=tuple(bases), methods=tuple(methods))
        for item in node.body:
            if isinstance(item, _FunctionNode):
                self._summarize_function(item, prefix=node.name + ".")

    # ---------------------------------------------------------- functions

    def _summarize_function(self, node: ast.AST, prefix: str,
                            parent_ctx: Optional[_FunctionContext] = None,
                            ) -> None:
        assert isinstance(node, _FunctionNode)
        qualname = prefix + node.name
        fn = FunctionSummary(
            qualname=qualname, line=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef))
        self.summary.functions[qualname] = fn
        owner = prefix.split(".", 1)[0] if prefix else ""
        ctx = _FunctionContext(
            node, parent=parent_ctx,
            owner_class=owner if owner in self._class_names else None)
        self._walk_statements(node.body, fn, ctx, locks=())

    def _lock_display(self, parts: Sequence[str],
                      ctx: _FunctionContext) -> str:
        """Normalized lock identity: ``self``/``cls`` become the enclosing
        class name, module globals get their module prefix, everything
        else keeps its dotted spelling (closure/param locks compare by
        bare name — the spellings both sides of the closure use)."""
        if parts[0] in ("self", "cls") and ctx.owner_class:
            return ".".join([ctx.owner_class] + list(parts[1:]))
        if parts[0] in self.summary.module_globals \
                and parts[0] not in ctx.locals and parts[0] not in ctx.params \
                and not ctx.captured_from_enclosing(parts[0]):
            stem = self.summary.module or os.path.splitext(
                os.path.basename(self.summary.path))[0]
            return f"{stem}.{'.'.join(parts)}"
        return ".".join(parts)

    def _walk_statements(self, stmts: Sequence[ast.stmt],
                         fn: FunctionSummary,
                         ctx: _FunctionContext,
                         locks: Tuple[str, ...]) -> None:
        for stmt in stmts:
            if isinstance(stmt, _FunctionNode):
                self._summarize_function(stmt, prefix=fn.qualname + ".",
                                         parent_ctx=ctx)
            elif isinstance(stmt, ast.ClassDef):
                continue  # nested classes: out of scope
            elif isinstance(stmt, _TRY_NODES):
                self._walk_statements(stmt.body, fn, ctx, locks)
                for handler in stmt.handlers:
                    self._walk_statements(handler.body, fn, ctx, locks)
                self._walk_statements(stmt.orelse, fn, ctx, locks)
                self._walk_statements(stmt.finalbody, fn, ctx, locks)
            elif isinstance(stmt, ast.Raise):
                if stmt.exc is not None:
                    self._scan_expression(stmt.exc, fn, ctx, locks)
            elif isinstance(stmt, (ast.If, ast.While)):
                self._scan_expression(stmt.test, fn, ctx, locks)
                self._walk_statements(stmt.body, fn, ctx, locks)
                self._walk_statements(stmt.orelse, fn, ctx, locks)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expression(stmt.iter, fn, ctx, locks)
                self._walk_statements(stmt.body, fn, ctx, locks)
                self._walk_statements(stmt.orelse, fn, ctx, locks)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner_locks = locks
                for item in stmt.items:
                    self._scan_expression(item.context_expr, fn, ctx, locks)
                    parts = _dotted_parts(item.context_expr) or []
                    if parts and _is_lockish(parts):
                        name = self._lock_display(parts, ctx)
                        fn.lock_sites.append(LockSite(
                            line=stmt.lineno, name=name, held=inner_locks))
                        if name not in inner_locks:
                            inner_locks = inner_locks + (name,)
                self._walk_statements(stmt.body, fn, ctx, inner_locks)
            elif isinstance(stmt, ast.Match):
                self._scan_expression(stmt.subject, fn, ctx, locks)
                for case in stmt.cases:
                    if case.guard is not None:
                        self._scan_expression(case.guard, fn, ctx, locks)
                    self._walk_statements(case.body, fn, ctx, locks)
            else:
                if isinstance(stmt, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign, ast.Delete)):
                    self._record_mutations(stmt, fn, ctx, locks)
                self._scan_expression(stmt, fn, ctx, locks)

    # ------------------------------------------------------------ mutations

    def _mutation_scope(self, root: str,
                        ctx: _FunctionContext) -> Optional[str]:
        """``"global"``/``"param"``/``"closure"`` when a write through
        ``root`` mutates state outliving the call (or shared across a
        nested-function boundary), ``None`` for locals and unknowns."""
        if root in ("self", "cls"):
            return None if ctx.is_constructor else "param"
        if root in ctx.global_decls:
            return "global"
        if root in ctx.params:
            return "param"
        if root in ctx.locals:
            return "closure" if root in ctx.shared_with_nested else None
        if ctx.captured_from_enclosing(root):
            return "closure"
        if root in self._class_names \
                or root in self.summary.module_globals:
            return "global"
        alias = self.summary.import_aliases.get(root)
        if alias is not None:
            return None if alias in _RNG_MODULES else "global"
        target = self.summary.from_imports.get(root)
        if target is not None:
            return None if target[0] in _RNG_MODULES else "global"
        return None

    def _record_mutations(self, stmt: ast.stmt, fn: FunctionSummary,
                          ctx: _FunctionContext,
                          locks: Tuple[str, ...]) -> None:
        locked = bool(locks)
        if isinstance(stmt, ast.Assign):
            targets, kind = _flatten_targets(stmt.targets), "assign"
        elif isinstance(stmt, ast.AugAssign):
            targets, kind = [stmt.target], "augassign"
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            targets, kind = [stmt.target], "assign"
        else:
            assert isinstance(stmt, ast.Delete)
            targets, kind = _flatten_targets(stmt.targets), "delete"
        for target in targets:
            if isinstance(target, ast.Name):
                # Rebinding a name is a shared mutation only under a
                # ``global``/``nonlocal`` declaration.
                if target.id in ctx.global_decls:
                    fn.mutations.append(MutationSite(
                        line=stmt.lineno, column=stmt.col_offset,
                        target=target.id, root=target.id,
                        scope="global", kind=kind, locked=locked,
                        locks=locks))
                continue
            if not isinstance(target, (ast.Subscript, ast.Attribute)):
                continue
            parts = _dotted_parts(target.value)
            if not parts:
                continue
            scope = self._mutation_scope(parts[0], ctx)
            if scope is None:
                continue
            display = ".".join(parts)
            display += "[...]" if isinstance(target, ast.Subscript) \
                else f".{target.attr}"
            fn.mutations.append(MutationSite(
                line=stmt.lineno, column=stmt.col_offset,
                target=display, root=parts[0],
                scope=scope, kind=kind, locked=locked, locks=locks))

    def _record_method_mutation(self, call: ast.Call,
                                parts: Sequence[str],
                                fn: FunctionSummary,
                                ctx: _FunctionContext,
                                locks: Tuple[str, ...]) -> None:
        receiver = parts[:-1]
        scope = self._mutation_scope(receiver[0], ctx)
        if scope is None:
            return
        fn.mutations.append(MutationSite(
            line=call.lineno, column=call.col_offset,
            target=f"{'.'.join(receiver)}.{parts[-1]}()",
            root=receiver[0], scope=scope, kind="method",
            locked=bool(locks), locks=locks))

    def _scan_expression(self, node: ast.AST, fn: FunctionSummary,
                         ctx: _FunctionContext,
                         locks: Tuple[str, ...]) -> None:
        # A call is "awaited" when it sits anywhere inside an ``await``
        # subtree (covers ``await asyncio.wait_for(evt.wait(), t)``).
        awaited: FrozenSet[int] = frozenset(
            id(inner)
            for sub in ast.walk(node) if isinstance(sub, ast.Await)
            for inner in ast.walk(sub))
        seen_reads: set = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) \
                    and ctx.closure_shared(sub.id):
                key = (sub.id, sub.lineno)
                if key not in seen_reads:
                    seen_reads.add(key)
                    fn.shared_reads.append(MutationSite(
                        line=sub.lineno, column=sub.col_offset,
                        target=sub.id, root=sub.id, scope="closure",
                        kind="read", locked=bool(locks), locks=locks))
                continue
            if isinstance(sub, ast.Attribute):
                attr_parts = _dotted_parts(sub) or []
                if len(attr_parts) == 2:
                    root = self.summary.import_aliases.get(
                        attr_parts[0], attr_parts[0])
                    if (root, attr_parts[1]) in _AMBIENT_ATTRS:
                        fn.ambient_sinks.append(SinkSite(
                            line=sub.lineno, column=sub.col_offset,
                            description=".".join(attr_parts)))
                continue
            if not isinstance(sub, ast.Call):
                continue
            parts = _dotted_parts(sub.func)
            if not parts:
                continue
            fn.calls.append(CallSite(parts=tuple(parts), line=sub.lineno,
                                     locks=locks))
            self._classify_sink(sub, parts, fn)
            self._classify_blocking(sub, parts, fn, id(sub) in awaited)
            self._record_spawn(sub, parts, fn)
            self._record_handler(sub, parts, fn)
            if len(parts) >= 2 and parts[-1] == "acquire" \
                    and _is_lockish(parts[:-1]):
                fn.lock_sites.append(LockSite(
                    line=sub.lineno,
                    name=self._lock_display(parts[:-1], ctx), held=locks))
            if len(parts) >= 2 and parts[-1] in _MUTATING_METHODS:
                self._record_method_mutation(sub, parts, fn, ctx, locks)
            if parts[-1] in _REGISTRATION_FUNCS:
                self._record_registration(sub, fn.qualname)

    # --------------------------------------------------- concurrency facts

    def _record_spawn(self, call: ast.Call, parts: Sequence[str],
                      fn: FunctionSummary) -> None:
        resolved = self._module_call_target(parts)
        if resolved == ("os", "fork"):
            fn.spawns.append(SpawnSite(
                line=call.lineno, column=call.col_offset, kind="fork",
                description="os.fork()"))
            return
        kind = _SPAWN_CTORS.get(parts[-1])
        if kind is None:
            return
        target: Tuple[str, ...] = ()
        daemon: Optional[bool] = None
        has_target_kw = False
        for keyword in call.keywords:
            if keyword.arg == "target":
                has_target_kw = True
                target = tuple(_dotted_parts(keyword.value) or ())
            elif keyword.arg == "daemon" \
                    and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, bool):
                daemon = keyword.value.value
        from_known_module = resolved is not None and resolved[0] in (
            "threading", "multiprocessing")
        if not has_target_kw and not from_known_module:
            return  # some unrelated Thread/Process-named constructor
        fn.spawns.append(SpawnSite(
            line=call.lineno, column=call.col_offset, kind=kind,
            target=target, daemon=daemon,
            description=f"{'.'.join(parts)}(...)"))

    @staticmethod
    def _handler_facts(expr: ast.expr) -> Tuple[str, Tuple[str, ...]]:
        """(kind, dotted-chain) for a handler expression, lambda-aware."""
        if isinstance(expr, ast.Lambda):
            body = expr.body
            calls = [c for c in ast.walk(body) if isinstance(c, ast.Call)]
            if len(calls) == 1:
                dotted = _dotted_parts(calls[0].func)
                if dotted:
                    return "lambda", tuple(dotted)
            return "lambda", ()
        dotted = _dotted_parts(expr)
        if dotted:
            return "ref", tuple(dotted)
        return "unknown", ()

    def _record_handler(self, call: ast.Call, parts: Sequence[str],
                        fn: FunctionSummary) -> None:
        resolved = self._module_call_target(parts)
        is_signal = resolved == ("signal", "signal")
        is_loop = parts[-1] == "add_signal_handler" and len(parts) >= 2
        if not (is_signal or is_loop) or len(call.args) < 2:
            return
        sig_parts = _dotted_parts(call.args[0]) or []
        signal_name = sig_parts[-1] if sig_parts else "<dynamic>"
        kind, handler = self._handler_facts(call.args[1])
        fn.handlers.append(HandlerSite(
            line=call.lineno, column=call.col_offset,
            signal_name=signal_name, handler_kind=kind, handler=handler))

    def _classify_blocking(self, call: ast.Call, parts: Sequence[str],
                           fn: FunctionSummary, awaited: bool) -> None:
        """Record potentially thread-blocking calls (RC402 evidence).

        Runs independently of :meth:`_classify_sink` because the latter
        early-returns once it files ``time.sleep`` as a wallclock sink.
        """
        dotted = ".".join(parts)
        category: Optional[str] = None
        resolved = self._module_call_target(parts)
        if resolved is not None:
            module, func = resolved
            if module.startswith("asyncio"):
                return  # coroutine factories, not thread-blocking
            if self._in_call_map(_BLOCKING_CALLS, module, func):
                category = {"subprocess": "proc", "select": "net",
                            "time": "sleep"}[module.split(".", 1)[0]]
        if category is None and len(parts) == 1 and parts[0] == "open" \
                and parts[0] not in self.summary.from_imports \
                and parts[0] not in self.summary.functions:
            category = "file"
        if category is None and len(parts) >= 2:
            root = self.summary.import_aliases.get(parts[0], parts[0])
            if root.startswith("asyncio"):
                return
            method = parts[-1]
            if method in ("read_text", "write_text"):
                category = "file"
            elif method in _BLOCKING_METHOD_CATEGORIES:
                category = _BLOCKING_METHOD_CATEGORIES[method]
                if method == "join":
                    receiver = ".".join(parts[:-1]).lower()
                    if not any(hint in receiver
                               for hint in _JOIN_RECEIVER_HINTS):
                        return  # str.join / os.path.join, not a wait
        if category is not None:
            fn.blocking_sinks.append(BlockingSite(
                line=call.lineno, column=call.col_offset,
                category=category, description=f"{dotted}()",
                awaited=awaited))

    def _classify_sink(self, call: ast.Call, parts: List[str],
                       fn: FunctionSummary) -> None:
        dotted = ".".join(parts)
        sink = SinkSite(line=call.lineno, column=call.col_offset,
                        description=f"{dotted}()")
        if len(parts) >= 2 and parts[0] in self._time_aliases \
                and parts[1] in _TIME_FUNCS:
            fn.wallclock_sinks.append(sink)
            return
        if parts[0] in self._datetime_aliases \
                and parts[-1] in _DATETIME_FACTORIES:
            fn.wallclock_sinks.append(sink)
            return
        if len(parts) == 1:
            target = self.summary.from_imports.get(parts[0])
            if target == ("time", parts[0]) or (
                    target is not None and target[0] == "time"
                    and target[1] in _TIME_FUNCS):
                fn.wallclock_sinks.append(sink)
                return
            if target is not None and target[0] == "datetime" \
                    and target[1] in _DATETIME_FACTORIES:
                fn.wallclock_sinks.append(sink)
                return
            if target is not None and target[0] == "random" and (
                    target[1] in _GLOBAL_RNG_FUNCS
                    or target[1] == "SystemRandom"):
                fn.random_sinks.append(sink)
                return
        if len(parts) == 2 and parts[0] in self._random_aliases:
            if parts[1] in _GLOBAL_RNG_FUNCS or parts[1] == "SystemRandom":
                fn.random_sinks.append(sink)
                return
            if parts[1] == "Random" and not call.args and not call.keywords:
                fn.random_sinks.append(SinkSite(
                    line=call.lineno, column=call.col_offset,
                    description=f"{dotted}() without a seed"))
                return
        self._classify_effect_sink(call, parts, sink, fn)

    # -------------------------------------------------------- effect sinks

    def _module_call_target(
            self, parts: Sequence[str]) -> Optional[Tuple[str, str]]:
        """``(module, function)`` for a call through an imported module or
        a from-imported name, else ``None``."""
        if len(parts) == 1:
            return self.summary.from_imports.get(parts[0])
        base = self.summary.import_aliases.get(parts[0])
        if base is None:
            target = self.summary.from_imports.get(parts[0])
            if target is None:
                return None
            base = f"{target[0]}.{target[1]}"
        rest = parts[1:]
        if len(rest) == 1:
            return (base, rest[0])
        return (base + "." + ".".join(rest[:-1]), rest[-1])

    @staticmethod
    def _in_call_map(mapping: Mapping[str, Optional[FrozenSet[str]]],
                     module: str, func: str) -> bool:
        if module not in mapping:
            return False
        allowed = mapping[module]
        return allowed is None or func in allowed

    def _classify_effect_sink(self, call: ast.Call, parts: Sequence[str],
                              sink: SinkSite, fn: FunctionSummary) -> None:
        resolved = self._module_call_target(parts)
        if resolved is not None:
            module, func = resolved
            if self._in_call_map(_IO_CALLS, module, func):
                fn.io_sinks.append(sink)
                return
            if self._in_call_map(_AMBIENT_CALLS, module, func):
                fn.ambient_sinks.append(sink)
                return
        if len(parts) == 1 and parts[0] in _IO_BUILTINS \
                and parts[0] not in self.summary.from_imports \
                and parts[0] not in self.summary.functions:
            fn.io_sinks.append(sink)
            return
        if len(parts) >= 2:
            if parts[-1] in _IO_METHODS:
                fn.io_sinks.append(sink)
            elif parts[-1] in _AMBIENT_METHODS:
                fn.ambient_sinks.append(sink)

    # ------------------------------------------------------- registrations

    def _record_registration(self, call: ast.Call,
                             enclosing: str) -> None:
        factory: Optional[ast.expr] = None
        if len(call.args) >= 2:
            factory = call.args[1]
        else:
            for keyword in call.keywords:
                if keyword.arg == "factory":
                    factory = keyword.value
        dotted = _dotted_parts(factory) if factory is not None else None
        self.summary.registrations.append(RegistrationSite(
            factory_kind="ref" if dotted else "unknown",
            factory=tuple(dotted or ()), enclosing=enclosing))

    def _scan_module_level(self, tree: ast.Module) -> None:
        """Registration calls in module-level statements (import-time
        registration outside any function)."""
        for stmt in tree.body:
            if isinstance(stmt, _FunctionNode) \
                    or isinstance(stmt, ast.ClassDef):
                continue
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    parts = _dotted_parts(sub.func)
                    if parts and parts[-1] in _REGISTRATION_FUNCS:
                        self._record_registration(sub, "")

    def _finalize_registrations(self) -> None:
        """Reclassify single-name factory refs that resolve to a function
        nested inside the registering function."""
        final: List[RegistrationSite] = []
        for site in self.summary.registrations:
            if site.factory_kind == "ref" and len(site.factory) == 1 \
                    and site.enclosing:
                prefix = site.enclosing.split(".")
                for depth in range(len(prefix), 0, -1):
                    nested = ".".join(prefix[:depth]) + "." + site.factory[0]
                    if nested in self.summary.functions:
                        site = RegistrationSite(
                            factory_kind="nested", factory=(nested,),
                            enclosing=site.enclosing)
                        break
            final.append(site)
        self.summary.registrations = final


def summarize_source(source: str, path: str) -> FileSummary:
    """Parse one source blob into its :class:`FileSummary`.

    Raises ``SyntaxError`` for unparseable input — callers decide whether
    that is fatal (the lint engine already reports RC100 for it).
    """
    tree = ast.parse(source)
    return _Summarizer(path, source, tree).summary


# --------------------------------------------------------------------- cache


def _read_json(path: str) -> Any:
    """The parsed JSON document at ``path``; ``None`` when unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _write_atomic(path: str, payload: str) -> bool:
    """Write ``payload`` via tmp file + rename; ``False`` on failure."""
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=".lint-cache-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
    except OSError:
        return False
    return True


def file_digest(path: str) -> Optional[str]:
    """sha256 of the file's bytes; ``None`` when unreadable."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


class AnalysisCache:
    """Content-keyed on-disk cache for file summaries and lint findings.

    One JSON document maps absolute file paths to entries holding the
    parsed :class:`FileSummary` and, per rule-set key, the per-file lint
    findings.  An entry is valid only while the sha256 of the file's
    bytes matches the one it was stored under, so an edit that keeps
    size and mtime still re-parses.  Each file is hashed at most once per
    instance (:meth:`digest`): one instance is one snapshot of the tree,
    shared by the purity memo key, the summary and findings lookups and
    the slice hashes of a single run.  A sibling file
    (:attr:`manifest_path`) memoizes the latest purity manifest under
    its content key (:func:`repro.analysis.purity.build_purity_manifest`).
    The cache is strictly advisory: unreadable, corrupted, stale or
    version-skewed content is discarded silently (a cold run), and a
    failed write never raises.  The document is read on first use, so a
    memo hit never parses it.
    """

    def __init__(self, path: str = DEFAULT_CACHE_PATH) -> None:
        self.path = path
        #: The manifest memo, named after (and scoped to) this cache file.
        self.manifest_path = path + ".manifest"
        self._loaded: Optional[Dict[str, Dict[str, Any]]] = None
        self._dirty = False
        self._memo: Optional[Dict[str, Any]] = None
        self._digests: Dict[str, Optional[str]] = {}
        self.hits = 0
        self.misses = 0

    # ----------------------------------------------------------- load/save

    @property
    def _files(self) -> Dict[str, Dict[str, Any]]:
        if self._loaded is None:
            self._loaded = self._load()
        return self._loaded

    def _load(self) -> Dict[str, Dict[str, Any]]:
        data = _read_json(self.path)
        if not isinstance(data, dict) \
                or data.get("schema_version") != CACHE_SCHEMA_VERSION:
            return {}
        files = data.get("files")
        if not isinstance(files, dict):
            return {}
        return {str(path): entry for path, entry in files.items()
                if isinstance(entry, dict)}

    def save(self) -> None:
        """Atomically persist the cache and any pending manifest memo
        (tmp file + rename); best-effort."""
        if self._dirty and _write_atomic(self.path, json.dumps({
                "schema_version": CACHE_SCHEMA_VERSION,
                "files": self._files,
        }, sort_keys=True)):
            self._dirty = False
        if self._memo is not None and _write_atomic(
                self.manifest_path, json.dumps(self._memo, sort_keys=True)):
            self._memo = None

    # -------------------------------------------------------- manifest memo

    def get_manifest(self, key: str) -> Optional[Dict[str, Any]]:
        """The manifest document memoized under ``key``, or ``None``."""
        data = _read_json(self.manifest_path)
        if not isinstance(data, dict) or data.get("key") != key \
                or not isinstance(data.get("manifest"), dict):
            return None
        return data["manifest"]

    def put_manifest(self, key: str, manifest: Dict[str, Any]) -> None:
        """Memoize ``manifest`` under ``key`` (replacing the previous
        entry) on the next :meth:`save`."""
        self._memo = {"key": key, "manifest": manifest}

    # ------------------------------------------------------------- entries

    @staticmethod
    def _key(path: str) -> str:
        return os.path.abspath(path)

    def digest(self, path: str) -> Optional[str]:
        """:func:`file_digest` of ``path``, read once per instance."""
        key = self._key(path)
        if key not in self._digests:
            self._digests[key] = file_digest(path)
        return self._digests[key]

    def _valid_entry(self, path: str) -> Optional[Dict[str, Any]]:
        entry = self._files.get(self._key(path))
        digest = self.digest(path)
        if entry is None or digest is None or entry.get("sha256") != digest:
            return None
        return entry

    def _fresh_entry(self, path: str) -> Optional[Dict[str, Any]]:
        """The (possibly new) entry for the file's *current* content,
        dropping any stale one."""
        digest = self.digest(path)
        if digest is None:
            return None
        entry = self._valid_entry(path)
        if entry is None:
            entry = {"sha256": digest}
            self._files[self._key(path)] = entry
        return entry

    # ------------------------------------------------------------ summaries

    def get_summary(self, path: str) -> Optional[FileSummary]:
        entry = self._valid_entry(path)
        if entry is None or entry.get(
                "summary_version") != SUMMARY_SCHEMA_VERSION:
            self.misses += 1
            return None
        raw = entry.get("summary")
        if not isinstance(raw, dict):
            self.misses += 1
            return None
        try:
            summary = FileSummary.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        # Findings must report the path as the caller spelled it.
        summary.path = path
        return summary

    def put_summary(self, path: str, summary: FileSummary) -> None:
        entry = self._fresh_entry(path)
        if entry is None:
            return
        entry["summary_version"] = SUMMARY_SCHEMA_VERSION
        entry["summary"] = summary.to_dict()
        self._dirty = True

    # ------------------------------------------------------------- findings

    def get_findings(self, path: str,
                     rules_key: str) -> Optional[Tuple[List[Dict[str, Any]],
                                                       int]]:
        entry = self._valid_entry(path)
        if entry is None:
            self.misses += 1
            return None
        lint = entry.get("lint")
        if not isinstance(lint, dict) or rules_key not in lint:
            self.misses += 1
            return None
        cached = lint[rules_key]
        if not isinstance(cached, dict) \
                or not isinstance(cached.get("findings"), list):
            self.misses += 1
            return None
        self.hits += 1
        return cached["findings"], int(cached.get("suppressed", 0))

    def put_findings(self, path: str, rules_key: str,
                     findings: List[Dict[str, Any]],
                     suppressed: int) -> None:
        entry = self._fresh_entry(path)
        if entry is None:
            return
        lint = entry.setdefault("lint", {})
        lint[rules_key] = {"findings": findings, "suppressed": suppressed}
        self._dirty = True


def rules_cache_key(codes: Sequence[str],
                    vocabulary: Optional[Iterable[str]]) -> str:
    """Stable key for one (rule set, event vocabulary) configuration.

    The summary, effect, and concurrency schema versions are folded in
    so an upgraded analyzer never replays findings derived from an older
    extraction or an older effect/concurrency interpretation (the cached
    blobs key off this).
    """
    vocab = ",".join(sorted(vocabulary)) if vocabulary is not None else "-"
    blob = "|".join((
        f"s{SUMMARY_SCHEMA_VERSION}",
        f"e{EFFECT_SCHEMA_VERSION}",
        f"c{CONCURRENCY_SCHEMA_VERSION}",
        ",".join(sorted(codes)),
        vocab,
    ))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()[:16]


# ------------------------------------------------------------------- project


#: A call-graph node: (file path, function qualname).
NodeKey = Tuple[str, str]


class Project:
    """All file summaries of one tree, with the cross-file indexes."""

    def __init__(self, summaries: Mapping[str, FileSummary]) -> None:
        self.summaries: Dict[str, FileSummary] = dict(summaries)
        self.modules: Dict[str, str] = {}
        for path, summary in self.summaries.items():
            if summary.module is not None:
                self.modules[summary.module] = path
        #: Top-level package names of the analysed modules.
        self.packages: Set[str] = {
            module.split(".")[0] for module in self.modules}
        #: class name -> [(path, class name)] (cross-file, by simple name).
        self.class_index: Dict[str, List[Tuple[str, str]]] = {}
        #: method name -> [(path, qualname)] over all class methods.
        self.method_index: Dict[str, List[NodeKey]] = {}
        for path, summary in self.summaries.items():
            for cls in summary.classes.values():
                self.class_index.setdefault(cls.name, []).append(
                    (path, cls.name))
                for method in cls.methods:
                    self.method_index.setdefault(method, []).append(
                        (path, f"{cls.name}.{method}"))
        self._ancestors: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        self._descendants: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        self._build_hierarchy()

    # ----------------------------------------------------------- hierarchy

    def _resolve_base(self, path: str, summary: FileSummary,
                      base: str) -> List[Tuple[str, str]]:
        parts = base.split(".")
        if len(parts) == 1:
            if base in summary.classes:
                return [(path, base)]
            target = summary.from_imports.get(base)
            if target is not None:
                module_path = self.modules.get(target[0])
                if module_path is not None:
                    module_summary = self.summaries[module_path]
                    if target[1] in module_summary.classes:
                        return [(module_path, target[1])]
        return self.class_index.get(parts[-1], [])

    def _build_hierarchy(self) -> None:
        parents: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        for path, summary in self.summaries.items():
            for cls in summary.classes.values():
                key = (path, cls.name)
                parents[key] = set()
                for base in cls.bases:
                    for parent in self._resolve_base(path, summary, base):
                        if parent != key:
                            parents[key].add(parent)
        for key in parents:
            ancestors: Set[Tuple[str, str]] = set()
            frontier = list(parents[key])
            while frontier:
                parent = frontier.pop()
                if parent in ancestors:
                    continue
                ancestors.add(parent)
                frontier.extend(parents.get(parent, ()))
            self._ancestors[key] = ancestors
            for ancestor in ancestors:
                self._descendants.setdefault(ancestor, set()).add(key)

    def related_classes(self, path: str,
                        cls: str) -> Set[Tuple[str, str]]:
        """The dispatch family of a class: itself, ancestors, descendants."""
        key = (path, cls)
        related = {key}
        related |= self._ancestors.get(key, set())
        related |= self._descendants.get(key, set())
        return related

    # ----------------------------------------------------------- functions

    def function(self, key: NodeKey) -> Optional[FunctionSummary]:
        summary = self.summaries.get(key[0])
        if summary is None:
            return None
        return summary.functions.get(key[1])

    def find_functions(self, path_suffix: str,
                       names: Iterable[str]) -> List[NodeKey]:
        """Functions whose file path ends with ``path_suffix`` and whose
        last qualname segment is in ``names``."""
        wanted = set(names)
        found: List[NodeKey] = []
        suffix = path_suffix.replace("\\", "/")
        for path, summary in self.summaries.items():
            if not path.replace("\\", "/").endswith(suffix):
                continue
            for qualname in summary.functions:
                if qualname.rsplit(".", 1)[-1] in wanted:
                    found.append((path, qualname))
        return sorted(found)


def load_project(files: Sequence[str],
                 cache: Optional[AnalysisCache] = None) -> Project:
    """Summarize ``files`` (cache-aware) and build the :class:`Project`.

    Unreadable or unparseable files are skipped — the per-file lint rules
    already report those as RC100.
    """
    summaries: Dict[str, FileSummary] = {}
    for path in files:
        summary = cache.get_summary(path) if cache is not None else None
        if summary is None:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                summary = summarize_source(source, path)
            except (OSError, SyntaxError):
                continue
            if cache is not None:
                cache.put_summary(path, summary)
        summaries[path] = summary
    return Project(summaries)


# ---------------------------------------------------------------- call graph


class CallGraph:
    """The resolved project call graph: edges and reachability."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller -> [(callee, the call site that creates the edge)]
        self.edges: Dict[NodeKey, List[Tuple[NodeKey, CallSite]]] = {}
        #: ``(caller, callee, line)`` of edges resolved only by the
        #: name-based method fallback (:meth:`_fallback`).  Weak edges
        #: over-approximate receiver identity, which is fine for the
        #: reachability rules but poison for the lockset analysis —
        #: RC401 walks strong edges only (see
        #: :mod:`repro.analysis.concurrency`).
        self.weak_edges: Set[Tuple[NodeKey, NodeKey, int]] = set()
        for path, summary in project.summaries.items():
            for qualname, fn in summary.functions.items():
                caller = (path, qualname)
                out: List[Tuple[NodeKey, CallSite]] = []
                for site in fn.calls:
                    strong = self._resolve_strong(path, summary,
                                                  qualname, site)
                    callees = strong if strong is not None \
                        else self._fallback(site.parts)
                    for callee in callees:
                        out.append((callee, site))
                        if strong is None:
                            self.weak_edges.add(
                                (caller, callee, site.line))
                self.edges[caller] = out

    # ---------------------------------------------------------- resolution

    def _enclosing_class(self, summary: FileSummary,
                         qualname: str) -> Optional[str]:
        head = qualname.split(".", 1)[0]
        return head if head in summary.classes else None

    def _module_member(self, module_path: str,
                       name: str) -> List[NodeKey]:
        summary = self.project.summaries[module_path]
        if name in summary.functions:
            return [(module_path, name)]
        if name in summary.classes:
            return self._class_constructor(module_path, name)
        return []

    def _class_constructor(self, path: str, cls: str) -> List[NodeKey]:
        init = f"{cls}.__init__"
        summary = self.project.summaries[path]
        if init in summary.functions:
            return [(path, init)]
        # Synthesized __init__ (dataclass) — inherit the nearest defined one.
        for ancestor_path, ancestor in sorted(
                self.project._ancestors.get((path, cls), ())):
            candidate = f"{ancestor}.__init__"
            if candidate in self.project.summaries[
                    ancestor_path].functions:
                return [(ancestor_path, candidate)]
        return []

    def _hierarchy_methods(self, path: str, cls: str, method: str,
                           include_ancestors: bool = True) -> List[NodeKey]:
        keys: List[NodeKey] = []
        family = self.project.related_classes(path, cls) \
            if include_ancestors else (
                {(path, cls)} | self.project._descendants.get(
                    (path, cls), set()))
        for family_path, family_cls in sorted(family):
            qualname = f"{family_cls}.{method}"
            if qualname in self.project.summaries[family_path].functions:
                keys.append((family_path, qualname))
        return keys

    def _module_alias_targets(self, summary: FileSummary,
                              parts: Tuple[str, ...]) -> List[NodeKey]:
        """Resolve ``alias.x.y()`` where ``alias`` names an imported
        module (or package); tries the longest module prefix first."""
        base = summary.import_aliases.get(parts[0])
        if base is None:
            target = summary.from_imports.get(parts[0])
            if target is None:
                return []
            dotted = f"{target[0]}.{target[1]}"
            if dotted not in self.project.modules:
                return []
            base = dotted
        for split in range(len(parts) - 1, 0, -1):
            module = base if split == 1 else \
                base + "." + ".".join(parts[1:split])
            module_path = self.project.modules.get(module)
            if module_path is None:
                continue
            remainder = parts[split:]
            if len(remainder) == 1:
                return self._module_member(module_path, remainder[0])
            if len(remainder) == 2:
                module_summary = self.project.summaries[module_path]
                if remainder[0] in module_summary.classes:
                    return self._hierarchy_methods(
                        module_path, remainder[0], remainder[1],
                        include_ancestors=False)
            return []
        return []

    def _resolve_call(self, path: str, summary: FileSummary,
                      qualname: str, site: CallSite) -> List[NodeKey]:
        strong = self._resolve_strong(path, summary, qualname, site)
        if strong is not None:
            return strong
        return self._fallback(site.parts)

    def _resolve_strong(self, path: str, summary: FileSummary,
                        qualname: str,
                        site: CallSite) -> Optional[List[NodeKey]]:
        """Structure-based resolution (imports, class hierarchy, nesting);
        ``None`` when only the name-based method fallback applies."""
        parts = site.parts
        if len(parts) == 1:
            name = parts[0]
            # A nested function of this function or an enclosing one.
            prefix_parts = qualname.split(".")
            for depth in range(len(prefix_parts), 0, -1):
                nested = ".".join(prefix_parts[:depth]) + "." + name
                if nested in summary.functions:
                    return [(path, nested)]
            if name in summary.functions:
                return [(path, name)]
            if name in summary.classes:
                return self._class_constructor(path, name)
            target = summary.from_imports.get(name)
            if target is not None:
                module_path = self.project.modules.get(target[0])
                if module_path is not None:
                    return self._module_member(module_path, target[1])
            return []

        if parts[0] in ("self", "cls"):
            cls = self._enclosing_class(summary, qualname)
            if cls is not None and len(parts) == 2:
                resolved = self._hierarchy_methods(path, cls, parts[1])
                if resolved:
                    return resolved
            return None

        alias_targets = self._module_alias_targets(summary, parts)
        if alias_targets:
            return alias_targets
        alias = summary.import_aliases.get(parts[0])
        if alias is not None and alias.split(".")[0] not in \
                self.project.packages:
            # ``os.close()``: a function of an outside module never runs
            # a project method that happens to share its name.
            return []

        if len(parts) == 2:
            # Cls.method() through a locally known class name.
            if parts[0] in summary.classes:
                resolved = self._hierarchy_methods(
                    path, parts[0], parts[1], include_ancestors=False)
                if resolved:
                    return resolved
            target = summary.from_imports.get(parts[0])
            if target is not None:
                module_path = self.project.modules.get(target[0])
                if module_path is not None and target[1] in \
                        self.project.summaries[module_path].classes:
                    resolved = self._hierarchy_methods(
                        module_path, target[1], parts[1],
                        include_ancestors=False)
                    if resolved:
                        return resolved

        return None

    def _fallback(self, parts: Tuple[str, ...]) -> List[NodeKey]:
        """Name-based over-approximation for unresolvable ``obj.m()``."""
        method = parts[-1]
        if method in _BUILTIN_METHOD_NAMES:
            return []
        return list(self.project.method_index.get(method, ()))

    # -------------------------------------------------------- reachability

    def reachable_from(
        self, entries: Sequence[NodeKey],
        strong_only: bool = False,
    ) -> Dict[NodeKey, Optional[Tuple[NodeKey, CallSite]]]:
        """BFS closure from ``entries``.

        Returns ``node -> (parent, call site)`` parent pointers (entries
        map to ``None``); breadth-first order makes every recovered chain
        a shortest witness.  With ``strong_only`` the walk skips
        name-fallback edges (:attr:`weak_edges`) — the lockset analysis
        uses this because fallback edges fabricate receiver aliasing.
        """
        parents: Dict[NodeKey, Optional[Tuple[NodeKey, CallSite]]] = {}
        frontier: List[NodeKey] = []
        for entry in entries:
            if entry not in parents:
                parents[entry] = None
                frontier.append(entry)
        head = 0
        while head < len(frontier):
            node = frontier[head]
            head += 1
            for callee, site in self.edges.get(node, ()):
                if strong_only and (node, callee, site.line) \
                        in self.weak_edges:
                    continue
                if callee not in parents:
                    parents[callee] = (node, site)
                    frontier.append(callee)
        return parents

    @staticmethod
    def call_chain(
        parents: Mapping[NodeKey, Optional[Tuple[NodeKey, CallSite]]],
        node: NodeKey,
    ) -> List[NodeKey]:
        """Entry-to-node witness chain recovered from BFS parent pointers."""
        chain = [node]
        seen = {node}
        cursor: Optional[Tuple[NodeKey, CallSite]] = parents.get(node)
        while cursor is not None:
            parent = cursor[0]
            if parent in seen:  # defensive: parent maps cannot cycle
                break
            chain.append(parent)
            seen.add(parent)
            cursor = parents.get(parent)
        chain.reverse()
        return chain


def build_call_graph(files: Sequence[str],
                     cache: Optional[AnalysisCache] = None) -> CallGraph:
    """Summarize ``files`` and resolve them into a :class:`CallGraph`."""
    return CallGraph(load_project(files, cache=cache))
