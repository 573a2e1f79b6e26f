"""Domain rules: the invariants the test suite can only sample.

Each rule encodes one correctness property of the simulator that is cheap
to prove statically at PR time and that no general-purpose linter knows
about (mutable defaults and bare ``except:`` are left to ruff's ``B006``
and ``E722``):

* **RC101 / RC102** — the engine's per-bit hot paths (``bus/``, ``node/``,
  ``can/``) must stay deterministic and replayable: no wall-clock reads, no
  global (unseeded) randomness.  The campaign engine's serial==parallel
  guarantee (PR 1) rests on this.
* **RC103** — bit-time quantities converted to float seconds must never be
  compared with ``==`` / ``!=``; compare integer bit times instead.
* **RC105** — events must come from the :mod:`repro.bus.events` vocabulary,
  so stream consumers (``BusProbe``, the trace recorder) stay total.
* **RC106** — persisted dataclasses (``store.py`` / ``obs/``) must be
  schema-versioned so layout changes fail loudly on load.
* **RC108** — package ``__init__`` files must export a complete, resolvable
  ``__all__`` so the typed public API is what mypy re-exports.
* **RC109** — fault injectors (``faults/``) must draw randomness only from
  RNGs seeded with the fault spec's explicit seed, so chaos campaigns
  replay bit-identically serial or parallel.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.findings import Finding
from repro.analysis.lint.registry import ModuleContext, rule

# --------------------------------------------------------------- helpers


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chain as ``["a", "b", "c"]``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Local names bound to ``import <module>`` (including ``as`` aliases)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _from_imports(tree: ast.Module, module: str) -> Dict[str, int]:
    """Names imported via ``from <module> import ...`` -> import line."""
    names: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _finding(ctx: ModuleContext, code: str, name: str, message: str,
             node: ast.AST) -> Finding:
    return Finding(
        code=code,
        rule=name,
        message=message,
        path=ctx.path,
        line=getattr(node, "lineno", 0),
        column=getattr(node, "col_offset", 0),
    )


# ------------------------------------------------------- RC101: wall clock

_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "sleep",
})
_DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})


@rule("RC101", "no-wallclock",
      "no wall-clock reads in engine hot paths (bus/, node/, can/)")
def check_no_wallclock(ctx: ModuleContext) -> Iterator[Finding]:
    """The engine advances in simulated bit times only; a wall-clock read
    in ``bus/``/``node/``/``can/`` makes runs unreplayable."""
    if not ctx.in_engine_paths:
        return
    time_aliases = _module_aliases(ctx.tree, "time")
    datetime_aliases = _module_aliases(ctx.tree, "datetime")
    from_time = _from_imports(ctx.tree, "time")
    from_datetime = _from_imports(ctx.tree, "datetime")

    for name, line in from_time.items():
        if name in _TIME_FUNCS:
            yield Finding(
                code="RC101", rule="no-wallclock",
                message=(f"wall-clock function time.{name} imported into an "
                         "engine hot path; the engine must advance in "
                         "simulated bit times only"),
                path=ctx.path, line=line,
            )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted_parts(node.func)
        if not parts:
            continue
        if (len(parts) >= 2 and parts[0] in time_aliases
                and parts[1] in _TIME_FUNCS):
            yield _finding(
                ctx, "RC101", "no-wallclock",
                f"wall-clock call {'.'.join(parts)}() in an engine hot "
                "path; use the simulator's bit-time clock instead", node)
        elif (parts[0] in datetime_aliases
                and parts[-1] in _DATETIME_FACTORIES):
            yield _finding(
                ctx, "RC101", "no-wallclock",
                f"wall-clock call {'.'.join(parts)}() in an engine hot "
                "path; use the simulator's bit-time clock instead", node)
        elif (len(parts) == 2 and parts[0] in from_datetime
                and parts[1] in _DATETIME_FACTORIES):
            yield _finding(
                ctx, "RC101", "no-wallclock",
                f"wall-clock call {'.'.join(parts)}() in an engine hot "
                "path; use the simulator's bit-time clock instead", node)


# -------------------------------------------------- RC102: unseeded random

_GLOBAL_RNG_FUNCS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "randbytes", "seed",
})


@rule("RC102", "no-unseeded-random",
      "no global/unseeded randomness in engine hot paths")
def check_no_unseeded_random(ctx: ModuleContext) -> Iterator[Finding]:
    """Engine code may only use an explicitly seeded ``random.Random(seed)``
    instance — the module-level RNG breaks the campaign engine's
    serial==parallel determinism guarantee."""
    if not ctx.in_engine_paths:
        return
    random_aliases = _module_aliases(ctx.tree, "random")
    from_random = _from_imports(ctx.tree, "random")

    for name, line in from_random.items():
        if name in _GLOBAL_RNG_FUNCS:
            yield Finding(
                code="RC102", rule="no-unseeded-random",
                message=(f"global RNG function random.{name} imported into "
                         "an engine hot path; use a seeded random.Random "
                         "instance"),
                path=ctx.path, line=line,
            )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted_parts(node.func)
        if not parts or len(parts) != 2 or parts[0] not in random_aliases:
            continue
        if parts[1] in _GLOBAL_RNG_FUNCS:
            yield _finding(
                ctx, "RC102", "no-unseeded-random",
                f"{'.'.join(parts)}() uses the global RNG in an engine hot "
                "path; use a seeded random.Random instance", node)
        elif parts[1] == "Random" and not node.args and not node.keywords:
            yield _finding(
                ctx, "RC102", "no-unseeded-random",
                "random.Random() without a seed in an engine hot path; "
                "pass an explicit seed", node)
        elif parts[1] == "SystemRandom":
            yield _finding(
                ctx, "RC102", "no-unseeded-random",
                "random.SystemRandom is inherently unseedable; engine "
                "randomness must be reproducible", node)


# ------------------------------------------------ RC103: float == bit time

#: Calls whose result is a float-valued time/load quantity: comparing these
#: with == is a latent precision bug — compare the integer bit times.
_FLOAT_TIME_FUNCS = frozenset({
    "seconds", "milliseconds", "bits_to_seconds", "bits_to_ms",
    "nominal_bit_time", "dominant_fraction", "busy_fraction",
})


def _is_float_quantity(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return f"float literal {node.value!r}"
    if isinstance(node, ast.Call):
        parts = _dotted_parts(node.func)
        if parts and parts[-1] in _FLOAT_TIME_FUNCS:
            return f"float-valued call {parts[-1]}()"
    return None


@rule("RC103", "no-float-eq-bit-time",
      "no ==/!= on float bit-time quantities")
def check_no_float_eq(ctx: ModuleContext) -> Iterator[Finding]:
    """Bit-time quantities converted to float (seconds, ms, load fractions)
    must not be compared exactly; compare the underlying integer bit times
    or use an explicit tolerance."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        for operand in [node.left, *node.comparators]:
            reason = _is_float_quantity(operand)
            if reason is not None:
                yield _finding(
                    ctx, "RC103", "no-float-eq-bit-time",
                    f"exact ==/!= against {reason}; compare integer bit "
                    "times (or use an explicit tolerance)", node)
                break


# ------------------------------------------------ RC105: event vocabulary

@rule("RC105", "event-vocabulary",
      "emit() only event types from the bus/events.py vocabulary")
def check_event_vocabulary(ctx: ModuleContext) -> Iterator[Finding]:
    """Every event handed to an ``emit()`` sink must be a class defined in
    the event vocabulary (``repro/bus/events.py``) — ad-hoc event types
    silently fall through BusProbe dispatch and trace decoding."""
    vocabulary = ctx.shared.event_vocabulary
    if vocabulary is None:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        parts = _dotted_parts(node.func)
        if not parts or parts[-1] != "emit":
            continue
        payload = node.args[0]
        if not isinstance(payload, ast.Call):
            continue
        ctor = payload.func
        if not isinstance(ctor, ast.Name):
            continue
        name = ctor.id
        if not name[:1].isupper():
            continue
        if name not in vocabulary:
            yield _finding(
                ctx, "RC105", "event-vocabulary",
                f"emit() of {name}, which is not in the bus/events.py "
                "vocabulary; define the event there so stream consumers "
                "can dispatch on it", payload)


def event_vocabulary_from_source(source: str) -> frozenset:
    """Class names defined at the top level of an ``events.py`` source."""
    tree = ast.parse(source)
    return frozenset(
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    )


# ------------------------------------------- RC106: schema-version discipline

def _class_methods(node: ast.ClassDef) -> Set[str]:
    return {
        item.name for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_field_names(node: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target,
                                                          ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _module_constant_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for item in tree.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target,
                                                          ast.Name):
            names.add(item.target.id)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


@rule("RC106", "schema-version-discipline",
      "persisted dataclasses (store.py, obs/) carry a SCHEMA_VERSION")
def check_schema_version(ctx: ModuleContext) -> Iterator[Finding]:
    """A class that round-trips through ``to_dict``/``from_dict`` in a
    persisted module must be schema-versioned — either a ``schema_version``
    field on the class or a module-level ``*SCHEMA_VERSION*`` constant —
    so stored artifacts fail loudly after a layout change."""
    if not ctx.in_persisted_paths:
        return
    module_versioned = any(
        "SCHEMA_VERSION" in name for name in _module_constant_names(ctx.tree)
    )
    for node in ctx.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = _class_methods(node)
        if not {"to_dict", "from_dict"} <= methods:
            continue
        if "schema_version" in _class_field_names(node) or module_versioned:
            continue
        yield _finding(
            ctx, "RC106", "schema-version-discipline",
            f"persisted class {node.name} defines to_dict/from_dict but "
            "carries no schema_version field and its module declares no "
            "SCHEMA_VERSION constant", node)


# ------------------------------------------------------ RC108: init exports

def _all_entries(tree: ast.Module) -> Optional[Tuple[int, List[str]]]:
    """The (line, entries) of a literal ``__all__`` assignment, if any."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if not isinstance(value, (ast.List, ast.Tuple)):
                    return (node.lineno, [])
                entries = [
                    elt.value for elt in value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                ]
                return (node.lineno, entries)
    return None


def _top_level_bindings(tree: ast.Module) -> Set[str]:
    """Names bound at module top level (imports, defs, classes, assigns)."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


def _imported_public_names(tree: ast.Module) -> Dict[str, int]:
    """Public names brought in by top-level ``from ... import`` -> line."""
    names: Dict[str, int] = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name
            if bound != "*" and not bound.startswith("_"):
                names.setdefault(bound, node.lineno)
    return names


@rule("RC108", "init-exports",
      "package __init__ exports a complete, resolvable __all__")
def check_init_exports(ctx: ModuleContext) -> Iterator[Finding]:
    """Package ``__init__`` files re-exporting the public API must keep
    ``__all__`` in sync: every public import listed, every entry bound —
    otherwise mypy's no_implicit_reexport hides the API from consumers."""
    if not ctx.is_package_init:
        return
    imported = _imported_public_names(ctx.tree)
    if not imported:
        return  # plain namespace marker, nothing re-exported
    entries = _all_entries(ctx.tree)
    if entries is None:
        yield Finding(
            code="RC108", rule="init-exports",
            message="package __init__ re-exports names but defines no "
                    "__all__",
            path=ctx.path, line=1)
        return
    line, listed = entries
    bindings = _top_level_bindings(ctx.tree)
    for name in sorted(set(listed) - bindings):
        yield Finding(
            code="RC108", rule="init-exports",
            message=f"__all__ entry {name!r} is not defined or imported in "
                    "this __init__",
            path=ctx.path, line=line)
    for name, import_line in sorted(imported.items()):
        if name not in listed:
            yield Finding(
                code="RC108", rule="init-exports",
                message=f"public import {name!r} is missing from __all__",
                path=ctx.path, line=import_line)


# ----------------------------------------- RC109: seeded fault injection

def _mentions_seed(node: ast.AST) -> bool:
    """Does this expression reference any name/attribute containing
    'seed'?  (``spec.seed``, ``seed + 1``, ``self._seed`` all count.)"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
            return True
    return False


@rule("RC109", "seeded-fault-injection",
      "fault injectors (faults/) use only explicitly seeded RNGs")
def check_seeded_fault_injection(ctx: ModuleContext) -> Iterator[Finding]:
    """Fault injectors must derive every random draw from the fault spec's
    explicit ``seed`` — the module-level RNG (or a ``random.Random()``
    seeded from entropy) would make chaos campaigns irreproducible and
    break the serial==parallel replay guarantee."""
    if "faults" not in ctx.path_segments:
        return
    random_aliases = _module_aliases(ctx.tree, "random")
    from_random = _from_imports(ctx.tree, "random")

    for name, line in from_random.items():
        if name in _GLOBAL_RNG_FUNCS:
            yield Finding(
                code="RC109", rule="seeded-fault-injection",
                message=(f"global RNG function random.{name} imported into "
                         "a fault injector; draw from random.Random(seed) "
                         "built from the fault spec's explicit seed"),
                path=ctx.path, line=line,
            )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        parts = _dotted_parts(node.func)
        if not parts or len(parts) != 2 or parts[0] not in random_aliases:
            continue
        if parts[1] in _GLOBAL_RNG_FUNCS:
            yield _finding(
                ctx, "RC109", "seeded-fault-injection",
                f"{'.'.join(parts)}() draws from the global RNG in a fault "
                "injector; use a random.Random seeded from the fault "
                "spec's explicit seed", node)
        elif parts[1] == "SystemRandom":
            yield _finding(
                ctx, "RC109", "seeded-fault-injection",
                "random.SystemRandom is inherently unseedable; fault "
                "injection must replay bit-identically", node)
        elif parts[1] == "Random":
            arguments = list(node.args) + [k.value for k in node.keywords]
            if not arguments:
                yield _finding(
                    ctx, "RC109", "seeded-fault-injection",
                    "random.Random() without a seed in a fault injector; "
                    "pass the fault spec's explicit seed", node)
            elif not any(_mentions_seed(a) for a in arguments):
                yield _finding(
                    ctx, "RC109", "seeded-fault-injection",
                    "random.Random(...) seeded from something that is not "
                    "an explicit seed value; thread the fault spec's seed "
                    "through instead", node)


#: Imported for side effects by the engine; handy for tests.
ALL_RULE_MODULE_LOADED = True
