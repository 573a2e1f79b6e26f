"""The analyzer driver: collect files, parse once, run rules, report.

The engine walks the given paths, parses each ``*.py`` file exactly once,
builds the per-file :class:`~repro.analysis.lint.suppressions.SuppressionIndex`
and hands the shared :class:`~repro.analysis.lint.registry.ModuleContext` to
every selected rule.  Findings silenced by ``# repro: noqa`` comments are
counted, not dropped silently.
"""

from __future__ import annotations

import ast
import os
from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

#: ``{family: [{code, name, summary, deep}, ...]}`` (insertion-ordered).
OrderedInventory = Dict[str, List[dict]]

# Importing the rules module populates the registry as a side effect.
import repro.analysis.lint.rules as _rules
from repro.analysis.lint.findings import Finding, LintReport, Severity
from repro.analysis.lint.registry import (
    LintRule,
    ModuleContext,
    SharedContext,
    get_rule,
    rule_codes,
)
from repro.analysis.lint.rules import event_vocabulary_from_source
from repro.analysis.lint.suppressions import SuppressionIndex
from repro.errors import ConfigurationError

_ = _rules.ALL_RULE_MODULE_LOADED  # keep the side-effect import explicit

#: Directory names never descended into.
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".mypy_cache", ".ruff_cache", ".pytest_cache",
    "build", "dist",
})


def collect_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    collected: List[str] = []
    seen = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        if full not in seen:
                            seen.add(full)
                            collected.append(full)
        elif path.endswith(".py") or os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                collected.append(path)
    return sorted(collected)


def resolve_rules(select: Optional[Sequence[str]] = None,
                  ignore: Optional[Sequence[str]] = None) -> List[LintRule]:
    """The rules to run: ``--select`` wins over the full catalogue, then
    ``--ignore`` removes codes.  Unknown codes raise ConfigurationError."""
    codes = [code.upper() for code in (select or rule_codes())]
    ignored = {code.upper() for code in (ignore or ())}
    for code in list(codes) + sorted(ignored):
        get_rule(code)  # validate; raises on unknown codes
    return [get_rule(code) for code in codes if code not in ignored]


def _split_codes(codes: Optional[Sequence[str]],
                 ) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Partition user-given codes into (per-file, interprocedural) lists.

    ``None`` stays ``None`` (meaning "all of that family"); unknown codes
    raise ConfigurationError naming both catalogues.
    """
    if codes is None:
        return None, None
    from repro.analysis.lint.deep import deep_rule_codes

    per_file_known = set(rule_codes())
    deep_known = set(deep_rule_codes())
    per_file: List[str] = []
    deep: List[str] = []
    for raw in codes:
        code = raw.upper()
        if code in per_file_known:
            per_file.append(code)
        elif code in deep_known:
            deep.append(code)
        else:
            raise ConfigurationError(
                f"unknown lint rule {raw!r}; choose from "
                f"{sorted(per_file_known | deep_known)}")
    return per_file, deep


def _resolve_event_vocabulary(
        files: Sequence[str]) -> Optional[FrozenSet[str]]:
    """Event class names from the scanned tree's ``bus/events.py``; falls
    back to the installed :mod:`repro.bus.events` when none is in scope."""
    for path in files:
        normalized = path.replace("\\", "/")
        if normalized.endswith("bus/events.py"):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    return event_vocabulary_from_source(handle.read())
            except (OSError, SyntaxError):
                return None
    try:
        import repro.bus.events as events_module
    except ImportError:  # pragma: no cover - repro is always importable here
        return None
    return frozenset(
        name for name in dir(events_module)
        if isinstance(getattr(events_module, name), type)
        and not name.startswith("_")
    )


def lint_source(source: str, path: str,
                rules: Optional[Sequence[LintRule]] = None,
                shared: Optional[SharedContext] = None,
                ) -> Tuple[List[Finding], int]:
    """Lint one in-memory source blob.

    Returns ``(findings, suppressed_count)``.  A syntax error becomes a
    single ``RC100`` parse finding instead of an exception, so one broken
    file cannot take down a whole run.
    """
    if shared is None:
        shared = SharedContext()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return ([Finding(
            code="RC100", rule="parse-error",
            message=f"file does not parse: {exc.msg}",
            path=path, line=exc.lineno or 0,
            severity=Severity.ERROR,
        )], 0)
    source_lines = source.splitlines()
    ctx = ModuleContext(path=path, tree=tree, source_lines=source_lines,
                        shared=shared)
    suppressions = SuppressionIndex(source_lines)
    findings: List[Finding] = []
    suppressed = 0
    for lint_rule in (rules if rules is not None else resolve_rules()):
        for finding in lint_rule.check(ctx):
            if suppressions.is_suppressed(finding.line, finding.code):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None,
               ignore: Optional[Sequence[str]] = None,
               deep: bool = False,
               cache: Optional["AnalysisCache"] = None) -> LintReport:
    """Run the analyzer over files/directories and return the report.

    Args:
        paths: Files/directories to lint.
        select: Only run these codes (per-file RC1xx and/or deep RC2xx).
            Selecting an RC2xx code without ``deep=True`` is an error.
        ignore: Codes to skip (either family).
        deep: Also run the interprocedural rules
            (:mod:`repro.analysis.lint.deep`) on the project call graph.
        cache: Optional :class:`~repro.analysis.callgraph.AnalysisCache`;
            unchanged files reuse their cached findings and AST summaries
            (the caller owns ``cache.save()``).
    """
    files = collect_python_files(paths)
    per_file_select, deep_select = _split_codes(select)
    per_file_ignore, deep_ignore = _split_codes(ignore)
    if deep_select and not deep:
        raise ConfigurationError(
            f"rule(s) {sorted(deep_select)} are interprocedural; "
            "run with --deep")

    findings: List[Finding] = []
    suppressed = 0

    run_per_file = per_file_select is None or bool(per_file_select)
    if run_per_file:
        rules = resolve_rules(select=per_file_select, ignore=per_file_ignore)
    else:
        rules = []
    shared = SharedContext(
        event_vocabulary=_resolve_event_vocabulary(files))
    rules_key: Optional[str] = None
    if cache is not None and rules:
        from repro.analysis.callgraph import rules_cache_key

        rules_key = rules_cache_key([r.code for r in rules],
                                    shared.event_vocabulary)
    for path in files:
        if not rules:
            break
        if cache is not None and rules_key is not None:
            cached = cache.get_findings(path, rules_key)
            if cached is not None:
                raw_findings, file_suppressed = cached
                findings.extend(
                    replace(Finding.from_dict(raw), path=path)
                    for raw in raw_findings)
                suppressed += file_suppressed
                continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            findings.append(Finding(
                code="RC100", rule="parse-error",
                message=f"file is unreadable: {exc}",
                path=path))
            continue
        file_findings, file_suppressed = lint_source(
            source, path, rules=rules, shared=shared)
        findings.extend(file_findings)
        suppressed += file_suppressed
        if cache is not None and rules_key is not None:
            cache.put_findings(
                path, rules_key,
                [finding.to_dict() for finding in file_findings],
                file_suppressed)

    if deep:
        from repro.analysis.lint.deep import deep_rule_codes, run_deep_rules

        if deep_select is not None:
            deep_codes = [code for code in deep_select
                          if code not in set(deep_ignore or ())]
        else:
            deep_codes = [code for code in deep_rule_codes()
                          if code not in set(deep_ignore or ())]
        deep_findings, deep_suppressed = run_deep_rules(
            files, codes=deep_codes, cache=cache)
        findings.extend(deep_findings)
        suppressed += deep_suppressed

    findings.sort(key=lambda f: (f.path, f.line, f.column, f.code))
    return LintReport(findings=findings, files_checked=len(files),
                      suppressed=suppressed)


#: Family headers for ``--list-rules``, in publication order.
_RULE_FAMILIES = (
    ("RC1xx", "per-file rules"),
    ("RC2xx", "interprocedural rules (--deep)"),
    ("RC3xx", "effect/purity rules (--deep)"),
    ("RC4xx", "concurrency-safety rules (--deep)"),
    ("VCxxx", "config verifier checks (--plan/--faults/verify)"),
)


def _rule_family(code: str) -> str:
    """The catalogue family a code is published under (``RC4xx`` etc.)."""
    if code.startswith("VC"):
        return "VCxxx"
    if code.startswith("RC") and len(code) >= 3:
        return f"RC{code[2]}xx"
    return code


def rule_inventory() -> "OrderedInventory":
    """The published rule inventory, grouped by family.

    Returns an ordered ``{family: [{code, name, summary, deep}, ...]}``
    mapping covering the per-file rules, the deep interprocedural
    families, and the config-verifier VC checks — the shape serialized by
    ``repro lint --list-rules --format json`` so docs and CI can assert
    the inventory.
    """
    from repro.analysis.lint.deep import deep_rule_catalogue
    from repro.analysis.lint.registry import rule_catalogue
    from repro.analysis.verifier import VERIFIER_RULE_CATALOGUE

    entries: List[dict] = []
    for lint_rule in rule_catalogue():
        entries.append({"code": lint_rule.code, "name": lint_rule.name,
                        "summary": lint_rule.summary, "deep": False})
    for deep_rule in deep_rule_catalogue():
        entries.append({"code": deep_rule.code, "name": deep_rule.name,
                        "summary": deep_rule.summary, "deep": True})
    for code, name, summary in VERIFIER_RULE_CATALOGUE:
        entries.append({"code": code, "name": name,
                        "summary": summary, "deep": False})
    inventory: "OrderedInventory" = {
        family: [] for family, _ in _RULE_FAMILIES}
    for entry in sorted(entries, key=lambda e: e["code"]):
        inventory.setdefault(_rule_family(entry["code"]), []).append(entry)
    return {family: rules for family, rules in inventory.items() if rules}


def iter_rule_lines() -> Iterable[str]:
    """Family-grouped ``CODE name — summary`` lines for ``--list-rules``."""
    titles = dict(_RULE_FAMILIES)
    first = True
    for family, rules in rule_inventory().items():
        if not first:
            yield ""
        first = False
        yield f"{family} — {titles.get(family, 'rules')}:"
        for entry in rules:
            suffix = " (--deep)" if entry["deep"] else ""
            yield (f"  {entry['code']} {entry['name']} — "
                   f"{entry['summary']}{suffix}")
