"""Suppressions, JSON report schema, file collection, and the CLI gate."""

import json
import textwrap

from repro.analysis.lint import (
    LINT_REPORT_SCHEMA_VERSION,
    Finding,
    LintReport,
    Severity,
    collect_python_files,
    lint_paths,
    lint_source,
    rule_catalogue,
    rule_codes,
)
from repro.cli import main


def run(source, path="src/repro/bus/x.py"):
    return lint_source(textwrap.dedent(source), path)


# ------------------------------------------------------------ suppressions

def test_noqa_suppresses_all_codes_on_line():
    findings, suppressed = run("""
        import time

        def step():
            return time.monotonic()  # repro: noqa
    """)
    assert findings == []
    assert suppressed == 1


def test_noqa_with_code_suppresses_only_that_code():
    findings, suppressed = run("""
        import time

        def step():
            return time.monotonic() == 0.5  # repro: noqa[RC101]
    """)
    assert [f.code for f in findings] == ["RC103"]
    assert suppressed == 1


def test_noqa_with_other_code_does_not_suppress():
    findings, suppressed = run("""
        import time

        def step():
            return time.monotonic()  # repro: noqa[RC103]
    """)
    assert [f.code for f in findings] == ["RC101"]
    assert suppressed == 0


def test_noqa_accepts_multiple_codes_and_case():
    findings, suppressed = run("""
        import time

        def step(load):
            if load == 0.5:  # repro: NOQA[rc103, RC101]
                return time.monotonic()
    """)
    assert [f.code for f in findings] == ["RC101"]
    assert suppressed == 1


def test_plain_flake8_noqa_is_not_ours():
    findings, suppressed = run("""
        import time

        def step():
            return time.monotonic()  # noqa
    """)
    assert [f.code for f in findings] == ["RC101"]
    assert suppressed == 0


# ------------------------------------------------------------- JSON schema

def test_report_json_schema_roundtrip():
    report = LintReport(
        findings=[Finding(code="RC101", rule="no-wallclock", message="m",
                          path="p.py", line=3, column=1)],
        files_checked=2, suppressed=1)
    data = json.loads(report.render_json())
    assert data["schema_version"] == LINT_REPORT_SCHEMA_VERSION
    assert data["files_checked"] == 2
    assert data["suppressed"] == 1
    assert data["findings"] == [{
        "code": "RC101", "rule": "no-wallclock", "message": "m",
        "path": "p.py", "line": 3, "column": 1, "severity": "error",
    }]
    restored = LintReport.from_dict(data)
    assert restored == report


def test_report_ok_tracks_error_severity():
    assert LintReport().ok
    warn = Finding(code="RC1", rule="r", message="m", path="p",
                   severity=Severity.WARNING)
    err = Finding(code="RC2", rule="r", message="m", path="p")
    assert LintReport(findings=[warn]).ok
    assert not LintReport(findings=[warn, err]).ok
    assert LintReport(findings=[warn, err]).counts_by_code() \
        == {"RC1": 1, "RC2": 1}


def test_finding_render_is_clickable():
    finding = Finding(code="RC103", rule="r", message="bad compare",
                      path="src/x.py", line=7, column=4)
    assert finding.render() == "src/x.py:7:4: RC103 bad compare"


# -------------------------------------------------------- path collection

def test_collect_python_files(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.txt").write_text("not python\n")
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-39.py").write_text("")
    files = collect_python_files([str(tmp_path)])
    assert files == [str(tmp_path / "pkg" / "a.py")]


def test_lint_paths_reports_counts(tmp_path):
    bad = tmp_path / "store.py"
    bad.write_text(textwrap.dedent("""
        class Blob:
            def to_dict(self):
                return {}

            @classmethod
            def from_dict(cls, data):
                return cls()
    """))
    report = lint_paths([str(tmp_path)])
    assert report.files_checked == 1
    assert [f.code for f in report.findings] == ["RC106"]
    assert not report.ok


# ------------------------------------------------------------------- CLI
#
# The CLI caches by default under the working directory, so each of these
# runs from ``tmp_path`` and leaves the repo's own cache alone.

def test_cli_lint_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    good = tmp_path / "ok.py"
    good.write_text("def f(x):\n    return x\n")
    assert main(["lint", str(good)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s) in 1 file(s)" in out


def test_cli_lint_findings_exit_one_and_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "store.py"
    bad.write_text("def f(x):\n    return x == 0.5\n")
    assert main(["lint", "--format", "json", str(bad)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["findings"][0]["code"] == "RC103"


def test_cli_lint_select_and_ignore(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "x.py"
    bad.write_text("def f(x):\n    return x == 0.5\n")
    assert main(["lint", "--ignore", "RC103", str(bad)]) == 0
    assert main(["lint", "--select", "RC101", str(bad)]) == 0


def test_cli_lint_unknown_code_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "x.py"
    bad.write_text("x = 1\n")
    assert main(["lint", "--select", "RC999", str(bad)]) == 2
    assert "RC999" in capsys.readouterr().err


def test_cli_lint_no_args_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lint"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_list_rules_covers_catalogue(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in rule_codes():
        assert code in out
    assert len(rule_catalogue()) == len(rule_codes())


def test_repo_source_tree_is_lint_clean():
    """The acceptance gate: `repro lint src/` exits 0 on this tree."""
    report = lint_paths(["src"])
    assert report.ok, report.render_text()
