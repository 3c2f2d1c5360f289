"""CLI surfaces added with the perf pass: rules listing, suppression
visibility, qualified --effects lookups, and --profile plumbing."""

import json
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    PASS_NAMES,
    REGISTRY,
    LintContext,
    render_text,
    run_lint,
)

DOCS = Path(__file__).parent.parent / "docs" / "static_analysis.md"


class TestRulesSubcommand:
    def test_text_listing_groups_by_pass(self, capsys):
        assert main(["lint", "rules"]) == 0
        out = capsys.readouterr().out
        for pass_name in PASS_NAMES:
            assert f"[{pass_name}]" in out
        assert "RPR901" in out and "scalar-loop-in-hot-path" in out
        assert f"{len(REGISTRY.codes())} rule(s) in {len(PASS_NAMES)} pass(es)" in out

    def test_json_listing_matches_registry(self, capsys):
        assert main(["lint", "rules", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(r["code"] for r in payload) == sorted(REGISTRY.codes())
        by_code = {r["code"]: r for r in payload}
        for rule in REGISTRY:
            entry = by_code[rule.code]
            assert entry["name"] == rule.name
            assert entry["severity"] == rule.severity.value
            assert entry["pass"] == rule.pass_name
            assert entry["summary"] == rule.summary

    def test_sarif_format_rejected(self, capsys):
        assert main(["lint", "rules", "--format", "sarif"]) == 1
        assert "text or json" in capsys.readouterr().err

    def test_docs_table_lists_every_rule(self):
        # The docs rule tables are the user-facing registry mirror; a new
        # rule is not done until its row exists with matching severity.
        docs = DOCS.read_text(encoding="utf-8")
        for rule in REGISTRY:
            row = f"| {rule.code} | `{rule.name}` | {rule.severity.value} |"
            assert row in docs, f"docs/static_analysis.md misses {row}"


def suppressed_fixture_report(tmp_path):
    """One active and one pragma-suppressed RPR905 in one module."""
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "m.py").write_text(textwrap.dedent("""
        def active(xs):
            allowed = [1, 2, 3]
            hits = 0
            for x in xs:
                if x in allowed:
                    hits += 1
            return hits

        def acknowledged(xs):
            small = [1, 2]
            total = 0
            for x in xs:
                if x in small:  # lint: ignore[RPR905] two elements, audited
                    total += 1
            return total
    """))
    return run_lint(LintContext(source_root=root), passes=("perf",))


class TestSuppressedVisibility:
    def test_text_hides_suppressed_by_default(self, tmp_path):
        report = suppressed_fixture_report(tmp_path)
        assert any(f.suppressed for f in report.findings)
        text = render_text(report)
        assert "allowed" in text
        assert "audited" not in text
        assert "1 suppressed" in text  # the summary still counts it

    def test_show_suppressed_reveals_justifications(self, tmp_path):
        report = suppressed_fixture_report(tmp_path)
        text = render_text(report, show_suppressed=True)
        assert "suppressed" in text
        assert "(justification: two elements, audited)" in text

    def test_cli_flag_round_trip(self, capsys):
        # Self-lint carries pragma suppressions; the flag must surface
        # them and the default must not.
        args = ["lint", "--self", "--passes", "perf"]
        assert main(args) == 0
        hidden = capsys.readouterr().out
        assert main(args + ["--show-suppressed"]) == 0
        shown = capsys.readouterr().out
        assert "(justification:" not in hidden
        assert "(justification:" in shown


class TestEffectsLookups:
    def test_class_method_lookup(self, capsys):
        assert main(["lint", "--effects", "LevelSchedule.build"]) == 0
        out = capsys.readouterr().out
        assert "repro.timing.graph.LevelSchedule.build:" in out

    def test_module_path_lists_every_node(self, capsys):
        assert main(["lint", "--effects", "timing.mc"]) == 0
        out = capsys.readouterr().out
        assert "repro.timing.mc.TimingKernel.from_view:" in out
        assert "repro.timing.mc.run_monte_carlo_sta:" in out

    def test_full_module_path_accepted(self, capsys):
        assert main(["lint", "--effects", "repro.timing.mc"]) == 0
        assert "repro.timing.mc.draw_samples:" in capsys.readouterr().out

    def test_error_names_all_three_forms(self, capsys):
        assert main(["lint", "--effects", "never.heard.of_it"]) == 1
        err = capsys.readouterr().err
        assert "Class.method" in err and "module path" in err


class TestProfileFlag:
    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "lint", "--self", "--passes", "perf",
            "--profile", str(tmp_path / "nope.jsonl"),
        ]) == 1
        assert "no such profile" in capsys.readouterr().err

    def test_profiled_self_lint_reports_measured_seconds(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            json.dumps({"type": "span", "name": "opt.flow", "dur": 1.25}) + "\n"
        )
        args = ["lint", "--self", "--passes", "perf", "--profile", str(trace)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "(measured: 1.250s)" in first
        # Fixed trace, fixed tree: the ranking is fully deterministic.
        assert main(args) == 0
        assert capsys.readouterr().out == first
