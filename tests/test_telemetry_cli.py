"""The telemetry CLI surface: --version, --telemetry, the telemetry command."""

import json

import pytest

from repro import __version__
from repro.cli import main
from repro.telemetry import (
    final_snapshot,
    read_events,
    validate_chrome_trace,
)


def run_cli(*argv):
    return main(list(argv))


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_help_epilog_carries_version(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("--help")
        assert f"repro {__version__}" in capsys.readouterr().out


class TestTelemetryFlag:
    def test_mc_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = run_cli(
            "mc", "c17", "--samples", "200", "--telemetry", str(trace)
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote telemetry trace to {trace}" in captured.err
        records = read_events(trace)
        names = {r.get("name") for r in records if r["type"] == "span"}
        assert "mc.run" in names and "mc.shard" in names
        snap = final_snapshot(records)
        # The mc command runs both a leakage and a timing MC pass.
        assert snap.value("mc_samples_total") == 400.0

    def test_mc_run_spans_name_their_workload(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = run_cli(
            "mc", "c17", "--samples", "200", "--estimator", "isle",
            "--telemetry", str(trace),
        )
        capsys.readouterr()
        assert code == 0
        workloads = sorted(
            r["attrs"]["workload"] for r in read_events(trace)
            if r["type"] == "span" and r["name"] == "mc.run"
        )
        assert workloads == ["leakage", "timing", "yield"]

    def test_campaign_run_writes_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = run_cli(
            "campaign", "run", "paper-sweep-smoke",
            "--store", str(tmp_path / "store"),
            "--benchmarks", "c17", "--mc-samples", "0",
            "--telemetry", str(trace),
        )
        assert code == 0
        records = read_events(trace)
        names = {r.get("name") for r in records if r["type"] == "span"}
        assert {"campaign.run", "campaign.task", "campaign.exec"} <= names
        snap = final_snapshot(records)
        total = snap.value("campaign_tasks_total", state="succeeded")
        assert total > 0
        assert snap.value("campaign_cache_misses_total") == total

    def test_without_flag_no_trace(self, tmp_path, capsys):
        assert run_cli("mc", "c17", "--samples", "100") == 0
        assert "telemetry" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTelemetryCommand:
    @pytest.fixture
    def trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        run_cli("mc", "c17", "--samples", "200", "--telemetry", str(path))
        capsys.readouterr()
        return path

    def test_summarize(self, trace, capsys):
        assert run_cli("telemetry", "summarize", str(trace)) == 0
        out = capsys.readouterr().out
        assert "mc.run" in out
        assert "mc_samples_total" in out
        assert "total [s]" in out

    def test_export_chrome(self, trace, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        assert run_cli(
            "telemetry", "export", str(trace),
            "--format", "chrome", "-o", str(out_path),
        ) == 0
        payload = json.loads(out_path.read_text())
        validate_chrome_trace(payload)
        assert payload["otherData"]["package"] == "repro"

    def test_export_prometheus_stdout(self, trace, capsys):
        assert run_cli(
            "telemetry", "export", str(trace), "--format", "prometheus"
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_mc_samples_total counter" in out
        assert "repro_span_seconds_bucket" in out

    def test_missing_trace_errors(self, tmp_path, capsys):
        assert run_cli(
            "telemetry", "summarize", str(tmp_path / "absent.jsonl")
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestStatusDurations:
    def test_status_shows_per_task_durations(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = (
            "paper-sweep-smoke", "--store", store,
            "--benchmarks", "c17", "--mc-samples", "0",
        )
        run_cli("campaign", "run", *args)
        capsys.readouterr()
        assert run_cli("campaign", "status", *args) == 0
        out = capsys.readouterr().out
        assert "attempts" in out
        assert "retries" in out
        assert "secs" in out
