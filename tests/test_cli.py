"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "MichiCAN" in out and "Parrot" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "1248" in out

    def test_table2_single_experiment(self, capsys):
        assert main(["table2", "--experiment", "4",
                     "--duration", "10000"]) == 0
        out = capsys.readouterr().out
        assert "exp4" in out and "mean=" in out

    def test_table2_invalid_experiment(self, capsys):
        assert main(["table2", "--experiment", "9"]) == 2

    def test_latency(self, capsys):
        assert main(["latency", "--fsms", "40"]) == 0
        out = capsys.readouterr().out
        assert "detection rate" in out
        assert "100.00%" in out

    def test_multi(self, capsys):
        assert main(["multi", "--attackers", "2",
                     "--duration", "8000"]) == 0
        out = capsys.readouterr().out
        assert "total fight" in out

    def test_cpu(self, capsys):
        assert main(["cpu"]) == 0
        out = capsys.readouterr().out
        assert "Arduino Due" in out and "S32K144" in out

    def test_fsm(self, capsys):
        assert main(["fsm", "--ecus", "0xA0,0x173", "--own", "0x173",
                     "--classify", "0x064"]) == 0
        out = capsys.readouterr().out
        assert "malicious" in out

    def test_demo(self, capsys):
        assert main(["demo", "--attack-id", "0x040"]) == 0
        out = capsys.readouterr().out
        assert "bus-off" in out

    def test_parksense_undefended(self, capsys):
        assert main(["parksense", "--undefended",
                     "--duration", "250000"]) == 0
        out = capsys.readouterr().out
        assert "unavailable" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliLogTools:
    @pytest.fixture()
    def logfile(self, tmp_path):
        path = tmp_path / "capture.log"
        path.write_text(
            "(0.000000) can0 123#DEADBEEF\n"
            "(0.010000) can0 123#DEADBEF0\n"
            "(0.020000) can0 18DAF110#01\n"
            "(0.025000) can0 064#0000000000000000\n"
        )
        return str(path)

    def test_decode(self, capsys, logfile):
        assert main(["decode", logfile]) == 0
        out = capsys.readouterr().out
        assert "0x123" in out and "0x18DAF110" in out
        assert "10.0" in out  # measured period of 0x123

    def test_replay(self, capsys, logfile):
        assert main(["replay", logfile, "--time-scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "replayed 4/4 frames" in out

    def test_replay_with_defense(self, capsys, logfile):
        assert main(["replay", logfile, "--time-scale", "0.05",
                     "--defend", "0x123"]) == 0
        out = capsys.readouterr().out
        assert "MichiCAN detections" in out

    def test_codegen(self, capsys):
        assert main(["codegen", "--ecus", "0xA0,0x173",
                     "--own", "0x173", "--prefix", "ecu_a"]) == 0
        out = capsys.readouterr().out
        assert "ecu_a_fsm" in out and "#include <stdint.h>" in out


class TestCliPlanningTools:
    def test_coverage(self, capsys):
        assert main(["coverage", "--ecus", "0xA0,0x173,0x2F0",
                     "--equip", "0xA0"]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL" in out and "uncovered DoS ranges" in out

    def test_coverage_default_top_ecu(self, capsys):
        assert main(["coverage", "--ecus", "0xA0,0x173,0x2F0"]) == 0
        out = capsys.readouterr().out
        assert "FULL" in out

    def test_waveform(self, capsys, tmp_path):
        output = str(tmp_path / "fight.svg")
        assert main(["waveform", "--output", output,
                     "--duration", "300", "--bits", "100"]) == 0
        content = open(output, encoding="utf-8").read()
        assert content.startswith("<svg")
        assert "counterattack" in content

    def test_waveform_timeline(self, capsys, tmp_path):
        output = str(tmp_path / "timeline.svg")
        assert main(["waveform", "--output", output, "--timeline",
                     "--duration", "2600"]) == 0
        content = open(output, encoding="utf-8").read()
        assert "attacker" in content and "bus-off" in content

    def test_report_sections(self, capsys):
        assert main(["report", "--sections", "table3"]) == 0
        out = capsys.readouterr().out
        assert "1248" in out


class TestCliCampaign:
    def test_scenarios_listing(self, capsys):
        assert main(["campaign", "scenarios"]) == 0
        out = capsys.readouterr().out
        assert "exp1" in out and "multi_attacker" in out
        assert "restbus_fight" in out

    def test_run_and_show(self, capsys, tmp_path):
        out_file = str(tmp_path / "report.json")
        assert main(["campaign", "run", "--scenario", "exp4",
                     "--seeds", "1,2", "--duration", "4000",
                     "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 runs" in out
        assert "exp4#1" in out and "exp4#2" in out
        assert main(["campaign", "show", out_file]) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 runs" in out

    def test_run_with_params_and_workers(self, capsys):
        assert main(["campaign", "run", "--scenario", "multi_attacker",
                     "--param", "num_attackers=2",
                     "--duration", "6000", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "multi_attacker#0" in out

    def test_run_from_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(
            '[{"scenario": "exp4", "duration_bits": 4000, "seed": 5}]')
        assert main(["campaign", "run", "--spec-file", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "exp4#5" in out

    def test_run_unknown_scenario(self, capsys):
        assert main(["campaign", "run", "--scenario", "bogus"]) == 2

    def test_run_without_specs(self, capsys):
        assert main(["campaign", "run"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["campaign"])


class TestCliErrorPaths:
    def test_decode_missing_file(self):
        with pytest.raises(FileNotFoundError):
            main(["decode", "/nonexistent/capture.log"])

    def test_fsm_requires_ecus(self):
        with pytest.raises(SystemExit):
            main(["fsm"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])


class TestCliMetrics:
    def _run_campaign(self, tmp_path, snapshots=True):
        report = str(tmp_path / "report.json")
        argv = ["campaign", "run", "--scenario", "exp4",
                "--seeds", "1,2", "--duration", "4000", "--out", report]
        if snapshots:
            argv += ["--snapshot-every", "1000",
                     "--snapshot-dir", str(tmp_path / "snaps")]
        assert main(argv) == 0
        return report

    def test_campaign_runs_carry_metrics_by_default(self, capsys, tmp_path):
        self._run_campaign(tmp_path, snapshots=False)
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "campaign-wide telemetry totals:" in out

    def test_no_metrics_flag(self, capsys, tmp_path):
        report = str(tmp_path / "report.json")
        assert main(["campaign", "run", "--scenario", "exp4",
                     "--seeds", "1", "--duration", "4000",
                     "--no-metrics", "--out", report]) == 0
        out = capsys.readouterr().out
        assert "metrics:" not in out
        assert main(["metrics", "summary", report]) == 1

    def test_snapshot_dir_round_trips(self, capsys, tmp_path):
        from repro.obs.snapshot import read_snapshots

        self._run_campaign(tmp_path)
        capsys.readouterr()
        timeline = tmp_path / "snaps" / "exp4_1.snapshots.jsonl"
        assert timeline.exists()
        snapshots = read_snapshots(timeline)
        assert [snap["time"] for snap in snapshots] == [1000, 2000, 3000]

    def test_metrics_summary(self, capsys, tmp_path):
        report = self._run_campaign(tmp_path, snapshots=False)
        capsys.readouterr()
        assert main(["metrics", "summary", report]) == 0
        out = capsys.readouterr().out
        assert "[exp4#1]" in out and "[exp4#2]" in out
        assert "campaign-wide telemetry totals:" in out

    def test_metrics_export_prometheus(self, capsys, tmp_path):
        report = self._run_campaign(tmp_path, snapshots=False)
        capsys.readouterr()
        assert main(["metrics", "export", report]) == 0
        out = capsys.readouterr().out
        assert 'repro_busoffs_total{node="attacker",spec="exp4#1"}' in out

    def test_metrics_export_jsonl_to_file(self, capsys, tmp_path):
        import json

        report = self._run_campaign(tmp_path, snapshots=False)
        out_file = tmp_path / "metrics.jsonl"
        assert main(["metrics", "export", report, "--format", "jsonl",
                     "--output", str(out_file)]) == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["spec"] == "exp4#1"

    def test_metrics_tail(self, capsys, tmp_path):
        self._run_campaign(tmp_path)
        capsys.readouterr()
        timeline = str(tmp_path / "snaps" / "exp4_1.snapshots.jsonl")
        assert main(["metrics", "tail", timeline, "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "attacker" in out and "3000" in out

    def test_metrics_profile(self, capsys):
        assert main(["metrics", "profile", "--scenario", "exp4",
                     "--duration", "2000"]) == 0
        out = capsys.readouterr().out
        assert "profiled 2000 bits" in out and "observe" in out

    def test_metrics_profile_unknown_scenario(self, capsys):
        assert main(["metrics", "profile", "--scenario", "bogus"]) == 2

    def test_metrics_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["metrics"])


class TestCliChaos:
    def test_chaos_sweep_prints_the_curve(self, capsys, tmp_path):
        out_file = str(tmp_path / "curve.json")
        assert main(["chaos", "--intensities", "0.0,0.0005",
                     "--duration", "6000", "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "degradation sweep: 2 intensities" in out
        assert "false+" in out
        import json
        curve = json.load(open(out_file, encoding="utf-8"))
        assert [p["intensity"] for p in curve["points"]] == [0.0, 0.0005]

    def test_chaos_bad_intensities(self, capsys):
        with pytest.raises(SystemExit):
            main(["chaos", "--intensities", "high"])

    def test_campaign_run_with_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            '{"schema_version": 1, "faults": [{"name": "flips",'
            ' "kind": "wire.flip",'
            ' "params": {"flip_probability": 0.001}, "seed": 3}]}')
        assert main(["campaign", "run", "--scenario", "exp4",
                     "--duration", "4000", "--faults", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "campaign: 1 runs" in out

    def test_campaign_resume_requires_checkpoint(self, capsys):
        assert main(["campaign", "run", "--scenario", "exp4",
                     "--resume"]) == 2

    def test_campaign_checkpoint_and_resume(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "campaign.jsonl")
        argv = ["campaign", "run", "--scenario", "exp4",
                "--seeds", "1,2", "--duration", "4000",
                "--checkpoint", checkpoint]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "campaign: 2 runs" in out
        # The checkpoint is a work journal; the resume re-ran nothing.
        import json

        lines = [json.loads(line) for line in open(checkpoint)]
        assert {line["type"] for line in lines} == {"work"}
        assert [line["state"] for line in lines].count("done") == 2

    def test_campaign_watch_renders_a_checkpoint_journal(self, capsys,
                                                         tmp_path):
        checkpoint = str(tmp_path / "campaign.jsonl")
        assert main(["campaign", "run", "--scenario", "exp4", "--seeds",
                     "1,2", "--duration", "2000", "--workers", "2",
                     "--telemetry", "--checkpoint", checkpoint]) == 0
        capsys.readouterr()
        assert main(["campaign", "watch", checkpoint]) == 0
        out = capsys.readouterr().out
        assert "2/2 specs (2 ok, 0 failed" in out
        assert "campaign finished" in out
