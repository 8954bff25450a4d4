"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.traces import TraceFile


class TestCalibrate:
    def test_prints_bundle(self, capsys):
        assert main(["calibrate", "--hservers", "2", "--sservers", "1"]) == 0
        out = capsys.readouterr().out
        assert "2H+1S" in out
        assert "HServer" in out and "SServer" in out

    def test_request_hint_accepted(self, capsys):
        assert main(["calibrate", "--hservers", "2", "--sservers", "1", "--request-hint", "512K"]) == 0


class TestPlan:
    def make_trace_file(self, tmp_path):
        workload = IORWorkload(
            IORConfig(n_processes=4, request_size=256 * 1024, file_size=8 * 1024 * 1024, op="write")
        )
        path = tmp_path / "trace.csv"
        TraceFile.save(path, workload.synthetic_trace())
        return path

    def test_plan_prints_rst(self, tmp_path, capsys):
        path = self.make_trace_file(tmp_path)
        assert main(["plan", "--trace", str(path), "--hservers", "2", "--sservers", "1"]) == 0
        out = capsys.readouterr().out
        assert "Region #" in out
        assert "requests" in out  # planner report summary

    def test_plan_writes_rst_json(self, tmp_path, capsys):
        path = self.make_trace_file(tmp_path)
        output = tmp_path / "rst.json"
        assert (
            main([
                "plan", "--trace", str(path), "--output", str(output),
                "--hservers", "2", "--sservers", "1",
            ])
            == 0
        )
        payload = json.loads(output.read_text())
        assert payload[0]["offset"] == 0
        assert payload[0]["config"]["n_hservers"] == 2

    def test_empty_trace_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        TraceFile.save(path, [])
        assert main(["plan", "--trace", str(path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_step_override(self, tmp_path):
        path = self.make_trace_file(tmp_path)
        assert (
            main([
                "plan", "--trace", str(path), "--step", "32K",
                "--hservers", "2", "--sservers", "1",
            ])
            == 0
        )


class TestRunIOR:
    BASE = ["run-ior", "--hservers", "2", "--sservers", "1",
            "--processes", "4", "--file-size", "8M"]

    def test_fixed_layout(self, capsys):
        assert main(self.BASE + ["--layout", "64K"]) == 0
        out = capsys.readouterr().out
        assert "MiB/s" in out and "layout 64K" in out

    def test_harl_layout(self, capsys):
        assert main(self.BASE + ["--layout", "harl"]) == 0
        assert "HARL" in capsys.readouterr().out

    def test_random_layout(self, capsys):
        assert main(self.BASE + ["--layout", "rand2"]) == 0
        assert "rand:" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["random", "rand", "rand7", "RANDOM"])
    def test_random_layout_spellings(self, spec, capsys):
        # ISSUE 2: "random" used to crash with int("om"); all spellings of
        # the random family must simulate cleanly.
        assert main(self.BASE + ["--layout", spec]) == 0
        assert "rand:" in capsys.readouterr().out

    def test_random_and_rand_share_default_seed(self, capsys):
        assert main(self.BASE + ["--layout", "random"]) == 0
        first = capsys.readouterr().out
        assert main(self.BASE + ["--layout", "rand"]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("spec", ["bogus", "randx", "rand-3", "12Q"])
    def test_unknown_layout_clean_error(self, spec, capsys):
        # A bad spec must exit 2 with an argparse-style message, never a
        # traceback.
        assert main(self.BASE + ["--layout", spec]) == 2
        err = capsys.readouterr().err
        assert "invalid --layout" in err

    def test_indivisible_geometry_clean_error(self, capsys):
        # 4M across 16 procs x 512K requests doesn't divide; exit 2, not a
        # traceback from IORConfig validation.
        args = ["run-ior", "--hservers", "2", "--sservers", "1",
                "--file-size", "4M", "--layout", "random"]
        assert main(args) == 2
        assert "whole number of requests" in capsys.readouterr().err

    def test_read_op(self, capsys):
        assert main(self.BASE + ["--layout", "64K", "--op", "read"]) == 0
        assert "read" in capsys.readouterr().out

    def test_server_unavailable_is_one_error_line(self, capsys):
        # A server hung past every retry attempt ends the run with a typed
        # outcome (exit 1, one error line), not a ServerUnavailable traceback.
        code = main(self.BASE + ["--layout", "64K", "--faults", "hang:hserver0@0.0+30"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: server unavailable: ")
        assert len(err.strip().splitlines()) == 1
        assert "giving up on hserver0 after 4 attempt(s)" in err

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(self.BASE + ["--layout", "64K", "--trace-out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        assert "straggler" in capsys.readouterr().out


class TestTrace:
    BASE = ["trace", "--hservers", "2", "--sservers", "1",
            "--processes", "4", "--file-size", "4M"]

    def test_trace_command_exports(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        csv_path = tmp_path / "spans.csv"
        args = self.BASE + ["--layout", "64K", "--out", str(out), "--csv", str(csv_path)]
        assert main(args) == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert csv_path.read_text().startswith("start_s,duration_s,server")
        out_text = capsys.readouterr().out
        assert "straggler" in out_text and "MiB/s" in out_text

    def test_trace_harl_exports_planner_metrics(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(self.BASE + ["--layout", "harl", "--out", str(out)]) == 0
        assert "planner.stripe_cache" in capsys.readouterr().out

    def test_trace_bad_layout_clean_error(self, tmp_path, capsys):
        args = self.BASE + ["--layout", "nope", "--out", str(tmp_path / "t.json")]
        assert main(args) == 2
        assert "invalid --layout" in capsys.readouterr().err


class TestRunAllExitCode:
    def test_failing_shape_checks_exit_nonzero(self, tmp_path, monkeypatch, capsys):
        # ISSUE 2: a report with failed shape checks must fail the process.
        from repro.experiments.report import ReportSection, ReproductionReport

        failing = ReproductionReport(
            sections=[ReportSection(name="figX", elapsed=0.0, body="t", checks=[("c", False)])]
        )
        monkeypatch.setattr(
            "repro.experiments.report.generate_report", lambda **kwargs: failing
        )
        output = tmp_path / "report.md"
        assert main(["run-all", "--output", str(output)]) == 1
        assert "FAILED" in output.read_text()

    def test_passing_report_exits_zero(self, monkeypatch, capsys):
        from repro.experiments.report import ReportSection, ReproductionReport

        passing = ReproductionReport(
            sections=[ReportSection(name="figX", elapsed=0.0, body="t", checks=[("c", True)])]
        )
        monkeypatch.setattr(
            "repro.experiments.report.generate_report", lambda **kwargs: passing
        )
        assert main(["run-all"]) == 0


class TestAnalyze:
    def test_analyze_trace(self, tmp_path, capsys):
        workload = IORWorkload(
            IORConfig(n_processes=4, request_size=256 * 1024, file_size=8 * 1024 * 1024)
        )
        path = tmp_path / "trace.csv"
        TraceFile.save(path, workload.synthetic_trace())
        assert main(["analyze", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "histogram" in out and "4 ranks" in out

    def test_analyze_empty_errors(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        TraceFile.save(path, [])
        assert main(["analyze", "--trace", str(path)]) == 2


class TestFigures:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1a", "fig7", "fig12"):
            assert name in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["run-figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_run_figure_writes_output(self, tmp_path, capsys):
        output = tmp_path / "fig1a.txt"
        assert main(["run-figure", "fig1a", "--output", str(output)]) == 0
        assert "Fig 1(a)" in output.read_text()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in ("calibrate", "plan", "run-ior", "run-figure"):
            assert command in out


class TestIntegrityCLI:
    IOR = ["--hservers", "2", "--sservers", "2", "--processes", "4", "--file-size", "8M"]

    def test_run_ior_with_replicas(self, capsys):
        assert main(["run-ior", *self.IOR, "--layout", "64K", "--replicas", "2"]) == 0
        out = capsys.readouterr().out
        assert "64K+r2" in out
        assert "integrity:" in out
        assert "silent" in out

    def test_run_ior_corrupt_fault(self, capsys):
        code = main(
            [
                "run-ior",
                *self.IOR,
                "--layout",
                "64K",
                "--replicas",
                "2",
                "--faults",
                "corrupt:hserver0@0.005%0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 corruptions" in out
        assert "0 silent" in out

    def test_no_replicas_hint_when_replicas_already_set(self, capsys):
        # Every surviving copy is poisoned before hserver0 crashes, late
        # enough that foreground writes do not rewrite every poisoned block
        # before the rebuild reads it, so some blocks have no clean source
        # and the run fails with counted data loss; a run with three
        # replicas must not be told to use two.
        poison_all = "".join(
            f"corrupt:{name}@0.02%1.0;"
            for name in ("sserver0", "sserver1", "hserver1", "hserver2", "hserver3")
        )
        code = main(
            [
                "run-ior", "--hservers", "4", "--sservers", "2", "--processes", "4",
                "--file-size", "2M", "--request-size", "64K", "--replicas", "3",
                "--rebuild", "--faults", poison_all + "crash:hserver0@0.0205",
            ]
        )
        assert code == 1
        assert "--replicas 2" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run-ior", "--layout", "64K", "--faults", "corrupt:hserver0"],
            ["run-ior", "--layout", "64K", "--faults", "corrupt:hserver0@0.1%2.0"],
            ["run-ior", "--layout", "64K", "--faults", "corrupt:@0.1"],
            ["run-ior", "--layout", "64K", "--replicas", "0"],
            ["run-ior", "--layout", "random", "--replicas", "2"],
            ["scrub", "--layout", "64K", "--replicas", "-1"],
            ["scrub", "--layout", "64K", "--faults", "corrupt:nope"],
            ["scrub", "--layout", "64K", "--duty-cycle", "0"],
            ["chaos", "--rates", "0", "--corrupt-rate", "-0.5"],
        ],
    )
    def test_bad_specs_exit_two(self, argv, capsys):
        assert main([*argv[:1], *self.IOR, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_scrub_detects_and_repairs(self, capsys):
        assert main(["scrub", *self.IOR, "--layout", "64K"]) == 0
        out = capsys.readouterr().out
        assert "scrub:" in out
        assert "0 unrepairable" in out
        assert "0 silent" in out

    def test_scrub_without_replicas_reports_unrepairable(self, capsys):
        code = main(
            [
                "scrub",
                *self.IOR,
                "--layout",
                "64K",
                "--replicas",
                "1",
                "--faults",
                "corrupt:0@0.5%0.5",
            ]
        )
        assert code == 0  # detected and *reported*: nothing silent
        out = capsys.readouterr().out
        assert "0 repaired" in out

    def test_chaos_corrupt_rate_adds_columns(self, capsys):
        code = main(
            ["chaos", *self.IOR, "--rates", "0,2", "--corrupt-rate", "1", "--jobs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "poisoned" in out


class TestServe:
    BED = ["--hservers", "3", "--sservers", "1", "--duration", "0.2"]

    def test_default_tenants_happy_path(self, capsys):
        assert main(["serve", *self.BED]) == 0
        out = capsys.readouterr().out
        for token in ("tenant", "p99", "bronze", "silver", "gold"):
            assert token in out

    def test_tenant_specs_and_hedge_counters(self, capsys):
        code = main(
            [
                "serve",
                *self.BED,
                "--tenant",
                "web:gold:clients=3",
                "--tenant",
                "batch:bronze:clients=6",
                "--chaos",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "web" in out and "batch" in out
        assert "hedges:" in out

    def test_assert_p99_pass_and_fail(self, capsys):
        argv = [
            "serve",
            *self.BED,
            "--tenant",
            "web:gold:clients=3",
            "--tenant",
            "batch:bronze:clients=6",
        ]
        assert main([*argv, "--assert-p99", "gold<bronze"]) == 0
        assert "-> ok" in capsys.readouterr().out
        # The reverse ordering fails the gate with exit 1, not 2.
        assert main([*argv, "--assert-p99", "bronze<gold"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_hedging_reports_delta(self, capsys):
        code = main(
            [
                "serve",
                *self.BED,
                "--tenant",
                "web:gold:clients=4",
                "--chaos",
                "2",
                "--compare-hedging",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hedging off" in out
        assert "tail cut" in out

    def test_unknown_tier_exits_2(self, capsys):
        assert main(["serve", *self.BED, "--tenant", "web:platinum"]) == 2
        assert "unknown tier" in capsys.readouterr().err

    def test_bad_rate_exits_2(self, capsys):
        code = main(
            ["serve", *self.BED, "--tenant", "web:gold:arrival=poisson,rate=-5"]
        )
        assert code == 2
        assert "rate > 0" in capsys.readouterr().err

    def test_bad_tier_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "tiers.json"
        bad.write_text('{"gold": {"weight": 0}}')
        assert main(["serve", *self.BED, "--tiers", str(bad)]) == 2
        assert "weight" in capsys.readouterr().err

    def test_malformed_tier_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "tiers.json"
        bad.write_text("{not json")
        assert main(["serve", *self.BED, "--tiers", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        missing = tmp_path / "nope.json"
        assert main(["serve", *self.BED, "--tiers", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_custom_tier_file(self, tmp_path, capsys):
        config = tmp_path / "tiers.json"
        config.write_text(
            json.dumps(
                {
                    "eco": {"weight": 1},
                    "turbo": {"weight": 8, "replicas": 2, "hedge": True},
                }
            )
        )
        code = main(
            [
                "serve",
                *self.BED,
                "--tiers",
                str(config),
                "--tenant",
                "a:eco",
                "--tenant",
                "b:turbo",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "eco" in out and "turbo" in out

    def test_bad_assert_spec_exits_2(self, capsys):
        assert main(["serve", *self.BED, "--assert-p99", "goldbronze"]) == 2
        assert "FASTER_TIER<SLOWER_TIER" in capsys.readouterr().err

    def test_bad_chaos_rate_exits_2(self, capsys):
        assert main(["serve", *self.BED, "--chaos", "-1"]) == 2
        assert "chaos" in capsys.readouterr().err

    def test_faults_spec_flows_through(self, capsys):
        code = main(
            [
                "serve",
                *self.BED,
                "--tenant",
                "web:gold:clients=3,reads=0.8",
                "--faults",
                "corrupt:hserver1@0.05%0.4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "integrity:" in out and "0 silent" in out


class TestMdsCli:
    """--mds-* flags on run-ior/chaos and the mds-bench command."""

    BASE = ["run-ior", "--hservers", "2", "--sservers", "1",
            "--processes", "4", "--file-size", "4M", "--layout", "64K"]

    def test_run_ior_with_shards_prints_mds_line(self, capsys):
        assert main(self.BASE + ["--mds-shards", "4"]) == 0
        out = capsys.readouterr().out
        assert "mds: 4 shards (finger)" in out

    def test_run_ior_crash_recovers_and_exits_zero(self, capsys):
        code = main(
            self.BASE + ["--mds-shards", "4", "--faults", "mds-crash:0@0.001"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0 lost" in out or "mds:" in out

    def test_run_ior_degraded_mode_exits_one(self, capsys):
        # Crash every shard's potential successor chain off? One shard with
        # recovery disabled is enough: the only arc dies and stays dead.
        code = main(
            self.BASE
            + ["--mds-shards", "1", "--faults", "mds-crash:0@0.001",
               "--mds-recovery-delay", "none"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "degraded" in captured.err
        assert "recovery is off" in captured.err
        assert "Traceback" not in captured.err

    def test_negative_shards_exit_2(self, capsys):
        assert main(self.BASE + ["--mds-shards", "-3"]) == 2
        assert "--mds-shards" in capsys.readouterr().err

    def test_zero_shards_exit_2(self, capsys):
        assert main(self.BASE + ["--mds-shards", "0"]) == 2
        assert "--mds-shards must be >= 1" in capsys.readouterr().err

    def test_bad_recovery_delay_exit_2(self, capsys):
        assert main(self.BASE + ["--mds-recovery-delay", "soon"]) == 2
        assert "--mds-recovery-delay" in capsys.readouterr().err

    def test_mds_crash_on_the_only_shard_names_the_cause(self, capsys):
        # Recovery is on (the default delay), but the one default shard
        # has no successor to replay its journal on: say so, and do not
        # tell the user to enable what is already enabled.
        assert main(self.BASE + ["--faults", "mds-crash:0@0.01"]) == 1
        captured = capsys.readouterr()
        assert "mds: 1 shard (finger)" in captured.out
        assert "the only metadata shard crashed" in captured.err
        assert "no live shard was left to replay the journal" in captured.err
        assert "enable recovery" not in captured.err

    def test_bad_mds_crash_spec_exit_2(self, capsys):
        assert main(self.BASE + ["--mds-shards", "2", "--faults", "mds-crash:@1"]) == 2
        assert "mds-crash" in capsys.readouterr().err

    def test_chaos_gate_passes_with_recovery(self, capsys):
        code = main(
            ["chaos", "--hservers", "2", "--sservers", "1", "--processes", "4",
             "--file-size", "4M", "--rates", "1", "--mds-shards", "4",
             "--mds-crash-rate", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mds-crash" in out
        assert "0 lost entries -> ok" in out

    def test_chaos_crash_rate_without_shards_exit_2(self, capsys):
        code = main(
            ["chaos", "--hservers", "2", "--sservers", "1",
             "--rates", "1", "--mds-crash-rate", "1"]
        )
        assert code == 2
        assert "--mds-shards" in capsys.readouterr().err

    def test_mds_bench_prints_both_routings(self, capsys):
        code = main(
            ["mds-bench", "--shards", "1,2", "--ops", "32", "--processes", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "linear routing" in out and "finger routing" in out
        assert "lookup-throughput recovery" in out
        # shards × cache on/off: two data rows per shard count per routing.
        assert out.count(" on ") >= 2 and out.count(" off ") >= 2

    def test_mds_bench_single_routing_and_output(self, capsys, tmp_path):
        report = tmp_path / "mds.txt"
        code = main(
            ["mds-bench", "--shards", "1", "--ops", "16", "--processes", "4",
             "--routing", "finger", "--output", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "finger routing" in out and "linear routing" not in out
        assert "finger routing" in report.read_text()

    def test_mds_bench_bad_shards_exit_2(self, capsys):
        assert main(["mds-bench", "--shards", "two"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["mds-bench", "--shards", "0"]) == 2

    def test_mds_bench_indivisible_ops_exit_2(self, capsys):
        assert main(["mds-bench", "--ops", "5", "--processes", "4"]) == 2
        assert "--ops" in capsys.readouterr().err

    def test_mds_bench_bad_profile_exit_2(self, capsys):
        assert main(["mds-bench", "--mds-profile", "bogus"]) == 2
        assert "--mds-profile" in capsys.readouterr().err

    def test_mds_bench_speedup_gate(self, capsys):
        base = ["mds-bench", "--shards", "1", "--ops", "32",
                "--processes", "4", "--routing", "finger"]
        assert main(base + ["--assert-speedup", "2"]) == 0
        assert "-> ok" in capsys.readouterr().out
        assert main(base + ["--assert-speedup", "1e9"]) == 1
        assert "--assert-speedup" in capsys.readouterr().err
        assert main(base + ["--assert-speedup", "0"]) == 2
        assert "--assert-speedup" in capsys.readouterr().err

    def test_chaos_cached_stale_audit_prints_ok(self, capsys):
        code = main(
            ["chaos", "--hservers", "2", "--sservers", "1", "--processes", "4",
             "--file-size", "4M", "--rates", "1", "--mds-shards", "4",
             "--mds-crash-rate", "2", "--mds-cache"]
        )
        assert code == 0
        assert "0 stale hits -> ok" in capsys.readouterr().out

    def test_run_ior_bad_mds_profile_exit_2(self, capsys):
        assert main(self.BASE + ["--mds-profile", "bogus"]) == 2
        assert "--mds-profile" in capsys.readouterr().err

    def test_run_ior_mds_cache_and_profile_smoke(self, capsys):
        code = main(
            self.BASE
            + ["--mds-shards", "2", "--mds-cache", "--mds-profile", "calibrated"]
        )
        assert code == 0
        assert "mds: 2 shards" in capsys.readouterr().out


class TestNonFiniteFlags:
    """NaN and infinite numeric flags exit 2 with one ``error: --<flag>`` line.

    Before the shared finite check, NaN/inf fault rates reached numpy's
    Poisson sampler (a traceback, exit 1) and NaN durations, spreads and
    restore delays ran silently.
    """

    IOR = ["--hservers", "2", "--sservers", "2", "--processes", "4",
           "--file-size", "2M", "--request-size", "64K"]
    BED = ["--hservers", "2", "--sservers", "2"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["chaos", *IOR, "--rates", "nan"], "--rates"),
            (["chaos", *IOR, "--rates", "inf"], "--rates"),
            (["chaos", *IOR, "--rates", "0,nan"], "--rates"),
            (["chaos", *IOR, "--rates", "0", "--corrupt-rate", "nan"], "--corrupt-rate"),
            (["chaos", *IOR, "--rates", "0", "--mds-shards", "2",
              "--mds-crash-rate", "nan"], "--mds-crash-rate"),
            (["chaos", *IOR, "--rates", "0", "--restore-after", "nan"], "--restore-after"),
            (["chaos", *IOR, "--rates", "0", "--restore-after", "inf"], "--restore-after"),
            (["chaos", *IOR, "--rates", "0", "--replicas", "2", "--rebuild",
              "--rebuild-duty-cycle", "nan"], "--rebuild-duty-cycle"),
            (["run-ior", *IOR, "--layout", "64K", "--replicas", "2", "--rebuild",
              "--rebuild-duty-cycle", "nan"], "--rebuild-duty-cycle"),
            (["serve", *BED, "--duration", "0.05", "--chaos", "nan"], "--chaos"),
            (["serve", *BED, "--duration", "0.05", "--chaos", "inf"], "--chaos"),
            (["serve", *BED, "--duration", "nan"], "--duration"),
            (["mds-bench", "--shards", "1", "--ops", "16", "--processes", "4",
              "--spread", "nan"], "--spread"),
            (["mds-bench", "--shards", "1", "--ops", "16", "--processes", "4",
              "--assert-speedup", "nan"], "--assert-speedup"),
        ],
    )
    def test_non_finite_value_exits_two(self, argv, flag, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")
        assert len(err.strip().splitlines()) == 1


class TestReplayBenchErrors:
    """Bad ``replay-bench`` geometry or layout exits 2, never a traceback."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--layout", "0"], "--layout"),
            (["--layout", "bogus"], "--layout"),
            (["--processes", "0"], "--processes"),
            (["--requests", "0"], "--requests"),
            (["--request-size", "0"], "--request-size"),
            (["--chunk-size", "-5"], "--chunk-size"),
        ],
    )
    def test_bad_flag_exits_two(self, argv, flag, capsys):
        code = main(["replay-bench", "--hservers", "2", "--sservers", "1",
                     "--requests", "64", "--processes", "4", *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert len(err.strip().splitlines()) == 1


class TestBadTraceFile:
    """A missing or non-IOSIG ``--trace`` exits 2 with one ``error:`` line.

    ``plan``, ``analyze`` and ``replay`` used to pass the path straight to
    ``TraceFile.load``: a missing file raised ``FileNotFoundError`` and an
    empty or foreign file ``ValueError: not a trace file``, both as
    tracebacks with exit 1.
    """

    @pytest.mark.parametrize("command", ["plan", "analyze", "replay"])
    @pytest.mark.parametrize("content", [None, "", "not,a,trace\n1,2\n"])
    def test_unreadable_trace_exits_two(self, command, content, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        if content is not None:
            path.write_text(content)
        argv = [command, "--trace", str(path)]
        if command != "analyze":
            argv += ["--hservers", "2", "--sservers", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert len(err.strip().splitlines()) == 1


class TestReplayBenchChunked:
    """The chunked replay's makespan and sub-request count, pinned."""

    @pytest.mark.parametrize(
        "argv, makespan, subrequests",
        [
            ([], "0.1485", 256),
            (["--layout", "harl", "--request-size", "256K"], "0.2014", 768),
        ],
    )
    def test_chunked_run_is_pinned(self, argv, makespan, subrequests, capsys):
        code = main(["replay-bench", "--hservers", "2", "--sservers", "1",
                     "--requests", "256", "--processes", "4", "--chunk-size", "96",
                     *argv])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 chunks of <= 96" in out
        assert f"makespan {makespan}s" in out
        assert f"  {subrequests} sub-requests" in out
        assert "3 columnar + 0 event-heap + 0 general" in out
