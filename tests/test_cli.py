"""Command-line interface."""

import pytest

from repro.cli import main


class TestTable1:
    def test_prints_capacities(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "monitor" in out
        assert "3.20" in out


class TestFigure1:
    def test_prints_comparison(self, capsys):
        assert main(["figure1", "--duration", "0.004"]) == 0
        out = capsys.readouterr().out
        assert "(c) PAM" in out
        assert "PAM vs naive latency" in out


class TestFigure2:
    def test_custom_sizes(self, capsys):
        assert main(["figure2", "--sizes", "64", "--duration",
                     "0.004"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2(a)" in out
        assert "Figure 2(b)" in out
        assert "64" in out


class TestPlan:
    def test_pam_plan(self, capsys):
        assert main(["plan", "--policy", "pam", "--load", "1.8"]) == 0
        out = capsys.readouterr().out
        assert "logger" in out
        assert "alleviates: True" in out

    def test_naive_plan(self, capsys):
        assert main(["plan", "--policy", "naive", "--load", "1.8"]) == 0
        assert "monitor" in capsys.readouterr().out

    def test_no_overload(self, capsys):
        assert main(["plan", "--load", "1.0"]) == 0
        assert "no migration needed" in capsys.readouterr().out

    def test_noop_under_overload_is_not_called_unneeded(self, capsys):
        # The Figure 1 NIC is overloaded at 1.8 Gbps; the noop plan
        # moves nothing and does not alleviate it.
        assert main(["plan", "--policy", "noop", "--load", "1.8"]) == 0
        assert capsys.readouterr().out == (
            "noop: no migration planned at 1.8 Gbps; the plan does not "
            "alleviate the SmartNIC (noop policy never migrates)\n")

    def test_noop_without_overload_says_not_needed(self, capsys):
        # At 1.0 Gbps the Figure 1 NIC needs no relief, so the empty
        # plan alleviates: the verdict push_aside gives, not a failure.
        assert main(["plan", "--policy", "noop", "--load", "1.0"]) == 0
        assert capsys.readouterr().out == \
            "noop: no migration needed at 1.0 Gbps\n"

    def test_alleviating_empty_plan_says_not_needed(self, capsys):
        assert main(["plan", "--policy", "pam", "--load", "1.0"]) == 0
        assert capsys.readouterr().out == \
            "pam: no migration needed at 1.0 Gbps\n"

    def test_scaleout_exit_code(self, capsys):
        assert main(["plan", "--policy", "pam", "--load", "2.4"]) == 1
        assert "scale out" in capsys.readouterr().out


class TestSpike:
    def test_closed_loop_run(self, capsys):
        assert main(["spike", "--duration", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "migrated=['logger']" in out
        assert "dropped 0" in out


class TestErrors:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["warp"])

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["plan", "--policy", "quantum"])


class TestOptimise:
    def test_prints_optimal_placement(self, capsys):
        assert main(["optimise", "--load", "1.8"]) == 0
        out = capsys.readouterr().out
        assert "optimal placement" in out
        assert "predicted latency" in out

    def test_infeasible_load(self, capsys):
        assert main(["optimise", "--load", "8.0"]) == 1
        assert "scale out" in capsys.readouterr().out


class TestResilienceCommand:
    def test_device_kill_scenario_exits_clean(self, capsys):
        assert main(["resilience", "--scenario", "device-kill"]) == 0
        out = capsys.readouterr().out
        assert "recovery of smartnic: completed" in out
        assert "time-to-recover" in out
        assert "healthy -> suspect" in out
        assert "suspect -> failed" in out
        assert "verdict: ok" in out

    def test_overload_scenario_exits_clean(self, capsys):
        assert main(["resilience", "--scenario", "overload",
                     "--duration", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "class low" in out
        assert "[protected]" in out
        assert "verdict: ok" in out

    def test_unknown_scenario_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["resilience", "--scenario", "meteor-strike"])


class TestChaosResilienceFlags:
    def test_resilient_campaign_exit_code(self, capsys):
        assert main(["chaos", "--runs", "2", "--seed", "7",
                     "--duration", "0.02", "--resilient",
                     "--device-kills", "1", "--overloads", "1"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "shed" in out

    def test_crashing_scenario_exits_nonzero(self, capsys, monkeypatch):
        # Satellite regression: a scenario crash must surface as a
        # violation (exit 1), never as a clean campaign or a traceback.
        from repro.chaos.runner import ChaosRunner

        def explode(self, run_seed, schedule):
            raise RuntimeError("boom")

        monkeypatch.setattr(ChaosRunner, "build_scenario", explode)
        assert main(["chaos", "--runs", "1", "--seed", "3",
                     "--duration", "0.01"]) == 1
        assert "scenario-error" in capsys.readouterr().out


class TestFigure2Chart:
    def test_chart_flag_appends_bars(self, capsys):
        assert main(["figure2", "--sizes", "64", "--duration", "0.004",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "64B pam" in out
        assert "█" in out


class TestCampaignsCommand:
    def test_list_kinds_names_every_registered_kind(self, capsys):
        assert main(["campaigns", "--list-kinds"]) == 0
        out = capsys.readouterr().out
        for kind in ("chaos", "reliability", "resilience", "size-sweep",
                     "soak", "fault-injected"):
            assert f"{kind}: " in out

    def test_default_action_lists_kinds(self, capsys):
        assert main(["campaigns"]) == 0
        assert "soak: " in capsys.readouterr().out


class TestCrashResumeCampaignFlag:
    def test_unknown_kind_exits_2_with_available_kinds(self, capsys):
        assert main(["crash-resume", "--campaign", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "chaos" in err and "reliability" in err and "soak" in err


class TestSoakCommand:
    def test_list_invariants(self, capsys):
        assert main(["soak", "--list-invariants"]) == 0
        out = capsys.readouterr().out
        assert "virtual-time-monotonic" in out
        assert "drained-end-state" in out

    def test_clean_fuzz_exits_zero(self, capsys):
        assert main(["soak", "--runs", "2", "--seed", "7",
                     "--duration", "0.008"]) == 0
        out = capsys.readouterr().out
        assert "2 soak cases: all invariants held" in out

    def test_planted_bug_shrinks_and_replays(self, tmp_path, capsys):
        reproducer = str(tmp_path / "repro.json")
        assert main(["soak", "--runs", "2", "--seed", "7",
                     "--duration", "0.008",
                     "--plant-bug", "1:conservation:crash",
                     "--reproducer", reproducer]) == 1
        out = capsys.readouterr().out
        assert "VIOLATIONS" in out
        assert "shrunk to 1 fault event(s)" in out
        assert f"reproducer written: {reproducer}" in out

        assert main(["soak", "--replay", reproducer]) == 0
        assert "bit-exact" in capsys.readouterr().out

    def test_no_shrink_skips_the_shrinker(self, capsys):
        assert main(["soak", "--runs", "2", "--seed", "7",
                     "--duration", "0.008", "--no-shrink",
                     "--plant-bug", "1:conservation"]) == 1
        out = capsys.readouterr().out
        assert "shrunk" not in out

    def test_bad_plant_spec_exits_2(self, capsys):
        assert main(["soak", "--runs", "2", "--plant-bug", "x:y"]) == 2
        assert "plant" in capsys.readouterr().err

    def test_missing_replay_file_exits_2(self, tmp_path, capsys):
        assert main(["soak", "--replay",
                     str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


#: Every option string of each campaign command and its default, as
#: ``build_parser()`` declares them.  Sharing one flag block between the
#: commands must leave this table unchanged.
_CAMPAIGN_FLAGS = {
    "figure2": {
        "--sizes": [64, 128, 256, 512, 1024, 1500],
        "--duration": 0.008, "--chart": False,
        "--journal": None, "--resume-from": None, "--workers": 1,
        "--run-timeout": None, "--max-attempts": 1,
        "--max-failures": None,
    },
    "chaos": {
        "--runs": 20, "--seed": 7, "--duration": 0.04,
        "--failure-rate": 0.3, "--device-kills": 0, "--overloads": 0,
        "--resilient": False, "--journal": None, "--resume-from": None,
        "--checkpoint-every": 5, "--workers": 1, "--run-timeout": None,
        "--max-attempts": 1, "--max-failures": None,
        "--inject-worker-fault": None,
    },
    "soak": {
        "--runs": 32, "--seed": 7, "--duration": None, "--journal": None,
        "--resume-from": None, "--checkpoint-every": 5, "--workers": 1,
        "--run-timeout": None, "--max-attempts": 1,
        "--max-failures": None, "--stop-on-failure": False,
        "--max-seconds": None, "--plant-bug": None, "--no-shrink": True,
        "--reproducer": "soak-reproducer.json", "--replay": None,
        "--list-invariants": False,
    },
    "resilience": {
        "--scenario": "device-kill", "--seed": 7, "--duration": None,
        "--runs": 1, "--workers": 1, "--journal": None,
        "--resume-journal": None,
        "--run-timeout": None, "--max-attempts": 1,
        "--max-failures": None,
    },
    "reliability": {
        "--scenario": "device-kill",
        "--policies": ["joint", "pam", "naive"], "--runs": 1,
        "--seed": 7, "--duration": None, "--budget": 1 << 20,
        "--workers": 1, "--journal": None, "--resume-journal": None,
        "--checkpoint-every": 5, "--run-timeout": None,
        "--max-attempts": 1, "--max-failures": None,
    },
}


class TestCampaignFlagPin:
    @pytest.mark.parametrize("command", sorted(_CAMPAIGN_FLAGS))
    def test_option_strings_and_defaults(self, command):
        import argparse
        from repro.cli import build_parser
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        parser = subparsers.choices[command]
        declared = {action.option_strings[0]:
                    parser.get_default(action.dest)
                    for action in parser._actions
                    if action.option_strings and action.dest != "help"}
        assert declared == _CAMPAIGN_FLAGS[command]


def _checkpointing_flag_table():
    """Rows of docs/checkpointing.md's "Campaign flags per command"."""
    from pathlib import Path
    doc = Path(__file__).resolve().parents[1] / "docs" / "checkpointing.md"
    section = doc.read_text().split("### Campaign flags per command")[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `"):
            rows[cells[0].strip("`")] = cells[1:]
        elif rows:
            break
    return rows


class TestCampaignFlagTable:
    """The docs table is a hand-kept third description of each campaign
    command's flags; every row must say what ``build_parser()`` does."""

    def test_rows_match_the_parser(self):
        import argparse
        from repro.cli import build_parser
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction))
        campaign_commands = {
            name for name, parser in subparsers.choices.items()
            if parser.get_default("make_campaign") is not None
            and name != "sweep"}  # figure2's alias
        rows = _checkpointing_flag_table()
        assert set(rows) == campaign_commands
        for command, (workers, resume, progress, supervision) in \
                rows.items():
            parser = subparsers.choices[command]
            options = {option: action for action in parser._actions
                       for option in action.option_strings}
            assert workers == "`--workers`, `--journal`", command
            assert {"--workers", "--journal"} <= set(options), command
            resume_flag = resume.strip("`")
            assert options[resume_flag].dest == "resume_journal", command
            other = ({"--resume-from", "--resume-journal"}
                     - {resume_flag}).pop()
            assert other not in options, command
            if progress.startswith("`--checkpoint-every`"):
                assert progress == "`--checkpoint-every` " \
                    f"({options['--checkpoint-every'].default})", command
            else:
                assert progress == "fixed at 5 runs", command
                assert "--checkpoint-every" not in options, command
                assert parser.get_default("progress_every") == 5, command
            assert supervision == "yes", command
            assert {"--run-timeout", "--max-attempts",
                    "--max-failures"} <= set(options), command


class TestCampaignFlagErrors:
    @pytest.mark.parametrize("fault", ["hang", "die"])
    def test_serial_hang_or_die_fault_exits_2(self, fault, capsys):
        # In-process, a hang would wedge and a die would kill the CLI.
        assert main(["chaos", "--runs", "1", "--duration", "0.005",
                     "--inject-worker-fault", f"0:{fault}"]) == 2
        assert "--workers >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["chaos", "--duration", "0"],
        ["soak", "--duration", "0"],
        ["resilience", "--duration", "-1"],
        ["reliability", "--duration", "0"],
        # A kill that can never land mid-grid, or no grid at all.
        ["crash-resume", "--runs", "2", "--kill-after", "5"],
        ["crash-resume", "--runs", "0"]])
    def test_out_of_range_values_exit_2_before_running(
            self, argv, monkeypatch, capsys):
        import subprocess
        import tempfile

        def refuse(*args, **kwargs):
            raise AssertionError("validation must precede any run")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestFigure2Journal:
    @pytest.mark.parametrize("argv,first_flags,resume_flag", [
        (["figure2", "--sizes", "64", "1500", "--duration", "0.002"],
         ["--workers", "2"], "--resume-from"),
        (["resilience", "--scenario", "device-kill", "--runs", "2",
          "--duration", "0.02"], [], "--resume-journal")],
        ids=["figure2", "resilience"])
    def test_resume_replays_every_point_and_renders_the_same(
            self, tmp_path, capsys, argv, first_flags, resume_flag):
        journal = str(tmp_path / "campaign.jsonl")
        assert main([*argv, *first_flags, "--journal", journal]) == 0
        first = capsys.readouterr().out
        assert main([*argv, resume_flag, journal]) == 0
        resumed = capsys.readouterr().out.splitlines()
        assert resumed[0] == f"replayed 2 run(s) from journal {journal}"
        assert "\n".join(resumed[1:]) + "\n" == first
