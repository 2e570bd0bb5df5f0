"""Command-line interface: ``python -m repro <command>``.

Gives operators the paper's experiments without writing Python:

* ``reproduce``  — regenerate and check every paper artefact,
* ``table1`` / ``figure1`` / ``figure2`` — the individual artefacts,
* ``plan``       — run a selection policy at a chosen offered load,
* ``explain``    — placement diagram + capacity/border/latency analysis,
* ``optimise``   — exhaustive optimal-placement search,
* ``spike``      — the closed-loop traffic-spike episode,
* ``chaos``      — randomized fault campaign with invariant checking,
* ``soak``       — generative chaos fuzzing with an online invariant
  engine and automatic minimal-reproducer shrinking,
* ``campaigns``  — list the registered campaign kinds,
* ``resilience`` — canned device-failure / overload-degradation
  scenarios with recovery and shedding verdicts,
* ``reliability`` — joint migrate/replicate/shed planning campaigns
  (policy grids measured under device-kill / overload),
* ``lint``       — simulation-safety static analysis (determinism,
  units, event-ordering, exception hygiene).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, List, Optional

# Only what several handlers share is imported here.  A handler imports
# what only it runs, so ``--help`` and every other command skip the
# simulator, the linter and the artefact harness they do not use.
from .errors import ReproError, ScaleOutRequired
from .harness.scenarios import figure1
from .traffic.packet import PAPER_SIZE_SWEEP
from .units import as_msec, as_usec, gbps


def _policy_by_name(name: str):
    from .baselines.naive import NaivePolicy
    from .baselines.noop import NoopPolicy
    from .core.planner import PAMPolicy
    policies = {"pam": PAMPolicy, "naive": NaivePolicy, "noop": NoopPolicy}
    try:
        return policies[name]()
    except KeyError:
        raise ReproError(
            f"unknown policy {name!r}; choose from {sorted(policies)}")


def _add_campaign_args(parser: argparse.ArgumentParser,
                       make_campaign: Callable[[argparse.Namespace], Any],
                       render: Callable[[argparse.Namespace, List[dict]],
                                        str],
                       resume_flag: str = "--resume-from",
                       progress_flag: bool = True) -> None:
    """The execution flags every campaign command shares.

    ``make_campaign`` (parsed args -> campaign) and ``render`` (args
    and merged payloads -> report) become the parser's defaults, so the
    command runs through :func:`cmd_campaign` and ``crash-resume``
    rebuilds the same campaign by parsing the same argv.
    ``resume_flag`` names the journal-resume flag (resilience and
    reliability say ``--resume-journal``).  ``progress_flag`` adds
    ``--checkpoint-every`` for the journal's progress digests; without
    it (figure2 and resilience) the digest interval stays at 5.
    """
    parser.set_defaults(func=cmd_campaign, make_campaign=make_campaign,
                        render=render)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes; the merged report is "
                             "bit-identical to --workers 1")
    parser.add_argument("--journal", metavar="PATH",
                        help="write-ahead run journal (JSONL) logging "
                             "campaign progress")
    parser.add_argument(resume_flag, dest="resume_journal", metavar="PATH",
                        help="run journal to replay completed runs from "
                             "(continues appending to it)")
    if progress_flag:
        parser.add_argument("--checkpoint-every", dest="progress_every",
                            type=int, default=5,
                            help="journal a campaign-progress digest "
                                 "every N runs")
    else:
        parser.set_defaults(progress_every=5)
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SEC",
                        help="wall-clock deadline per run; a run past it "
                             "has its worker killed and is retried "
                             "(enforced with --workers >= 2)")
    parser.add_argument("--max-attempts", type=int, default=1,
                        metavar="N",
                        help="tries per run before it is quarantined as "
                             "a scenario-error (default 1 = no retry)")
    parser.add_argument("--max-failures", type=float, default=None,
                        metavar="N",
                        help="abort the campaign once more than N runs "
                             "(a fraction of the grid when N < 1) are "
                             "quarantined")


def _run_campaign(args: argparse.Namespace, stop_when=None):
    """Run the campaign ``args`` describe as the shared flags say and
    print its report.

    Returns the :class:`~repro.exec.CampaignOutcome`; a resumed run
    first notes how many runs the journal replayed.
    """
    from .exec.driver import run_campaign
    from .exec.executors import make_executor
    from .exec.supervisor import SupervisionPolicy
    policy = SupervisionPolicy(run_timeout_s=args.run_timeout,
                               max_attempts=args.max_attempts,
                               max_failures=args.max_failures)
    outcome = run_campaign(args.make_campaign(args),
                           executor=make_executor(args.workers, policy),
                           journal_path=args.journal,
                           resume_from=args.resume_journal,
                           checkpoint_every=args.progress_every,
                           stop_when=stop_when)
    if outcome.replayed:
        print(f"replayed {outcome.replayed} run(s) from journal "
              f"{args.resume_journal}")
    print(args.render(args, outcome.payloads))
    return outcome


def _violations_exit(payloads: List[dict]) -> int:
    """Exit 1 when any run recorded a violation, else 0."""
    return 1 if any(payload.get("violations") for payload in payloads) \
        else 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a campaign command; exit 1 when any run broke an invariant."""
    return _violations_exit(_run_campaign(args).payloads)


def cmd_table1(args: argparse.Namespace) -> int:
    """Print the Table 1 capacity table."""
    from .chain.catalog import TABLE1
    from .resources.capacity import CapacityTable
    table = CapacityTable.from_mapping(TABLE1)
    print(table.render())
    return 0


def cmd_figure1(args: argparse.Namespace) -> int:
    """Run and print the Figure 1 policy comparison."""
    from .harness.compare import compare_policies, latency_gap
    from .harness.tables import render_figure1
    outcomes = compare_policies(figure1(), duration_s=args.duration)
    print(render_figure1(outcomes))
    gap = latency_gap(outcomes)
    print(f"\nPAM vs naive latency: {gap:+.1%} (paper: -18%)")
    return 0


def _figure2_campaign(args: argparse.Namespace):
    """The Figure 2 packet-size sweep the ``figure2`` flags describe."""
    from .harness.sweep import SizeSweepCampaign
    return SizeSweepCampaign(figure1(), sizes=tuple(args.sizes),
                             duration_s=args.duration)


def _figure2_report(args: argparse.Namespace, payloads: List[dict]) -> str:
    """The Figure 2 latency and throughput tables (and ``--chart``)."""
    from .harness.sweep import SizeSweepPoint
    from .harness.tables import (render_figure2_latency,
                                 render_figure2_throughput)
    points = [SizeSweepPoint.from_record(payload) for payload in payloads]
    sections = [render_figure2_latency(points),
                render_figure2_throughput(points)]
    if args.chart:
        from .telemetry.ascii_plots import bar_chart
        sections.append(bar_chart(
            [(f"{point.packet_size_bytes}B {policy}",
              round(point.mean_latency_usec(policy), 1))
             for point in points
             for policy in ("noop", "naive", "pam")],
            width=36, unit="us"))
    return "\n\n".join(sections)


def cmd_plan(args: argparse.Namespace) -> int:
    """Run one selection policy and print its plan."""
    from .harness.tables import render_table
    from .resources.model import LoadModel
    scenario = figure1()
    policy = _policy_by_name(args.policy)
    try:
        plan = policy.select(
            (LoadModel(scenario.placement, gbps(args.load)),))
    except ScaleOutRequired as exc:
        print(f"{args.policy}: cannot alleviate by migration "
              f"(NIC {exc.nic_utilisation:.2f}, CPU "
              f"{exc.cpu_utilisation:.2f}); scale out per OpenNF")
        return 1
    if plan.is_noop:
        if plan.alleviates:
            print(f"{args.policy}: no migration needed at {args.load} Gbps")
        else:
            print(f"{args.policy}: no migration planned at {args.load} "
                  f"Gbps; the plan does not alleviate the SmartNIC "
                  f"({'; '.join(plan.notes) or 'no notes'})")
        return 0
    rows = [[action.nf_name, action.source.value, action.target.value,
             f"{action.crossing_delta:+d}"] for action in plan.actions]
    print(render_table(["vNF", "from", "to", "dPCIe"], rows,
                       title=f"{args.policy} plan at {args.load} Gbps"))
    print(f"alleviates: {plan.alleviates}  "
          f"total crossing delta: {plan.total_crossing_delta:+d}")
    return 0


def cmd_spike(args: argparse.Namespace) -> int:
    """Run the closed-loop traffic-spike episode."""
    from .core.planner import MigrationController
    from .sim.runner import SimulationRunner
    from .telemetry.monitor import LoadMonitor
    from .traffic.packet import FixedSize
    from .traffic.patterns import ProfiledArrivals, spike
    profile = spike(base_bps=gbps(args.base), peak_bps=gbps(args.peak),
                    start_s=0.01, duration_s=1.0)
    generator = ProfiledArrivals(profile, FixedSize(args.size),
                                 duration_s=args.duration, seed=11,
                                 jitter=False)
    server = figure1().build_server()
    controller = MigrationController(_policy_by_name(args.policy))
    monitor = LoadMonitor(inner=controller)
    result = SimulationRunner(server, generator, monitor,
                              monitor_period_s=0.002).run()
    print(f"policy={args.policy} migrated={result.migrated_nfs} "
          f"at={[f'{as_msec(t):.1f}ms' for t in result.migration_times_s]}")
    print(f"delivered {result.delivered}/{result.injected} "
          f"(dropped {result.dropped}); mean latency "
          f"{as_usec(result.latency.mean_s):.1f} us, "
          f"p99 {as_usec(result.latency.p99_s):.1f} us")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Print the placement diagram and analysis report."""
    from .analysis.explain import explain_placement
    scenario = figure1()
    print(explain_placement(scenario.placement, gbps(args.load),
                            packet_bytes=args.size))
    return 0


def cmd_optimise(args: argparse.Namespace) -> int:
    """Exhaustively search for the optimal placement."""
    from .analysis.placement_opt import optimise_placement
    from .harness.tables import render_table
    scenario = figure1()
    try:
        result = optimise_placement(
            scenario.chain, gbps(args.load),
            packet_bytes=args.size,
            ingress=scenario.placement.ingress,
            egress=scenario.placement.egress)
    except ScaleOutRequired:
        print(f"no feasible placement at {args.load} Gbps; scale out")
        return 1
    rows = [[nf.name, result.placement.device_of(nf.name).value]
            for nf in scenario.chain]
    print(render_table(["vNF", "device"], rows,
                       title=f"optimal placement at {args.load} Gbps"))
    print(f"predicted latency: "
          f"{as_usec(result.predicted_latency_s):.1f} us; "
          f"{result.feasible_count}/{result.total_count} placements "
          "feasible")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate and check every paper artefact in one call."""
    from .harness.paper import reproduce_all
    report_obj = reproduce_all(duration_s=args.duration)
    print(report_obj.render())
    return 0 if report_obj.all_passed else 1


def _chaos_campaign(args: argparse.Namespace):
    """The chaos campaign the ``chaos`` flags describe, wrapped in any
    ``--inject-worker-fault`` plan."""
    from .chaos.runner import ChaosCampaign, ChaosRunner
    from .chaos.schedule import ChaosConfig
    from .exec.faultinject import FaultInjectedCampaign, FaultPlan
    config = ChaosConfig(duration_s=args.duration,
                         migration_failure_rate=args.failure_rate,
                         max_device_kills=args.device_kills,
                         max_overload_windows=args.overloads,
                         resilient=args.resilient)
    campaign = ChaosCampaign(ChaosRunner(runs=args.runs, seed=args.seed,
                                         config=config))
    if args.inject_worker_fault:
        plan = FaultPlan.parse_all(args.inject_worker_fault)
        if args.workers < 2 and any(fault.fault in ("hang", "die")
                                    for fault in plan.faults):
            # In-process, a hang wedges and a die kills the CLI itself.
            raise ReproError("hang/die worker faults need --workers >= 2")
        campaign = FaultInjectedCampaign(campaign, plan)
    return campaign


def _chaos_report(args: argparse.Namespace, payloads: List[dict]) -> str:
    """The chaos per-run table, violations and verdict."""
    from .chaos.runner import ChaosReport
    return ChaosReport.from_payloads(payloads).render()


def _soak_campaign(args: argparse.Namespace):
    """The soak campaign the ``soak`` flags describe."""
    from .soak.campaign import SoakCampaign
    from .soak.fuzzer import default_space, parse_plant
    planted_index, planted = (None, None)
    if args.plant_bug is not None:
        planted_index, planted = parse_plant(args.plant_bug)
    return SoakCampaign(runs=args.runs, seed=args.seed,
                        space=default_space(args.duration),
                        planted=planted, planted_index=planted_index)


def _soak_report(args: argparse.Namespace, payloads: List[dict]) -> str:
    """The soak per-case table, violations and verdict."""
    from .soak.campaign import render_payloads
    return render_payloads(payloads)


def cmd_soak(args: argparse.Namespace) -> int:
    """Soak-fuzz chaos schedules under the online invariant engine."""
    from .soak.campaign import failing_payloads, soak_budget
    from .soak.fuzzer import SoakCase
    from .soak.invariants import invariant_catalogue
    from .soak.shrinker import (replay_reproducer, shrink_case,
                                write_reproducer)
    if args.list_invariants:
        for name, description in invariant_catalogue():
            print(f"{name}: {description}")
        return 0
    if args.replay is not None:
        outcome = replay_reproducer(args.replay)
        print(outcome.render())
        return 0 if outcome.match else 1
    outcome = _run_campaign(
        args, stop_when=soak_budget(args.stop_on_failure, args.max_seconds))
    if outcome.stopped:
        print(f"stopped early: {outcome.stopped}")
    failures = failing_payloads(outcome.payloads)
    if failures and args.shrink:
        case = SoakCase.from_dict(failures[0]["case"])
        print(f"shrinking failing case seed {case.seed} "
              f"({len(case.faults)} fault event(s))...")
        result = shrink_case(case)
        print(f"shrunk to {len(result.case.faults)} fault event(s) "
              f"in {result.executions} executions")
        write_reproducer(args.reproducer, result)
        print(f"reproducer written: {args.reproducer}")
        print(f"replay with: python -m repro soak "
              f"--replay {args.reproducer}")
    return _violations_exit(outcome.payloads)


def cmd_campaigns(args: argparse.Namespace) -> int:
    """List the registered campaign kinds."""
    from .exec.campaign import campaign_kinds
    for kind, description in campaign_kinds().items():
        print(f"{kind}: {description}")
    return 0


def cmd_crash_resume(args: argparse.Namespace) -> int:
    """SIGKILL a campaign mid-flight; verify bit-exact resume."""
    from .chaos.crashresume import run_crash_resume_check
    outcome = run_crash_resume_check(
        runs=args.runs, seed=args.seed, duration_s=args.duration,
        journal_path=args.journal, kill_after_runs=args.kill_after,
        workers=args.workers, campaign=args.campaign)
    print(outcome.render())
    return 0 if outcome.match else 1


def _reliability_campaign(args: argparse.Namespace):
    """The reliability grid the ``reliability`` flags describe."""
    from .reliability.campaign import ReliabilityCampaign
    return ReliabilityCampaign(
        scenario=args.scenario, policies=tuple(args.policies),
        runs=args.runs, seed=args.seed, duration_s=args.duration,
        budget_bytes=args.budget)


def _reliability_report(args: argparse.Namespace,
                        payloads: List[dict]) -> str:
    """One section per planned-and-measured run, then the verdict."""
    from .reliability.campaign import render_payloads
    return render_payloads(payloads)


def _resilience_campaign(args: argparse.Namespace):
    """The resilience repetitions the ``resilience`` flags describe."""
    from .resilience.campaign import ResilienceCampaign
    return ResilienceCampaign(args.scenario, runs=args.runs,
                              seed=args.seed, duration_s=args.duration)


def _resilience_report(args: argparse.Namespace,
                       payloads: List[dict]) -> str:
    """One report per scenario run."""
    from .resilience.campaign import render_payload
    return "\n".join(render_payload(payload) for payload in payloads)


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the simulation-safety linter over source paths."""
    from .analysis.lint.baseline import Baseline, DEFAULT_BASELINE_NAME
    from .analysis.lint.findings import Severity
    from .analysis.lint.runner import (format_json, format_text, lint_paths,
                                       rule_catalogue)
    from .analysis.lint.sarif import format_sarif
    if args.list_rules:
        print(rule_catalogue())
        return 0
    baseline = None
    if args.baseline is not None:
        baseline = Baseline.load(args.baseline)
    elif not args.no_baseline:
        from pathlib import Path
        default = Path(DEFAULT_BASELINE_NAME)
        if default.is_file():
            baseline = Baseline.load(default)
    report_on = None
    if args.changed:
        from .analysis.lint.incremental import changed_python_files
        report_on = changed_python_files(base=args.diff_base)
        if not report_on:
            print("no changed python files; nothing to lint")
            return 0
    report = lint_paths(args.paths, baseline=baseline,
                        project=args.project, report_on=report_on)
    if args.write_baseline is not None:
        from pathlib import Path
        document = Baseline.render(report.findings)
        Path(args.write_baseline).write_text(document)
        print(f"baseline with {len(report.findings)} entrie(s) written "
              f"to {args.write_baseline}; fill in each 'reason'")
        return 0
    if args.format == "json":
        rendered = format_json(report)
    elif args.format == "sarif":
        from .analysis.lint.project.engine import all_project_rules
        from .analysis.lint.visitor import all_rules
        rendered = format_sarif(
            report, sorted(all_rules() + list(all_project_rules()),
                           key=lambda rule: rule.code))
    else:
        rendered = format_text(report)
    print(rendered)
    code = report.exit_code(Severity.parse(args.fail_on))
    if args.fail_stale and report.stale_baseline:
        return 1
    return code


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PAM (SIGCOMM'18) reproduction experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 capacity table") \
       .set_defaults(func=cmd_table1)

    p_fig1 = sub.add_parser("figure1", help="the three migration choices")
    p_fig1.add_argument("--duration", type=float, default=0.01,
                        help="seconds of simulated traffic per run")
    p_fig1.set_defaults(func=cmd_figure1)

    p_fig2 = sub.add_parser("figure2", aliases=["sweep"],
                            help="packet-size sweep")
    p_fig2.add_argument("--sizes", type=int, nargs="+",
                        default=list(PAPER_SIZE_SWEEP))
    p_fig2.add_argument("--duration", type=float, default=0.008)
    p_fig2.add_argument("--chart", action="store_true",
                        help="append an ASCII bar chart")
    _add_campaign_args(p_fig2, _figure2_campaign, _figure2_report,
                       progress_flag=False)

    p_plan = sub.add_parser("plan", help="run a selection policy")
    p_plan.add_argument("--policy", default="pam",
                        choices=["pam", "naive", "noop"])
    p_plan.add_argument("--load", type=float, default=1.8,
                        help="offered load in Gbps")
    p_plan.set_defaults(func=cmd_plan)

    p_spike = sub.add_parser("spike", help="closed-loop overload episode")
    p_spike.add_argument("--policy", default="pam",
                         choices=["pam", "naive", "noop"])
    p_spike.add_argument("--base", type=float, default=1.3)
    p_spike.add_argument("--peak", type=float, default=1.8)
    p_spike.add_argument("--size", type=int, default=256)
    p_spike.add_argument("--duration", type=float, default=0.04)
    p_spike.set_defaults(func=cmd_spike)

    p_explain = sub.add_parser("explain",
                               help="diagram + analysis of a placement")
    p_explain.add_argument("--load", type=float, default=1.8)
    p_explain.add_argument("--size", type=int, default=256)
    p_explain.set_defaults(func=cmd_explain)

    p_opt = sub.add_parser("optimise",
                           help="exhaustive optimal placement search")
    p_opt.add_argument("--load", type=float, default=1.8)
    p_opt.add_argument("--size", type=int, default=256)
    p_opt.set_defaults(func=cmd_optimise)

    p_repro = sub.add_parser("reproduce",
                             help="regenerate and check every paper artefact")
    p_repro.add_argument("--duration", type=float, default=0.008)
    p_repro.set_defaults(func=cmd_reproduce)

    p_chaos = sub.add_parser("chaos",
                             help="randomized fault campaign with "
                                  "invariant checking")
    p_chaos.add_argument("--runs", type=int, default=20,
                         help="number of randomized scenarios")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="base seed; scenario i uses seed+i")
    p_chaos.add_argument("--duration", type=float, default=0.04,
                         help="simulated seconds per scenario")
    p_chaos.add_argument("--failure-rate", type=float, default=0.3,
                         help="per-attempt migration failure probability")
    p_chaos.add_argument("--device-kills", type=int, default=0,
                         help="max permanent SmartNIC deaths per scenario")
    p_chaos.add_argument("--overloads", type=int, default=0,
                         help="max sustained overload windows per scenario")
    p_chaos.add_argument("--resilient", action="store_true",
                         help="put the ResilientController in charge and "
                              "check the resilience invariants too")
    _add_campaign_args(p_chaos, _chaos_campaign, _chaos_report)
    p_chaos.add_argument("--inject-worker-fault", action="append",
                         metavar="IDX:FAULT[:ATTEMPTS]",
                         help="(testing) sabotage run IDX worker-side "
                              "with hang|die|garbage|error, optionally "
                              "only on the listed attempt numbers "
                              "(repeatable; exercises the supervisor; "
                              "hang and die need --workers >= 2)")

    p_soak = sub.add_parser("soak",
                            help="soak-fuzz random chaos schedules "
                                 "under the online invariant engine, "
                                 "shrinking any failure to a minimal "
                                 "reproducer")
    p_soak.add_argument("--runs", type=int, default=32,
                        help="fuzzed cases to draw (case i uses seed+i)")
    p_soak.add_argument("--seed", type=int, default=7,
                        help="base seed for the fuzzer")
    p_soak.add_argument("--duration", type=float, default=None,
                        metavar="SEC",
                        help="cap the fuzzed per-case simulated "
                             "duration (default: the space's own range)")
    _add_campaign_args(p_soak, _soak_campaign, _soak_report)
    p_soak.add_argument("--stop-on-failure", action="store_true",
                        help="stop the campaign at the first case with "
                             "a violation (writes a campaign-stop "
                             "record; the journal stays resumable)")
    p_soak.add_argument("--max-seconds", type=float, default=None,
                        metavar="SEC",
                        help="wall-clock budget; the campaign stops "
                             "cleanly once it is exhausted")
    p_soak.add_argument("--plant-bug", metavar="INDEX:BUG[:TRIGGER]",
                        help="(testing) plant a known bug into case "
                             "INDEX: conservation | protected-shed, "
                             "fired by TRIGGER faults (default crash)")
    p_soak.add_argument("--no-shrink", dest="shrink",
                        action="store_false",
                        help="report violations without shrinking the "
                             "first failing case")
    p_soak.add_argument("--reproducer", metavar="PATH",
                        default="soak-reproducer.json",
                        help="where the shrunk reproducer is written "
                             "(default: soak-reproducer.json)")
    p_soak.add_argument("--replay", metavar="PATH",
                        help="re-execute a reproducer file and compare "
                             "its violations bit-exact (no fuzzing)")
    p_soak.add_argument("--list-invariants", action="store_true",
                        help="print the runtime invariant catalogue "
                             "and exit")
    p_soak.set_defaults(func=cmd_soak, shrink=True)

    p_kinds = sub.add_parser("campaigns",
                             help="inspect the registered campaign "
                                  "kinds")
    p_kinds.add_argument("--list-kinds", action="store_true",
                         help="list every campaign kind with its "
                              "description (the default action)")
    p_kinds.set_defaults(func=cmd_campaigns)

    p_crash = sub.add_parser("crash-resume",
                             help="SIGKILL a journaled campaign "
                                  "mid-flight and verify the journal "
                                  "resume is bit-exact")
    p_crash.add_argument("--campaign", default="chaos",
                         metavar="KIND",
                         help="campaign kind to kill and resume "
                              "(chaos, reliability, or soak; see "
                              "`repro campaigns --list-kinds` for every "
                              "registered kind)")
    p_crash.add_argument("--runs", type=int, default=6)
    p_crash.add_argument("--seed", type=int, default=7)
    p_crash.add_argument("--duration", type=float, default=0.02,
                         help="simulated seconds per scenario")
    p_crash.add_argument("--kill-after", type=int, default=2,
                         help="SIGKILL once this many runs are journaled")
    p_crash.add_argument("--journal", metavar="PATH",
                         help="journal path (default: a temp directory)")
    p_crash.add_argument("--workers", type=int, default=1,
                         help="worker processes for the killed and "
                              "resumed campaigns (the reference stays "
                              "serial, so this also proves parallel == "
                              "serial)")
    p_crash.set_defaults(func=cmd_crash_resume)

    p_res = sub.add_parser("resilience",
                           help="run a canned failure/degradation "
                                "scenario end to end")
    p_res.add_argument("--scenario", default="device-kill",
                       choices=["device-kill", "overload"])
    p_res.add_argument("--seed", type=int, default=7)
    p_res.add_argument("--duration", type=float, default=None,
                       help="simulated seconds (scenario default if unset)")
    p_res.add_argument("--runs", type=int, default=1,
                       help="repetitions; run i uses seed+i")
    _add_campaign_args(p_res, _resilience_campaign, _resilience_report,
                       resume_flag="--resume-journal", progress_flag=False)

    p_rel = sub.add_parser("reliability",
                           help="joint migrate/replicate/shed planning "
                                "campaign: policy grid measured under a "
                                "failure scenario")
    p_rel.add_argument("--scenario", default="device-kill",
                       choices=["device-kill", "overload"])
    p_rel.add_argument("--policies", nargs="+",
                       default=["joint", "pam", "naive"],
                       choices=["joint", "pam", "naive", "scaleout"],
                       help="reliability policies to compare on paired "
                            "seeds")
    p_rel.add_argument("--runs", type=int, default=1,
                       help="repetitions per policy; rep i of every "
                            "policy uses seed+i")
    p_rel.add_argument("--seed", type=int, default=7)
    p_rel.add_argument("--duration", type=float, default=None,
                       help="simulated seconds (scenario default if "
                            "unset)")
    p_rel.add_argument("--budget", type=int, default=1 << 20,
                       metavar="BYTES",
                       help="warm-replica byte budget each policy may "
                            "spend (default 1 MiB)")
    _add_campaign_args(p_rel, _reliability_campaign, _reliability_report,
                       resume_flag="--resume-journal")

    p_lint = sub.add_parser("lint",
                            help="simulation-safety static analysis")
    p_lint.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    p_lint.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text")
    p_lint.add_argument("--fail-on", choices=["warning", "error"],
                        default="error",
                        help="lowest severity that fails the run")
    p_lint.add_argument("--project", action="store_true",
                        help="also run whole-program rules (FLOW5xx "
                             "seed provenance, UNIT21x unit flow, "
                             "JRN601 journal purity)")
    p_lint.add_argument("--changed", action="store_true",
                        help="report only on files git says changed "
                             "(analysis still covers every path)")
    p_lint.add_argument("--diff-base", default="HEAD", metavar="REV",
                        help="revision --changed diffs against "
                             "(default: HEAD)")
    p_lint.add_argument("--fail-stale", action="store_true",
                        help="exit nonzero when baseline entries match "
                             "nothing (CI hygiene gate)")
    p_lint.add_argument("--baseline",
                        help="baseline JSON of accepted findings "
                             "(default: ./lint-baseline.json if present)")
    p_lint.add_argument("--no-baseline", action="store_true",
                        help="ignore any default baseline file")
    p_lint.add_argument("--write-baseline", metavar="PATH",
                        help="write current findings as a fresh baseline "
                             "and exit 0")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
