"""Command-line interface: ``python -m repro <command>``.

Eight commands cover the workflows an operator would actually run:

* ``characterize`` — the Section II study on a (synthetic or loaded) fleet.
* ``predict``      — full-ATM prediction accuracy (Fig. 9 style).
* ``resize``       — oracle resizing comparison across algorithms (Fig. 8).
* ``online``       — the rolling day-by-day controller (incremental:
  warm-started refits, drift-gated re-search, parallel boxes).
* ``tickets``      — the incident-operations loop: monitor → incidents →
  route → resolve, with SLA clocks and store-served evidence bundles.
* ``testbed``      — the simulated MediaWiki experiment (Figs. 12/13).
* ``generate``     — write a synthetic fleet trace to CSV.
* ``shard``        — build a memory-mapped shard store (synthetic or from
  CSV); ``--shards DIR`` then feeds it to the fleet commands without ever
  materializing the fleet in RAM.

Each command prints the same fixed-width tables the benchmarks produce.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import obs
from repro.benchhelpers.tables import print_table
from repro.core import AtmConfig, run_fleet_atm, run_online_fleet
from repro.core import runtime
from repro.prediction.registry import available_temporal_models
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm, evaluate_fleet_resizing
from repro.store import STORE_ENV_VAR, load_fleet_shards
from repro.tickets import DEFAULT_THRESHOLDS, correlation_cdfs, fleet_ticket_summary
from repro.tickets.ops.assign import ASSIGN_STRATEGIES, AssignPolicy
from repro.tickets.ops.route import SlaPolicy
from repro.tickets.policy import TicketPolicy
from repro.trace import (
    FleetConfig,
    generate_fleet,
    load_fleet_csv,
    resolve_scenario,
    save_fleet_csv,
    shard_fleet_csv,
)
from repro.trace.model import Resource

__all__ = ["main", "build_parser"]


def _scenario_from_args(args: argparse.Namespace):
    """Resolve ``--scenario`` (default ``paper-fig2``) to a spec."""
    return resolve_scenario(getattr(args, "scenario", None))


def _fleet_config(args: argparse.Namespace) -> FleetConfig:
    """The synthetic fleet selected by ``--boxes``/``--days``/``--seed``."""
    return FleetConfig(n_boxes=args.boxes, days=args.days, seed=args.seed)


def _fleet_from_args(args: argparse.Namespace):
    if getattr(args, "shards", None):
        return load_fleet_shards(args.shards)
    if getattr(args, "input", None):
        return load_fleet_csv(args.input)
    return generate_fleet(_fleet_config(args), scenario=_scenario_from_args(args))


def _atm_config(args: argparse.Namespace) -> AtmConfig:
    """The ATM configuration selected by ``--method``/``--temporal``."""
    return AtmConfig.with_clustering(
        ClusteringMethod(args.method), temporal_model=args.temporal
    )


def _print_degradations(report) -> None:
    """Surface a run's degradation ladder events, if any."""
    if report.ok:
        return
    print_table(
        "Degraded boxes (graceful-degradation ladder)",
        ["box", "stage", "rung", "reason"],
        [[e.box_id, e.stage, e.rung, e.reason[:50]] for e in report.events],
    )


def _cmd_characterize(args: argparse.Namespace) -> int:
    fleet = _fleet_from_args(args)
    summary = fleet_ticket_summary(fleet, first_windows=96)
    rows = []
    for resource in (Resource.CPU, Resource.RAM):
        for threshold in DEFAULT_THRESHOLDS:
            row = summary.row(resource, threshold)
            rows.append(
                [
                    resource.value,
                    int(threshold),
                    row["pct_boxes"],
                    row["mean_tickets"],
                    row["std_tickets"],
                    row["mean_culprits"],
                ]
            )
    print_table(
        f"Ticket characterization — {fleet.n_boxes} boxes / {fleet.n_vms} VMs",
        ["res", "thr%", "%boxes", "tickets", "std", "culprits"],
        rows,
    )
    means = correlation_cdfs(fleet, first_windows=96).means()
    print_table(
        "Spatial correlation (mean of per-box medians)",
        ["measure", "value"],
        [[k, v] for k, v in means.items()],
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    fleet = _fleet_from_args(args)
    config = _atm_config(args)
    result = run_fleet_atm(fleet, config, jobs=args.jobs, resume=args.resume)
    print_table(
        f"ATM prediction — {args.method} clustering, {args.temporal} temporal model",
        ["metric", "value"],
        [
            ["boxes evaluated", len(result.accuracies)],
            ["signature ratio %", 100.0 * result.mean_signature_ratio()],
            ["mean APE % (all windows)", result.mean_ape()],
            ["mean APE % (peak windows)", result.mean_ape(peak=True)],
        ],
    )
    rows = []
    for algorithm in ResizingAlgorithm:
        rows.append(
            [
                algorithm.value,
                result.mean_reduction(Resource.CPU, algorithm),
                result.mean_reduction(Resource.RAM, algorithm),
            ]
        )
    print_table(
        "Ticket reduction with predicted demands (%)",
        ["algorithm", "CPU", "RAM"],
        rows,
    )
    _print_degradations(result.report)
    return 0


def _cmd_resize(args: argparse.Namespace) -> int:
    fleet = _fleet_from_args(args)
    policy = TicketPolicy(threshold_pct=args.threshold)
    reduction = evaluate_fleet_resizing(
        fleet, policy, tuple(ResizingAlgorithm), eval_windows=96,
        epsilon_pct=args.epsilon, jobs=args.jobs, resume=args.resume,
    )
    rows = []
    for algorithm in ResizingAlgorithm:
        for resource in (Resource.CPU, Resource.RAM):
            rows.append(
                [
                    algorithm.value,
                    resource.value,
                    reduction.mean_reduction(resource, algorithm),
                    reduction.std_reduction(resource, algorithm),
                ]
            )
    print_table(
        f"Oracle resizing at the {args.threshold:.0f}% threshold (ε={args.epsilon}%)",
        ["algorithm", "res", "mean %", "std"],
        rows,
    )
    _print_degradations(reduction.report)
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    fleet = _fleet_from_args(args)
    config = _atm_config(args)
    result = run_online_fleet(
        fleet,
        config,
        refit_every_steps=args.refit_every,
        drift_threshold=args.drift_threshold,
        jobs=args.jobs,
    )
    rows = [
        [
            run.box_id,
            len(run.steps),
            run.mean_ape(),
            run.total_tickets(static=True),
            run.total_tickets(),
            run.reduction_percent(),
            len(run.degradations),
        ]
        for run in result.values()
    ]
    print_table(
        f"Online ATM — rolling controller, refit cap {args.refit_every} "
        f"({args.temporal} temporal model)",
        ["box", "steps", "APE %", "static", "ATM", "reduct %", "degr"],
        rows,
    )
    print_table(
        "Online ATM — fleet summary",
        ["metric", "value"],
        [
            ["boxes managed", len(result)],
            ["tickets (static)", result.total_tickets(static=True)],
            ["tickets (ATM)", result.total_tickets()],
            ["reduction %", result.reduction_percent()],
        ],
    )
    _print_degradations(result.report)
    return 0


def _cmd_tickets(args: argparse.Namespace) -> int:
    from repro.tickets.ops import OpsConfig, ScoringPolicy, run_fleet_ops

    fleet = _fleet_from_args(args)
    config = OpsConfig(
        policy=TicketPolicy(threshold_pct=args.threshold),
        max_gap_windows=args.max_gap,
        scoring=ScoringPolicy(),
        assign=AssignPolicy(n_queues=args.queues, strategy=args.strategy),
        sla=SlaPolicy(
            ack_windows=args.ack_windows, resolve_windows=args.resolve_windows
        ),
        atm=_atm_config(args) if args.atm_evidence else None,
    )
    result = run_fleet_ops(fleet, config, jobs=args.jobs, resume=args.resume)
    ack_min, resolve_min = config.sla.deadlines_minutes(config.policy)
    ratio = result.tickets_per_incident()
    spatial = result.spatial_incident_share()
    print_table(
        f"Ticket operations — {result.boxes} boxes, "
        f"{args.threshold:.0f}% threshold, SLA ack {ack_min} min / "
        f"resolve {resolve_min} min",
        ["metric", "value"],
        [
            ["tickets", result.tickets],
            ["incidents", result.incidents],
            ["tickets/incident", "n/a" if ratio is None else ratio],
            ["spatial share %", "n/a" if spatial is None else 100.0 * spatial],
            ["evidence bundles", result.evidence_bundles],
            ["peak open incidents", result.max_open],
            ["ack breaches", result.ack_breaches],
            ["resolve breaches", result.resolve_breaches],
        ],
    )
    print_table(
        f"Routing — {config.assign.n_queues} queues ({config.assign.strategy})",
        ["queue", "incidents", "breaches"],
        [
            [queue, count, result.queue_breaches[queue]]
            for queue, count in enumerate(result.queue_counts)
        ],
    )
    if result.top_incidents:
        print_table(
            "Top incidents by triage score",
            ["box", "windows", "tk", "vms", "score", "q", "ack", "rslv", "SLA"],
            [
                [
                    row.box_id,
                    f"{row.start_window}-{row.end_window}",
                    row.n_tickets,
                    row.n_vms,
                    row.score,
                    row.queue,
                    row.ack_window,
                    row.resolve_window,
                    "BREACH" if (row.ack_breached or row.resolve_breached) else "ok",
                ]
                for row in result.top_incidents
            ],
        )
    _print_degradations(result.report)
    print(f"assignment digest {result.assignment_digest}")
    print(f"evidence digest   {result.evidence_digest}")
    return 0


def _cmd_testbed(args: argparse.Namespace) -> int:
    from repro.testbed.experiment import TestbedConfig, run_testbed_experiment

    config = TestbedConfig(duration_windows=args.hours * 4, seed=args.seed)
    original = run_testbed_experiment(resizing=False, config=config)
    resized = run_testbed_experiment(resizing=True, config=config)
    print_table(
        "MediaWiki testbed — tickets",
        ["run", "tickets"],
        [["original", original.tickets()], ["ATM resized", resized.tickets()]],
    )
    rows = []
    for wiki in ("wiki-one", "wiki-two"):
        rows.append(
            [
                wiki,
                1000.0 * original.mean_response_time(wiki),
                1000.0 * resized.mean_response_time(wiki),
                original.mean_throughput(wiki),
                resized.mean_throughput(wiki),
            ]
        )
    print_table(
        "Application performance",
        ["wiki", "RT orig ms", "RT resz ms", "TP orig", "TP resz"],
        rows,
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    fleet = _fleet_from_args(args)
    save_fleet_csv(fleet, args.output)
    print(
        f"wrote {args.output}: {fleet.n_boxes} boxes, {fleet.n_vms} VMs, "
        f"{fleet.boxes[0].n_windows} windows"
    )
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.store import generate_fleet_shards

    if args.input:
        manifest = shard_fleet_csv(args.input, args.output).manifest
    else:
        # Streaming: boxes are generated and written one at a time, so the
        # store can exceed RAM even at build time.  --jobs fans generation
        # across processes; the resulting store is byte-identical.
        manifest = generate_fleet_shards(
            _fleet_config(args), args.output, jobs=args.jobs,
            scenario=_scenario_from_args(args),
        )
    scenario_note = ""
    if manifest.scenario is not None:
        scenario_note = f" [scenario {manifest.scenario['name']}]"
    print(
        f"wrote shard store {args.output}: {manifest.n_boxes} boxes, "
        f"{manifest.n_vms} VMs, {manifest.total_bytes / 1e6:.1f} MB"
        f"{scenario_note}"
    )
    return 0


def _add_generator_arguments(
    parser: argparse.ArgumentParser,
    boxes: int,
    days: int,
    input_help: Optional[str] = None,
) -> None:
    """``--boxes``/``--days``/``--seed`` of the synthetic fleet, plus
    ``--input`` (a fleet CSV instead) when ``input_help`` is set."""
    parser.add_argument("--boxes", type=int, default=boxes, help="synthetic fleet size")
    parser.add_argument("--days", type=int, default=days, help="trace length in days")
    parser.add_argument("--seed", type=int, default=20160628, help="generator seed")
    if input_help:
        parser.add_argument("--input", type=str, default=None, help=input_help)


def _add_fleet_arguments(parser: argparse.ArgumentParser, days: int) -> None:
    """Where a fleet command's fleet comes from: generated, CSV or shards."""
    _add_generator_arguments(
        parser, boxes=40, days=days,
        input_help="load a fleet CSV instead of generating one",
    )
    parser.add_argument(
        "--shards", type=str, default=None, metavar="DIR",
        help="open a memory-mapped shard store (see the `shard` command) "
        "instead of generating or loading a fleet; workers map per-box "
        "slices, nothing is materialized in RAM",
    )
    _add_scenario_argument(parser)


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", type=str, default=None, metavar="NAME|SPEC.json",
        help="trace scenario to render the synthetic fleet under: a named "
        "scenario (see repro.trace.NAMED_SCENARIOS, e.g. paper-fig2, "
        "web-diurnal, batch, spiky, ramp, weekend-heavy, mixed, "
        "regime-shift) or a path to a ScenarioSpec JSON file "
        "(default: paper-fig2, the calibrated profile)",
    )


def _add_model_arguments(
    parser: argparse.ArgumentParser, of_run: Optional[str] = None
) -> None:
    """``--method``/``--temporal``; ``of_run`` names the ATM run they select."""
    parser.add_argument(
        "--method",
        choices=[m.value for m in ClusteringMethod],
        default="cbc",
        help="signature clustering method" + (f" of {of_run}" if of_run else ""),
    )
    parser.add_argument(
        "--temporal",
        choices=list(available_temporal_models()),
        default="neural",
        help=f"temporal model of {of_run}"
        if of_run
        else "temporal model for the signature series",
    )


def _add_jobs_argument(
    parser: argparse.ArgumentParser,
    help_text: str = "worker processes for the per-box fan-out "
    "(default: $REPRO_JOBS or 1 = serial; 0 = all cores)",
) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N", help=help_text)


def _add_run_arguments(parser: argparse.ArgumentParser, resume: bool = True) -> None:
    """A fleet run's ``--jobs``/``--metrics-json``/``--store`` (and ``--resume``)."""
    _add_jobs_argument(parser)
    parser.add_argument(
        "--metrics-json", type=str, default=None, metavar="PATH",
        help="write the run's pipeline metrics (repro.metrics/v1 schema: "
        "counters + span timers + gauges, incl. peak RSS and bytes "
        "mapped) to PATH as JSON",
    )
    parser.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="persistent artifact store directory (default: $REPRO_STORE; "
        "unset = no caching)",
    )
    if resume:
        parser.add_argument(
            "--resume", action="store_true",
            help="serve boxes whose result artifacts are already materialized "
            "in the store instead of recomputing them (requires --store or "
            "$REPRO_STORE; aggregates are bit-identical to a fresh run)",
        )


def _apply_store_args(args: argparse.Namespace) -> None:
    """Install ``--store`` into the environment; check the flags needing one.

    The store root travels via ``REPRO_STORE`` rather than a parameter so
    forked pool workers inherit it with no extra plumbing.
    """
    store = getattr(args, "store", None)
    if store:
        os.environ[STORE_ENV_VAR] = store
    for flag in ("resume", "atm_evidence"):
        if getattr(args, flag, False) and not runtime.store_dir():
            name = "--" + flag.replace("_", "-")
            raise SystemExit(f"{name} requires --store or $REPRO_STORE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATM (Active Ticket Managing) — DSN 2016 reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    characterize = sub.add_parser(
        "characterize", help="Section II ticket/correlation study"
    )
    _add_fleet_arguments(characterize, days=1)
    characterize.set_defaults(func=_cmd_characterize)

    predict = sub.add_parser("predict", help="full-ATM prediction + reduction")
    _add_fleet_arguments(predict, days=6)
    _add_run_arguments(predict)
    _add_model_arguments(predict)
    predict.set_defaults(func=_cmd_predict)

    resize = sub.add_parser("resize", help="oracle resizing comparison")
    _add_fleet_arguments(resize, days=1)
    _add_run_arguments(resize)
    resize.add_argument("--threshold", type=float, default=60.0)
    resize.add_argument("--epsilon", type=float, default=5.0)
    resize.set_defaults(func=_cmd_resize)

    online = sub.add_parser(
        "online", help="rolling online controller (day-by-day active sizing)"
    )
    _add_fleet_arguments(online, days=7)
    # Online runs warm-resume implicitly through --store (every refit's
    # parameter state is content-addressed), so no explicit --resume flag.
    _add_run_arguments(online, resume=False)
    online.add_argument(
        "--refit-every", type=int, default=1, dest="refit_every", metavar="K",
        help="cadence cap on the signature re-search: re-run at least "
        "every K steps (default 1 = every step, the legacy path); drift "
        "can pull the search forward, so a large cap is safe",
    )
    online.add_argument(
        "--drift-threshold", type=float, default=None, dest="drift_threshold",
        metavar="X",
        help="drift score (rise in spatial reconstruction error over the "
        "fit-time baseline) above which the signature search re-runs "
        "early (default 0.15; only consulted between cadence refits; "
        "inf gives the pure cadence)",
    )
    _add_model_arguments(online)
    online.set_defaults(func=_cmd_online)

    tickets = sub.add_parser(
        "tickets",
        help="incident operations: monitor → incidents → route → resolve",
    )
    _add_fleet_arguments(tickets, days=1)
    _add_run_arguments(tickets)
    tickets.add_argument(
        "--threshold", type=float, default=60.0,
        help="ticket threshold in percent of allocation (Eq. 6 alpha)",
    )
    tickets.add_argument(
        "--max-gap", type=int, default=1, dest="max_gap", metavar="G",
        help="windows of silence that still merge tickets into one incident",
    )
    tickets.add_argument(
        "--queues", type=int, default=AssignPolicy.n_queues, metavar="N",
        help="responder queues (default: %(default)s)",
    )
    tickets.add_argument(
        "--strategy", choices=list(ASSIGN_STRATEGIES), default="round_robin",
        help="incident → queue assignment strategy",
    )
    tickets.add_argument(
        "--ack-windows", type=int, default=SlaPolicy.ack_windows,
        dest="ack_windows", metavar="W",
        help="SLA ack deadline in ticketing windows (default: %(default)s)",
    )
    tickets.add_argument(
        "--resolve-windows", type=int, default=SlaPolicy.resolve_windows,
        dest="resolve_windows", metavar="W",
        help="SLA resolve deadline in ticketing windows (default: %(default)s)",
    )
    tickets.add_argument(
        "--atm-evidence", action="store_true", dest="atm_evidence",
        help="attach the forecast and resize allocations a prior `predict` "
        "run materialized in the artifact store to each in-horizon "
        "incident's evidence bundle (requires --store or $REPRO_STORE; "
        "--method/--temporal must match the predict run)",
    )
    _add_model_arguments(tickets, of_run="the ATM run --atm-evidence reads")
    tickets.set_defaults(func=_cmd_tickets)

    testbed = sub.add_parser("testbed", help="simulated MediaWiki experiment")
    testbed.add_argument("--hours", type=int, default=6)
    testbed.add_argument("--seed", type=int, default=42)
    testbed.set_defaults(func=_cmd_testbed)

    generate = sub.add_parser("generate", help="write a synthetic fleet CSV")
    generate.add_argument("output", type=str, help="output CSV path")
    _add_generator_arguments(generate, boxes=20, days=7)
    _add_scenario_argument(generate)
    generate.set_defaults(func=_cmd_generate)

    shard = sub.add_parser(
        "shard", help="build a memory-mapped shard store (synthetic or from CSV)"
    )
    shard.add_argument("output", type=str, help="shard store directory")
    _add_generator_arguments(
        shard, boxes=20, days=7,
        input_help="convert this fleet CSV instead of generating synthetically",
    )
    _add_jobs_argument(
        shard,
        help_text="worker processes for synthetic generation (default: $REPRO_JOBS "
        "or 1 = serial; 0 = all cores); the store is byte-identical at any "
        "worker count",
    )
    _add_scenario_argument(shard)
    shard.set_defaults(func=_cmd_shard)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    metrics_path = getattr(args, "metrics_json", None)
    if metrics_path:
        obs.reset_metrics()  # scope the snapshot to this command
    try:
        _apply_store_args(args)
        code = args.func(args)
    finally:
        # Write the snapshot even when the command raises: a degraded or
        # failing run is exactly when the breach/degradation counters are
        # worth having on disk.
        if metrics_path:
            obs.write_metrics_json(metrics_path)
            print(f"wrote metrics to {metrics_path}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
