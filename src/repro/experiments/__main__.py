"""Command-line entry point: regenerate the paper's figures.

Usage::

    python -m repro.experiments                 # all figures, print tables
    python -m repro.experiments --figure 3 7    # a subset
    python -m repro.experiments --out results/  # also write one file each
    python -m repro.experiments --figure 6 --trace fig6.json
                                                # + Chrome trace + metrics
    python -m repro.experiments --figure 6 --report fig6.report.json
                                                # + trace analytics report
    python -m repro.experiments --resilience --faults "mid-run-crash=0.2"
                                                # retry-policy recovery table
    python -m repro.experiments --resilience --campaign-dir runs/
    python -m repro.experiments --resilience --campaign-dir runs/ --resume
                                                # checkpointed campaign, resumed
    python -m repro.experiments --serve         # asyncio campaign service demo
    python -m repro.experiments --serve --campaigns 6 --service-workers 3

``--trace`` attaches a :class:`~repro.observability.TraceRecorder` around
every selected driver and writes one combined Chrome ``trace_event`` JSON
(load it at ``about:tracing`` / https://ui.perfetto.dev); a metrics
snapshot goes to ``<out>.metrics.json`` next to it.  ``--report``
additionally runs the trace analytics
(:mod:`repro.observability.analysis`) over the capture and writes the
per-campaign reports — critical path, wait-time attribution, stragglers,
utilization — in the standard report file format, ready for
``python -m repro.observability diff``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments import (
    fig1_gauge_matrix,
    fig2_manual_vs_skel,
    fig3_overhead_sweep,
    fig4_variation,
    fig5_policies,
    fig6_timeline,
    fig7_campaign,
    resilience_campaign,
    resilience_recovery,
)
from repro.experiments.harness import DEFAULT_FAULTS

DRIVERS = {
    1: fig1_gauge_matrix,
    2: fig2_manual_vs_skel,
    3: fig3_overhead_sweep,
    4: fig4_variation,
    5: fig5_policies,
    6: fig6_timeline,
    7: fig7_campaign,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the evaluation figures of 'Reusability First: "
        "Toward FAIR Workflows' (CLUSTER 2021).",
    )
    parser.add_argument(
        "--figure",
        type=int,
        nargs="+",
        choices=sorted(DRIVERS),
        default=sorted(DRIVERS),
        help="figure numbers to regenerate (default: all)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to write one table file per figure",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="OUT.json",
        help="record every run into one Chrome trace_event JSON "
        "(metrics snapshot lands beside it as OUT.metrics.json)",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="REPORTS.json",
        help="analyze the captured event stream and write per-campaign "
        "trace analytics reports (implies recording, even without --trace)",
    )
    parser.add_argument(
        "--resilience",
        action="store_true",
        help="run the resilience experiment instead of the numbered figures",
    )
    parser.add_argument(
        "--faults",
        default=DEFAULT_FAULTS,
        metavar="KIND=RATE,...",
        help="fault mix for --resilience: comma-separated kind=probability "
        "pairs over crash-on-start, mid-run-crash, straggler, transient-io "
        f"(default: {DEFAULT_FAULTS})",
    )
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=17,
        help="seed for the deterministic fault injector (default: 17)",
    )
    parser.add_argument(
        "--max-allocations",
        type=int,
        default=4,
        help="with --resilience --campaign-dir: allocation budget per "
        "invocation — set low to leave work pending, then --resume (default: 4)",
    )
    parser.add_argument(
        "--campaign-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="with --resilience: record campaign progress in a Cheetah "
        "directory under DIR (enables --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --resilience --campaign-dir: skip runs already recorded "
        "DONE and execute exactly the remainder",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the asyncio campaign-service demo instead of the numbered "
        "figures: concurrent multi-tenant submissions with priorities, one "
        "cancellation, fair-share interleaving (see docs/campaign_service.md)",
    )
    parser.add_argument(
        "--campaigns",
        type=int,
        default=4,
        help="with --serve: number of concurrent campaign submissions "
        "(default: 4)",
    )
    parser.add_argument(
        "--service-workers",
        type=int,
        default=2,
        help="with --serve: CampaignService worker-pool bound — how many "
        "submissions execute concurrently (default: 2)",
    )
    args = parser.parse_args(argv)

    if args.resume and args.campaign_dir is None:
        parser.error("--resume requires --campaign-dir")

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    recorder = None
    if args.trace is not None or args.report is not None:
        from repro.observability import TraceRecorder

        recorder = TraceRecorder()

    def run_driver(label: str, driver):
        t0 = time.perf_counter()
        result = driver()
        elapsed = time.perf_counter() - t0
        text = result.to_text()
        print(text)
        print(f"[{label} regenerated in {elapsed:.1f}s]\n")
        if args.out is not None:
            path = args.out / f"{label}.txt"
            path.write_text(text + "\n")
            print(f"[written to {path}]\n")

    if args.serve:
        from repro.experiments.service_demo import campaign_service_demo

        selected = [
            (
                "campaign-service",
                lambda: campaign_service_demo(
                    campaigns=args.campaigns,
                    max_workers=args.service_workers,
                ),
            )
        ]
    elif args.resilience:
        if args.campaign_dir is not None:
            selected = [
                (
                    "resilience-campaign",
                    lambda: resilience_campaign(
                        args.campaign_dir,
                        faults=args.faults,
                        fault_seed=args.fault_seed,
                        max_allocations=args.max_allocations,
                        resume=args.resume,
                    ),
                )
            ]
        else:
            selected = [
                (
                    "resilience-recovery",
                    lambda: resilience_recovery(
                        faults=args.faults, fault_seed=args.fault_seed
                    ),
                )
            ]
    else:
        selected = [
            (f"figure{number}", DRIVERS[number]) for number in args.figure
        ]

    if recorder is not None:
        with recorder.recording():
            for label, driver in selected:
                run_driver(label, driver)
        try:
            recorder.validate()
        except ValueError as exc:  # a capture stopped mid-span; still usable
            print(f"[trace contract warning: {exc}]")
        if args.trace is not None:
            trace_path = recorder.write_chrome_trace(args.trace)
            snapshot = recorder.metrics.snapshot()
            metrics_path = trace_path.with_suffix(".metrics.json")
            metrics_path.write_text(json.dumps(snapshot, indent=2) + "\n")
            counters = snapshot["counters"]
            print(
                f"[trace: {len(recorder.events)} events -> {trace_path}; "
                f"tasks launched={counters.get('tasks.launched', 0)} "
                f"done={counters.get('tasks.done', 0)}; "
                f"metrics -> {metrics_path}]"
            )
        if args.report is not None:
            from repro.observability.analysis import analyze_events, write_reports

            reports = analyze_events(recorder.events)
            write_reports(args.report, reports)
            for r in reports:
                h = r.headline()
                print(
                    f"[report: {h['campaign']}: makespan {h['makespan']:.0f}s, "
                    f"utilization {h['utilization']:.1%}, "
                    f"{h['stragglers']} straggler(s)]"
                )
            print(f"[{len(reports)} report(s) -> {args.report}]")
    else:
        for label, driver in selected:
            run_driver(label, driver)
    return 0


if __name__ == "__main__":
    sys.exit(main())
