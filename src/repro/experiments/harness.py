"""Per-figure experiment drivers.

Substitutions relative to the paper's testbed are documented in
``DESIGN.md`` §5; the quantities and shapes each function reports are the
ones the corresponding figure shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import format_table


@dataclass
class ExperimentResult:
    """Tabular result of one figure reproduction."""

    name: str
    description: str
    headers: tuple
    rows: list
    notes: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_text(self) -> str:
        parts = [f"== {self.name} ==", self.description, ""]
        parts.append(format_table(self.headers, self.rows))
        if self.notes:
            parts.append("")
            parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)


def run_with_trace(driver, *args, **kwargs):
    """Run a figure driver (or any callable) with a trace recorder attached.

    The recorder captures every event bus created inside the call — the
    drivers build their simulated clusters internally, so per-bus
    attachment is not an option here.  Returns ``(result, recorder)``;
    dump the capture with ``recorder.write_chrome_trace(path)`` and read
    the aggregates from ``recorder.metrics.snapshot()``.  This is the
    engine behind ``python -m repro.experiments --trace``.

    Example
    -------
    >>> from repro.experiments import fig6_timeline, run_with_trace
    >>> result, rec = run_with_trace(
    ...     fig6_timeline, n_tasks=8, nodes=4, walltime=7200.0, seed=3
    ... )
    >>> rec.metrics.snapshot()["counters"]["tasks.launched"] > 0
    True
    """
    from repro.observability import TraceRecorder

    recorder = TraceRecorder()
    with recorder.recording():
        result = driver(*args, **kwargs)
    return result, recorder


# ---------------------------------------------------------------------------
# Figure 1 — the gauge matrix


def fig1_gauge_matrix() -> ExperimentResult:
    """The six-gauge tier matrix plus three exemplar component assessments."""
    from repro.apps.gwas.workflow import workflow_components_before_after
    from repro.gauges import Gauge, assess, tier_matrix

    rows = list(tier_matrix())
    before, after = workflow_components_before_after()
    assessments = {
        "black-box script": assess(before).profile,
        "skel+cheetah workflow": assess(after).profile,
    }
    notes = [
        f"{name}: " + ", ".join(f"{g.value}={p.tier(g).name}" for g in Gauge)
        for name, p in assessments.items()
    ]
    return ExperimentResult(
        name="Figure 1 — gauge properties",
        description="Example properties for assessing workflow automatability "
        "using the six gauge principles.",
        headers=("gauge", "tier", "name", "description"),
        rows=rows,
        notes=notes,
        extra={"assessments": assessments},
    )


# ---------------------------------------------------------------------------
# Figure 2 — manual vs Skel script


def fig2_manual_vs_skel(num_files: int = 250, group_size: int = 100) -> ExperimentResult:
    """Manual-intervention fields: traditional script vs Skel model."""
    from repro.apps.gwas.workflow import manual_vs_generated, workflow_components_before_after
    from repro.gauges import builtin_scenarios, score

    counts = manual_vs_generated(num_files, group_size)
    before, after = workflow_components_before_after()
    scenario = builtin_scenarios()["new-dataset"]
    debt_before = score(before, scenario)
    debt_after = score(after, scenario)
    rows = [
        (
            "traditional",
            counts["traditional_edits_per_configuration"],
            counts["traditional_unique_fields"],
            debt_before.manual_minutes,
        ),
        ("skel-generated", counts["skel_edits_per_configuration"], 1, debt_after.manual_minutes),
    ]
    return ExperimentResult(
        name="Figure 2 — traditional vs Skel-based script",
        description=f"Manual edits per new run configuration "
        f"({num_files} files, sub-pastes of {group_size}).",
        headers=("workflow", "manual edits/config", "distinct fields", "debt (min, new-dataset)"),
        rows=rows,
        notes=[f"reduction factor: {counts['reduction_factor']:.0f}x"],
        extra=counts,
    )


# ---------------------------------------------------------------------------
# Figure 3 — checkpoints vs permitted I/O overhead


def fig3_overhead_sweep(
    overheads=(0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50),
    seed=7,
    config=None,
) -> ExperimentResult:
    """Checkpoints written as a function of the declared overhead budget."""
    from repro.apps.simulation.run import RunConfig, overhead_sweep

    config = config or RunConfig()
    series = overhead_sweep(overheads, config=config, seed=seed)
    rows = [(f"{o:.0%}", n, config.timesteps) for o, n in series]
    counts = [n for _o, n in series]
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    return ExperimentResult(
        name="Figure 3 — checkpoints vs permitted I/O overhead",
        description=f"Overhead-budget policy on the reaction-diffusion benchmark "
        f"({config.timesteps} timesteps, {config.checkpoint_bytes / 1e12:.0f} TB/step, "
        f"{config.ranks} ranks / {config.nodes} nodes, simulated PFS).",
        headers=("max I/O overhead", "checkpoints written", "max possible"),
        rows=rows,
        notes=[f"monotone non-decreasing: {monotone}"],
        extra={"series": series, "monotone": monotone},
    )


# ---------------------------------------------------------------------------
# Figure 4 — run-to-run variation at a fixed budget


def fig4_variation(n_runs: int = 8, overhead: float = 0.10, seed=11, config=None) -> ExperimentResult:
    """Checkpoint-count variation across runs at one overhead budget."""
    from repro.apps.simulation.run import variation_study

    reports = variation_study(n_runs, overhead=overhead, seed=seed, config=config)
    rows = [
        (
            f"run-{i}",
            r.checkpoints_written,
            f"{r.config.compute_intensity:.2f}",
            f"{r.overhead_fraction:.1%}",
        )
        for i, r in enumerate(reports)
    ]
    counts = [r.checkpoints_written for r in reports]
    return ExperimentResult(
        name="Figure 4 — checkpoint variation at 10% budget",
        description=f"{n_runs} runs, overhead budget {overhead:.0%}: counts track "
        "application behaviour and filesystem state.",
        headers=("run", "checkpoints", "compute intensity", "achieved overhead"),
        rows=rows,
        notes=[
            f"spread: min={min(counts)}, max={max(counts)}, std={np.std(counts):.2f}"
        ],
        extra={"counts": counts, "reports": reports},
    )


# ---------------------------------------------------------------------------
# Figure 5 — generated communication + swappable selection policies


def _policy_catalog(rng_seed: int = 0):
    from repro.dataflow.policies import (
        DirectSelection,
        ForwardAll,
        SampleEveryK,
        SlidingWindowCount,
        SlidingWindowTime,
    )

    return {
        "forward-all": lambda: ForwardAll(),
        "window-count(16/8)": lambda: SlidingWindowCount(16, stride=8),
        "window-time(10.0)": lambda: SlidingWindowTime(10.0),
        "sample-every-10": lambda: SampleEveryK(10),
        "direct-selection": lambda: DirectSelection(lambda it: it.payload["v"] % 50 == 0),
    }


def fig5_policies(n_items: int = 5000) -> ExperimentResult:
    """Throughput per selection policy + communication-code reuse.

    One graph per policy (generated collector → scheduler → sink), plus a
    runtime-swap run measuring policy-install latency, plus the codegen
    reuse fractions across a policy swap and a schema change.
    """
    from repro.dataflow import (
        CommunicationCodegen,
        DataflowGraph,
        DataScheduler,
        Punctuation,
        Sink,
        generated_source_reuse,
    )
    from repro.dataflow.components import ControlSource
    from repro.metadata.schema import DataSchema, Field
    from repro.metadata.semantics import ConsumptionPattern, DataSemanticsDescriptor, Ordering

    schema = DataSchema(
        "telemetry", "1", (Field("v", "int64"), Field("t", "float64"))
    )
    semantics = DataSemanticsDescriptor(
        ordering=Ordering.ORDERED, consumption=ConsumptionPattern.ELEMENT
    )
    codegen = CommunicationCodegen()
    files = codegen.generate(schema, semantics)
    classes = codegen.materialize(files)
    collector_cls = classes["GeneratedTelemetryCollector"]

    rows = []
    for label, make_policy in _policy_catalog().items():
        graph = DataflowGraph(f"fig5-{label}")
        source = graph.add(
            collector_cls(
                "instrument",
                ({"v": i, "t": float(i)} for i in range(n_items)),
            )
        )
        sched = graph.add(DataScheduler("sched", subscribers=("consumer",)))
        sink = graph.add(Sink("consumer-sink"))
        ctrl = graph.add(
            ControlSource(
                "steer",
                [(0, Punctuation("install-policy", ("consumer", make_policy())))],
            )
        )
        graph.connect(source, "out", sched, "in")
        graph.connect(ctrl, "out", sched, "control")
        graph.connect(sched, "consumer", sink, "in")
        metrics = graph.run()
        rows.append(
            (
                label,
                n_items,
                len(sink.received),
                f"{metrics['throughput_items_per_s']:.0f}",
            )
        )

    # Runtime swap: install latency in items.
    from repro.dataflow.policies import SampleEveryK

    graph = DataflowGraph("fig5-swap")
    source = graph.add(
        collector_cls("instrument", ({"v": i, "t": float(i)} for i in range(n_items)))
    )
    sched = graph.add(DataScheduler("sched", subscribers=("consumer",)))
    sink = graph.add(Sink("consumer-sink"))
    swap_at = n_items // 2
    ctrl = graph.add(
        ControlSource(
            "steer",
            [(swap_at, Punctuation("install-policy", ("consumer", SampleEveryK(10))))],
            watch=sched,
        )
    )
    graph.connect(source, "out", sched, "in")
    graph.connect(ctrl, "out", sched, "control")
    graph.connect(sched, "consumer", sink, "in")
    graph.run()
    installed_at = sched.queues["consumer"].installs[0][0]
    install_latency = installed_at - swap_at

    # Codegen reuse: policy swap touches zero generated lines; a schema
    # change regenerates only marshalling lines.
    reuse_policy_swap = generated_source_reuse(files, files)
    wider = DataSchema(
        "telemetry",
        "1",
        (Field("v", "int64"), Field("t", "float64"), Field("q", "int8")),
    )
    reuse_schema_change = generated_source_reuse(files, codegen.generate(wider, semantics))

    return ExperimentResult(
        name="Figure 5 — selection policies over generated communication",
        description=f"Collection/selection/forwarding workflow, {n_items} items; "
        "communication components generated from the data descriptors.",
        headers=("policy", "items in", "items delivered", "items/s"),
        rows=rows,
        notes=[
            f"runtime policy-install latency: {install_latency} items after request",
            f"communication-code reuse across policy swap: {reuse_policy_swap:.0%}",
            f"communication-code reuse across schema change: {reuse_schema_change:.0%}",
        ],
        extra={
            "install_latency_items": install_latency,
            "reuse_policy_swap": reuse_policy_swap,
            "reuse_schema_change": reuse_schema_change,
        },
    )


# ---------------------------------------------------------------------------
# Figure 6 — utilization timeline, original vs Cheetah/Savanna


def _irf_tasks(n_tasks: int, seed, median=300.0, sigma=1.0, max_seconds=6600.0):
    from repro.apps.irf.loop import feature_run_durations
    from repro.cluster.job import Task

    durations = feature_run_durations(
        n_tasks, median_seconds=median, sigma=sigma, max_seconds=max_seconds, seed=seed
    )
    return [
        Task(name=f"irf-feature-{i:04d}", duration=float(d), payload={"feature": i})
        for i, d in enumerate(durations)
    ]


def _fig6_cluster(nodes: int, seed):
    from repro.cluster import ClusterSpec, SimulatedCluster

    spec = ClusterSpec(
        nodes=nodes, queue_sigma=0.0, queue_median_wait=120.0, node_mttf=2.0e6
    )
    return SimulatedCluster(spec, seed=seed)


def fig6_timeline(
    n_tasks: int = 120, nodes: int = 20, walltime: float = 7200.0, seed=21
) -> ExperimentResult:
    """Node-utilization comparison: set-synchronized vs dynamic pilot."""
    from repro.savanna import PilotExecutor, StaticSetExecutor

    results = {}
    for label, make in (
        ("original (set-synchronized)", lambda c: StaticSetExecutor(c, set_gap=60.0)),
        ("cheetah-savanna (dynamic)", lambda c: PilotExecutor(c)),
    ):
        cluster = _fig6_cluster(nodes, seed)
        executor = make(cluster)
        result = executor.run(
            _irf_tasks(n_tasks, seed), nodes=nodes, walltime=walltime, max_allocations=1
        )
        outcome = result.outcomes[0]
        trace = outcome.trace(end=min(outcome.allocation.deadline, outcome.last_activity()))
        results[label] = (result, outcome, trace)

    rows = []
    for label, (_result, outcome, trace) in results.items():
        rows.append(
            (
                label,
                outcome.completed_count,
                f"{trace.utilization():.1%}",
                f"{trace.idle_fraction():.1%}",
                f"{outcome.last_activity() - outcome.allocation.start:.0f}s",
            )
        )
    static_idle = results["original (set-synchronized)"][2].idle_fraction()
    dynamic_idle = results["cheetah-savanna (dynamic)"][2].idle_fraction()
    return ExperimentResult(
        name="Figure 6 — workflow timeline comparison",
        description=f"{n_tasks} iRF runs on {nodes} nodes, one "
        f"{walltime / 3600:.0f}h allocation; heavy-tailed run durations.",
        headers=("workflow", "runs completed", "utilization", "idle fraction", "active span"),
        rows=rows,
        notes=[
            f"idle fraction: static {static_idle:.1%} vs dynamic {dynamic_idle:.1%}",
            "timelines available in extra['timelines'] (ascii)",
        ],
        extra={
            "timelines": {
                label: trace.ascii_timeline() for label, (_r, _o, trace) in results.items()
            },
            "idle": {"static": static_idle, "dynamic": dynamic_idle},
            "results": {label: r for label, (r, _o, _t) in results.items()},
        },
    )


# ---------------------------------------------------------------------------
# Resilience — seeded faults, retry policies, campaign resume (ISSUE 2)


DEFAULT_FAULTS = "crash-on-start=0.25,mid-run-crash=0.2,transient-io=0.3,straggler=0.15"


def _fault_cluster(nodes: int, seed, injector):
    from repro.cluster import ClusterSpec, SimulatedCluster

    spec = ClusterSpec(
        nodes=nodes, queue_sigma=0.0, queue_median_wait=120.0, node_mttf=2.0e6
    )
    return SimulatedCluster(spec, seed=seed, faults=injector)


def _resilience_policies():
    from repro.resilience import ExponentialBackoffPolicy, FixedDelayPolicy, no_retry

    return (
        ("no-retry", lambda: no_retry()),
        ("fixed-delay(2x, 30s)", lambda: FixedDelayPolicy(max_retries=2, delay_seconds=30.0)),
        (
            "exp-backoff(3x, 30s base)",
            lambda: ExponentialBackoffPolicy(
                max_retries=3, base=30.0, factor=2.0, jitter=0.1, seed=5
            ),
        ),
    )


def resilience_recovery(
    n_tasks: int = 24,
    nodes: int = 8,
    walltime: float = 7200.0,
    max_allocations: int = 1,
    faults: str = DEFAULT_FAULTS,
    fault_seed: int = 17,
    seed=21,
) -> ExperimentResult:
    """Completed-runs-per-allocation under seeded faults, per retry policy.

    Every policy faces the *identical* fault schedule (the injector draws
    from ``[fault_seed, crc32(task), attempt]``, independent of execution
    order), so the table isolates what the retry policy buys: without
    retry every struck run stays failed until the next allocation; with a
    policy the pilot recovers it in place, inside the same batch job.
    """
    from repro.observability import TASK_FAULT_INJECTED, TASK_RETRY, TASK_TIMEOUT
    from repro.resilience import FaultInjector, parse_fault_specs
    from repro.savanna import PilotExecutor

    specs = parse_fault_specs(faults)
    rows = []
    per_alloc = {}
    details = {}
    for label, make_policy in _resilience_policies():
        injector = FaultInjector(specs, seed=fault_seed)
        cluster = _fault_cluster(nodes, seed, injector)
        counts = {TASK_RETRY: 0, TASK_TIMEOUT: 0, TASK_FAULT_INJECTED: 0}

        def count_event(event, counts=counts):
            if event.name in counts:
                counts[event.name] += 1

        cluster.bus.subscribe(count_event)
        executor = PilotExecutor(cluster, retry_policy=make_policy())
        result = executor.run(
            _irf_tasks(n_tasks, seed, median=600.0, sigma=1.2, max_seconds=0.9 * walltime),
            nodes=nodes,
            walltime=walltime,
            max_allocations=max_allocations,
            name=f"resilience-{label}",
        )
        mean = result.mean_completed_per_allocation()
        per_alloc[label] = mean
        details[label] = {"result": result, "events": counts}
        rows.append(
            (
                label,
                len(result.completed),
                len(result.outcomes),
                f"{mean:.1f}",
                counts[TASK_FAULT_INJECTED],
                counts[TASK_RETRY],
            )
        )
    baseline = per_alloc["no-retry"]
    best = max(v for k, v in per_alloc.items() if k != "no-retry")
    recovery_ratio = best / baseline if baseline > 0 else float("inf")
    return ExperimentResult(
        name="Resilience — recovery under injected faults",
        description=f"{n_tasks} iRF runs on {nodes} nodes, up to {max_allocations} "
        f"allocations of {walltime / 3600:.0f}h; faults: {faults} (seed {fault_seed}).",
        headers=(
            "retry policy",
            "completed",
            "allocations",
            "runs/allocation",
            "faults injected",
            "retries granted",
        ),
        rows=rows,
        notes=[
            f"completed-runs-per-allocation, best policy vs no-retry: {recovery_ratio:.1f}x",
            "identical fault schedule across policies (keyed, order-independent draws)",
        ],
        extra={
            "per_alloc": per_alloc,
            "recovery_ratio": recovery_ratio,
            "details": details,
        },
    )


def resilience_campaign(
    directory_root,
    n_tasks: int = 48,
    nodes: int = 8,
    walltime: float = 7200.0,
    max_allocations: int = 4,
    faults: str = DEFAULT_FAULTS,
    fault_seed: int = 17,
    seed=21,
    resume: bool = False,
) -> ExperimentResult:
    """One checkpointed campaign under faults; rerun with ``resume=True``.

    First invocation creates the Cheetah campaign directory under
    ``directory_root`` and records per-run progress; a later invocation
    with ``resume=True`` (``--resume`` on the CLI) skips every run the
    store records DONE and executes exactly the remainder.
    """
    from pathlib import Path

    from repro.apps.irf.loop import duration_model
    from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep, resolve_campaign_dir
    from repro.observability import GROUP_RESUMED
    from repro.resilience import ExponentialBackoffPolicy, FaultInjector, parse_fault_specs
    from repro.savanna import execute_manifest

    directory_root = Path(directory_root)
    campaign = Campaign(
        "resilience-recovery",
        app=AppSpec("irf"),
        objective="fault-tolerant feature sweep",
    )
    group = campaign.sweep_group("features", nodes=nodes, walltime=walltime)
    group.add(Sweep([RangeParameter("feature", 0, n_tasks)]))
    manifest = campaign.to_manifest()

    # Same resolution rule as the drive layer and the lint CLI.
    directory = resolve_campaign_dir(directory_root, manifest, create=True)

    injector = FaultInjector(parse_fault_specs(faults), seed=fault_seed)
    cluster = _fault_cluster(nodes, seed, injector)
    resumed = []
    cluster.bus.subscribe(
        lambda event: resumed.append(event) if event.name == GROUP_RESUMED else None
    )
    result = execute_manifest(
        manifest,
        duration_model(
            median_seconds=600.0, sigma=1.2, max_seconds=0.9 * walltime, seed=seed
        ),
        cluster,
        group="features",
        directory=directory,
        max_allocations=max_allocations,
        resume=resume,
        retry_policy=ExponentialBackoffPolicy(max_retries=3, base=30.0, jitter=0.1, seed=5),
    )
    summary = directory.summary()
    skipped = resumed[0].fields["skipped"] if resumed else 0
    rows = [
        (
            "resumed" if resume else "fresh",
            skipped,
            len(result.tasks),
            len(result.completed),
            summary.get("done", 0),
            summary.get("pending", 0) + summary.get("failed", 0),
        )
    ]
    return ExperimentResult(
        name="Resilience — checkpointed campaign",
        description=f"Campaign directory {directory.root}; faults: {faults} "
        f"(seed {fault_seed}); rerun with --resume to finish pending runs.",
        headers=(
            "invocation",
            "skipped (already done)",
            "executed",
            "completed now",
            "done (directory)",
            "remaining",
        ),
        rows=rows,
        notes=[
            "progress is recorded per task transition; a killed driver "
            "loses at most its in-flight attempts"
        ],
        extra={"result": result, "summary": summary, "directory": directory},
    )


# ---------------------------------------------------------------------------
# Real-execution scaling — threads vs processes on CPU-bound Python


def cpu_bound_fit(params: dict) -> float:
    """A GIL-holding stand-in for one iRF feature fit: pure-Python LCG
    feature scoring.  Module-level so the process pool can pickle it."""
    x = (params["feature"] + 1) * 2654435761 % (2**31)
    acc = 0
    for _ in range(params.get("iters", 200_000)):
        x = (1103515245 * x + 12345) % (2**31)
        acc += x & 1
    return acc / params.get("iters", 200_000)


def realexec_scaling(
    n_runs: int = 8,
    iters: int = 200_000,
    max_workers: int | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Wall-clock comparison of the two real pools on CPU-bound Python.

    The app holds the GIL for its whole attempt, so the thread pool
    serializes and ``local-processes`` should win roughly linearly in the
    core count — on a single-core box the two are expected to tie (modulo
    fork overhead), which the table records rather than hides.
    """
    import os

    from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep
    from repro.savanna import RealExecutor

    workers = max_workers or min(4, os.cpu_count() or 1)
    campaign = Campaign(
        "realexec-scaling",
        app=AppSpec("cpu-bound-fit"),
        objective="thread vs process pool on GIL-holding work",
    )
    group = campaign.sweep_group("fits", nodes=1, walltime=3600.0)
    group.add(
        Sweep(
            [
                RangeParameter("feature", 0, n_runs),
                RangeParameter("iters", iters, iters + 1),
            ]
        )
    )
    manifest = campaign.to_manifest()

    elapsed = {}
    rows = []
    for pool in ("threads", "processes"):
        executor = RealExecutor(max_workers=workers, pool=pool, seed=seed)
        result = executor.execute(manifest, cpu_bound_fit)
        assert result.all_done, f"{pool}: {result.summary()}"
        elapsed[pool] = result.elapsed
        rows.append(
            (
                f"local-{pool}",
                workers,
                len(result.results),
                f"{result.elapsed:.2f}s",
                f"{elapsed['threads'] / result.elapsed:.2f}x",
            )
        )
    speedup = elapsed["threads"] / elapsed["processes"]
    return ExperimentResult(
        name="Real execution — thread vs process pool scaling",
        description=f"{n_runs} CPU-bound fits ({iters} LCG iterations each), "
        f"{workers} workers, {os.cpu_count()} cores visible.",
        headers=("backend", "workers", "runs", "wall clock", "vs threads"),
        rows=rows,
        notes=[
            f"process-pool speedup over threads: {speedup:.2f}x",
            "GIL-holding app: threads serialize, processes scale with cores",
        ],
        extra={
            "elapsed": elapsed,
            "speedup": speedup,
            "workers": workers,
            "cpu_count": os.cpu_count(),
        },
    )


# ---------------------------------------------------------------------------
# Figure 7 — parameters explored per allocation (the >5x result)


def fig7_campaign(
    n_features: int = 1606,
    nodes: int = 20,
    walltime: float = 7200.0,
    max_allocations: int = 80,
    seed=33,
) -> ExperimentResult:
    """Average parameters explored per 2-hour/20-node allocation.

    Builds the census campaign (a sweep over all features), materializes
    tasks through the heavy-tailed duration model, and executes the full
    campaign under both workflows on identically seeded clusters.
    """
    from repro.apps.irf.loop import duration_model
    from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep
    from repro.savanna import PilotExecutor, StaticSetExecutor, tasks_from_manifest

    campaign = Campaign(
        "irf-loop-census",
        app=AppSpec("irf"),
        objective="all-to-all predictive network over census features",
    )
    group = campaign.sweep_group("features", nodes=nodes, walltime=walltime)
    group.add(Sweep([RangeParameter("feature", 0, n_features)]))
    manifest = campaign.to_manifest()

    results = {}
    for label, make, gap in (
        (
            "original (set-synchronized)",
            lambda c: StaticSetExecutor(c, set_gap=60.0),
            3600.0,  # manual curation + new submit script between allocations
        ),
        ("cheetah-savanna (dynamic)", lambda c: PilotExecutor(c), 0.0),
    ):
        cluster = _fig6_cluster(nodes, seed)
        tasks = tasks_from_manifest(
            manifest,
            duration_model(
                median_seconds=360.0, sigma=1.4, max_seconds=0.9 * walltime, seed=seed
            ),
        )
        executor = make(cluster)
        result = executor.run(
            tasks,
            nodes=nodes,
            walltime=walltime,
            max_allocations=max_allocations,
            inter_allocation_gap=gap,
        )
        results[label] = result

    rows = []
    per_alloc = {}
    for label, result in results.items():
        counts = result.completed_per_allocation()
        mean = result.mean_completed_per_allocation()
        per_alloc[label] = mean
        rows.append(
            (
                label,
                f"{mean:.1f}",
                len(result.outcomes),
                len(result.completed),
                f"{result.makespan() / 3600:.1f}h",
            )
        )
    per_alloc_speedup = (
        per_alloc["cheetah-savanna (dynamic)"]
        / per_alloc["original (set-synchronized)"]
        if per_alloc["original (set-synchronized)"] > 0
        else float("inf")
    )
    runtime_speedup = (
        results["original (set-synchronized)"].makespan()
        / results["cheetah-savanna (dynamic)"].makespan()
    )
    return ExperimentResult(
        name="Figure 7 — iRF-LOOP campaign throughput",
        description=f"{n_features}-feature sweep, {walltime / 3600:.0f}h allocations "
        f"of {nodes} nodes (paper: 1606 ACS features on Summit).",
        headers=(
            "workflow",
            "params/allocation (avg)",
            "allocations used",
            "total completed",
            "campaign makespan",
        ),
        rows=rows,
        notes=[
            f"total-runtime improvement: {runtime_speedup:.1f}x "
            "(the paper's headline: 'over 5x improvement in total runtime')",
            f"params-per-allocation improvement: {per_alloc_speedup:.1f}x",
        ],
        extra={
            "speedup": runtime_speedup,
            "per_alloc_speedup": per_alloc_speedup,
            "per_alloc": per_alloc,
            "results": results,
        },
    )
