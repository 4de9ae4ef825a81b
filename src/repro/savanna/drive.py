"""High-level drive: manifest in, executed campaign + recorded status out.

Ties the layers together the way §V-D describes the user experience: the
scientist composes the campaign; execution, status tracking, and
resubmission are the tool's problem.  ``execute_manifest`` runs a
campaign manifest through a named backend and (optionally) records
per-run outcomes into the campaign directory so a later invocation
resumes exactly the pending set.

Two execution worlds share this one entry point, routed on the backend's
registered kind (:func:`~repro.savanna.backends.backend_kind`):

- **simulated** backends (``"pilot"``, ``"static-sets"``) take a
  ``duration_model`` and a :class:`~repro.cluster.cluster.SimulatedCluster`
  and replay the campaign on simulated time;
- **real** backends (``"local-threads"``, ``"local-processes"``) take an
  ``app_fn=`` keyword — a picklable ``callable(parameters) -> value`` —
  and execute genuine Python on wall-clock time through
  :class:`~repro.savanna.realexec.RealExecutor`.  ``duration_model`` and
  ``cluster`` may then be ``None``; events ride a wall-clock
  :class:`~repro.observability.EventBus` created per drive (or pass
  ``bus=`` to share one across groups).

Both worlds get the full stack: the pre-run ``repro.lint`` gate,
incremental :class:`~repro.resilience.CampaignCheckpoint` status
records (one committed row update per task transition in the campaign
store — a driver process killed mid-campaign loses at most the
in-flight attempts), ``resume=True`` re-queuing exactly the runs not
yet recorded DONE, ``group`` spans / ``group.resumed`` instants on the
bus, and ``report=True`` trace analytics: a collector rides the bus for
the duration of the group, the captured events are analyzed (see
:mod:`repro.observability.analysis`), one ``campaign.report`` instant
with the headline numbers (makespan, utilization, critical path,
stragglers) is emitted, and — when a ``directory`` is in play — the full
report is recorded in the campaign store.  Real runs additionally
persist each run's outcome (value, error + traceback, seed, attempts):
bulk-recorded into the campaign store and — with ``json_results=True``
— exported as per-run ``<run>/result.json`` files for human inspection.
The store, ``.cheetah/store.sqlite`` (:mod:`repro.store`), is the one
durable record of status, outcomes and reports.

The drive is internally a *pipeline of stages* — lint gate, resume-set
resolution, sub-manifest construction, execution, report analysis,
result and status persistence — shared verbatim between the simulated
and the real path, and reused per submission by the asyncio campaign
service (:mod:`repro.savanna.service`), which runs many of these
pipelines concurrently.  The per-submission **middleware order** is
fixed and documented on :func:`execute_manifest`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cheetah.directory import CampaignDirectory, RunStatus, resolve_campaign_dir
from repro.cheetah.manifest import CampaignManifest
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.job import TaskState
from repro.lint.engine import CampaignLintError, lint_app_fn, lint_manifest, suppressions_of
from repro.observability import (
    BEGIN,
    CAMPAIGN_LINTED,
    CAMPAIGN_REPORT,
    END,
    GROUP,
    GROUP_RESUMED,
    new_trace_id,
)
from repro.resilience.checkpoint import CampaignCheckpoint
from repro.savanna.backends import backend_kind, create_executor
from repro.savanna.executor import CampaignResult, tasks_from_manifest
from repro.savanna.realexec import RealCampaignResult, wall_clock_bus

_STATE_TO_STATUS = {
    TaskState.DONE: RunStatus.DONE,
    TaskState.FAILED: RunStatus.FAILED,
    TaskState.KILLED: RunStatus.PENDING,  # killed-at-walltime runs are retryable
    TaskState.PENDING: RunStatus.PENDING,
    TaskState.RUNNING: RunStatus.RUNNING,
}

#: Real-run result status -> durable run status ("interrupted" runs are
#: retryable, so they record as PENDING — resume re-queues them).
_REAL_TO_STATUS = {
    "done": RunStatus.DONE,
    "failed": RunStatus.FAILED,
    "interrupted": RunStatus.PENDING,
}


def _pool_of(backend: str) -> str:
    """Which worker pool a real backend dispatches to (pickling matters)."""
    return "processes" if "process" in backend else "threads"


def _pre_run_lint(manifest, bus, cluster, backend_kwargs, app_fn=None, pool="threads"):
    """The ``repro.lint`` gate: refuse campaigns with ERROR findings.

    Runs the manifest rules with the cluster spec (when there is a
    cluster — real backends lint without one) and the retry policy the
    execution will actually use.  For real backends the ``app_fn``
    headed to the workers gets the FAIR5xx concurrency-safety pass too
    (:func:`~repro.lint.engine.lint_app_fn`, honouring the manifest's
    own suppressions), so a function that mutates shared state or
    cannot pickle under ``local-processes`` is refused before a queue
    slot is spent.  Emits one ``campaign.linted`` instant with the
    merged finding counts and raises
    :class:`~repro.lint.engine.CampaignLintError` on any ERROR —
    misconfiguration surfaces at submit time, not mid-allocation.
    Returns the merged report so callers can persist it.
    """
    report = lint_manifest(
        manifest,
        cluster=cluster,
        retry_policy=backend_kwargs.get("retry_policy"),
    )
    if app_fn is not None:
        report = report.merged(
            lint_app_fn(app_fn, pool=pool, suppress=suppressions_of(manifest))
        )
    counts = report.counts()
    bus.emit(
        CAMPAIGN_LINTED,
        campaign=manifest.campaign,
        errors=counts["error"],
        warnings=counts["warning"],
        infos=counts["info"],
        suppressed=len(report.suppressed),
    )
    if report.errors:
        raise CampaignLintError(report, campaign=manifest.campaign)
    return report


def _resolve_group(manifest: CampaignManifest, group: str | None) -> str:
    """Pipeline stage: pin down which SweepGroup's envelope applies."""
    if group is not None:
        return group
    if len(manifest.groups) != 1:
        raise ValueError(
            "manifest has multiple groups; pass group= to pick the "
            f"resource envelope (groups: {[g['name'] for g in manifest.groups]})"
        )
    return manifest.groups[0]["name"]


@dataclass
class _PendingWork:
    """Output of the resume-resolution stage: exactly what is left to run.

    ``sub`` is the input manifest narrowed to one group and (with
    ``resume=True``) to the runs not yet durably DONE; ``skipped`` is how
    many the durable record let us skip (reported via ``group.resumed``).
    """

    directory: CampaignDirectory | None
    checkpoint: CampaignCheckpoint | None
    sub: CampaignManifest
    meta: dict
    skipped: int


def _resolve_pending(
    manifest: CampaignManifest,
    group: str,
    directory,
    resume: bool,
) -> _PendingWork:
    """Pipeline stage: resolve the campaign end point and the pending set.

    Accepts a :class:`~repro.cheetah.directory.CampaignDirectory` or a
    path (resolved and created on first use), constructs the
    :class:`~repro.resilience.CampaignCheckpoint` over it, and — when
    resuming — reads the recorded statuses (one store query) to drop
    every run already recorded DONE.  Shared verbatim by the
    simulated and the real execution paths, and therefore by every
    campaign-service submission.
    """
    meta = manifest.group_meta(group)
    selected = manifest.runs_in_group(group)
    checkpoint = None
    skipped = 0
    if directory is not None and not isinstance(directory, CampaignDirectory):
        directory = resolve_campaign_dir(directory, manifest, create=True)
    if directory is not None:
        checkpoint = CampaignCheckpoint(directory)
        if resume:
            status = checkpoint.effective_status()
            before = len(selected)
            selected = tuple(
                r for r in selected if status[r.run_id] is not RunStatus.DONE
            )
            skipped = before - len(selected)
    sub = CampaignManifest(
        campaign=manifest.campaign,
        app=manifest.app,
        runs=selected,
        executable=manifest.executable,
        objective=manifest.objective,
        groups=(dict(meta),),
    )
    return _PendingWork(
        directory=directory,
        checkpoint=checkpoint,
        sub=sub,
        meta=meta,
        skipped=skipped,
    )


def _require_created(directory) -> None:
    """Refuse a :class:`CampaignDirectory` whose :meth:`create` never ran.

    Checked before lint or pool start-up, so the caller sees what to do
    rather than a missing campaign store deep inside resume resolution.
    A path is fine: :func:`resolve_campaign_dir` creates it on first use.
    """
    if isinstance(directory, CampaignDirectory) and not directory.exists():
        raise FileNotFoundError(
            f"campaign directory {directory.root} was never created: call "
            "CampaignDirectory.create() before driving it (or pass its parent "
            "path as directory= to create it on first use)"
        )


def _check_cancelled(cancel) -> bool:
    """Normalize the external stop signal: Event, callable, or None."""
    if cancel is None:
        return False
    return bool(cancel.is_set() if hasattr(cancel, "is_set") else cancel())


def execute_campaign(
    manifest: CampaignManifest,
    duration_model=None,
    cluster: SimulatedCluster | None = None,
    backend: str = "pilot",
    directory: CampaignDirectory | None = None,
    max_allocations_per_group: int = 1,
    inter_allocation_gap: float = 0.0,
    resume: bool = True,
    lint: bool = True,
    report: bool = False,
    json_results: bool = False,
    cancel=None,
    trace_id: str | None = None,
    **backend_kwargs,
) -> dict:
    """Execute every SweepGroup of a campaign, in declaration order.

    Groups run sequentially (each group's allocation is submitted when
    the previous group finishes), matching how a scientist walks through
    a multi-group study.  Returns ``{group name: CampaignResult}`` (or
    ``RealCampaignResult`` for real backends).

    The whole campaign is linted once up front (see
    :func:`execute_manifest`'s ``lint`` parameter); per-group calls then
    skip the redundant re-analysis.  ``report=True`` analyzes each
    group's trace as it completes (see :func:`execute_manifest`).

    ``cancel`` (a ``threading.Event`` or zero-argument callable) stops
    the campaign between groups — already-finished groups keep their
    results, remaining groups are never started — and, on real backends,
    also interrupts the group currently executing (see
    :meth:`~repro.savanna.realexec.RealExecutor.execute`).  The campaign
    service drives every submission through this parameter.

    ``trace_id`` is the campaign's correlation id (minted here when not
    supplied — the campaign service mints one per submission): every
    group span and, on real backends, every task event down to the
    worker processes carries it, so one ``grep trace_id=...`` lines up
    the whole execution across logs and buses.
    """
    _require_created(directory)
    trace_id = trace_id or new_trace_id()
    if backend_kind(backend) == "real":
        # One wall-clock bus for the whole campaign, so the groups share
        # a time base and any subscriber sees the full story.
        backend_kwargs.setdefault("bus", wall_clock_bus(f"drive-{manifest.campaign}"))
        if lint:
            _pre_run_lint(
                manifest,
                backend_kwargs["bus"],
                cluster,
                backend_kwargs,
                app_fn=backend_kwargs.get("app_fn"),
                pool=_pool_of(backend),
            )
    else:
        if cluster is None:
            raise ValueError(
                f"backend {backend!r} is simulated and requires a cluster"
            )
        if lint:
            _pre_run_lint(manifest, cluster.bus, cluster, backend_kwargs)
    results: dict = {}
    for meta in manifest.groups:
        if _check_cancelled(cancel):
            break
        results[meta["name"]] = execute_manifest(
            manifest,
            duration_model,
            cluster,
            group=meta["name"],
            backend=backend,
            directory=directory,
            max_allocations=max_allocations_per_group,
            inter_allocation_gap=inter_allocation_gap,
            resume=resume,
            lint=False,
            report=report,
            json_results=json_results,
            cancel=cancel,
            trace_id=trace_id,
            **backend_kwargs,
        )
    return results


def execute_manifest(
    manifest: CampaignManifest,
    duration_model=None,
    cluster: SimulatedCluster | None = None,
    group: str | None = None,
    backend: str = "pilot",
    directory: CampaignDirectory | None = None,
    max_allocations: int = 1,
    inter_allocation_gap: float = 0.0,
    resume: bool = True,
    lint: bool = True,
    report: bool = False,
    json_results: bool = False,
    cancel=None,
    trace_id: str | None = None,
    **backend_kwargs,
) -> CampaignResult | RealCampaignResult:
    """Execute (part of) a campaign manifest through a named backend.

    This is the drive *pipeline*; every stage below is per-submission
    middleware when called through the campaign service
    (:mod:`repro.savanna.service`).  The **middleware order** is fixed:

    1. **lint gate** (``lint=True``) — manifest rules against the real
       cluster spec + retry policy; ERROR findings refuse the campaign
       (``campaign.linted`` instant either way);
    2. **group resolution** — pin the SweepGroup whose nodes/walltime
       envelope applies;
    3. **resume resolution** (``directory`` + ``resume=True``) — read
       the recorded run statuses from the campaign store and narrow the
       manifest to the runs not yet DONE (``group.resumed`` instant);
    4. **execution** — the backend's engine, routed on
       :func:`~repro.savanna.backends.backend_kind`; the
       :class:`~repro.resilience.CampaignCheckpoint` commits every task
       transition to the store while it runs, and real backends honour
       ``cancel``;
    5. **report analysis** (``report=True``) — the group's captured
       events become a ``CampaignReport`` + one ``campaign.report``
       instant, recorded in the store with a ``directory``;
    6. **result + status persistence** — real-run outcomes are
       bulk-recorded into the campaign store (``.cheetah/store.sqlite``;
       pass ``json_results=True`` to additionally export per-run
       ``result.json`` files), then the final statuses of the group's
       runs are written to the same store.

    Parameters
    ----------
    manifest:
        The abstract campaign.
    duration_model:
        ``fn(parameters) -> seconds`` mapping runs to nominal durations.
        Required by simulated backends; ignored by real ones (real code
        takes however long it takes).
    group:
        Restrict execution to one SweepGroup (default: the whole
        campaign; the manifest must then contain exactly one group so the
        nodes/walltime envelope is unambiguous).
    backend:
        Executor backend name (see :mod:`repro.savanna.backends`).
        Simulated backends need ``cluster``; real backends need an
        ``app_fn=`` keyword (picklable ``callable(parameters) -> value``
        — module-level, not a lambda, for ``"local-processes"``) and
        accept ``max_workers=``, ``retry_policy=``, ``seed=``,
        ``chunk_size=`` and ``bus=``.
    directory:
        If given, per-run progress is committed to the campaign store
        as it happens (the resume record survives a killed driver) and
        final statuses are written there when the group drains.  A path
        is accepted too and resolved through
        :func:`~repro.cheetah.directory.resolve_campaign_dir` (created
        on first use) — the same resolution the ``repro.lint`` CLI uses,
        so the linted end point and the resumed end point are one.
    resume:
        With a ``directory``: skip runs whose recorded status is
        already DONE, emitting ``group.resumed``.
        ``resume=False`` re-executes every run of the group.
    lint:
        Run the ``repro.lint`` manifest rules before executing anything
        and refuse (``CampaignLintError``) on ERROR findings.  Pass
        ``lint=False`` to execute a campaign the analyzer rejects.
    report:
        Collect this group's events off the bus and analyze them after
        the group drains: emits one ``campaign.report`` instant carrying
        the headline numbers and, with a ``directory``, records the full
        :class:`~repro.observability.analysis.CampaignReport` in the
        campaign store (read it back with ``directory.read_report()``).
        For real backends the spans are genuine wall-clock measurements,
        so the critical path and the straggler list describe the machine
        you actually ran on.
    json_results:
        With a ``directory``, real-run outcomes are always bulk-recorded
        into the campaign store (:mod:`repro.store`; chunked
        ``executemany`` ingestion, one transaction per chunk).
        ``json_results=True`` additionally exports per-run
        ``result.json`` files for human inspection; they are never read
        back (``directory.read_run_result`` answers from the store).
    cancel:
        External stop signal (``threading.Event`` or zero-argument
        callable).  Real backends poll it while executing and take the
        graceful-interrupt path when it fires (unfinished runs report
        ``status="interrupted"`` and compact to PENDING — resumable);
        simulated backends honour it only between groups (the
        discrete-event simulation of one group is atomic).
    trace_id:
        Correlation id stamped on the group span events and — on real
        backends — propagated into every task spec and worker process
        (minted fresh when not supplied).
    """
    _require_created(directory)
    trace_id = trace_id or new_trace_id()
    if backend_kind(backend) == "real":
        return _execute_manifest_real(
            manifest,
            cluster,
            group=group,
            backend=backend,
            directory=directory,
            resume=resume,
            lint=lint,
            report=report,
            json_results=json_results,
            cancel=cancel,
            trace_id=trace_id,
            backend_kwargs=backend_kwargs,
        )
    if duration_model is None or cluster is None:
        raise ValueError(
            f"backend {backend!r} is simulated and requires both a "
            "duration_model and a cluster"
        )
    if lint:
        _pre_run_lint(manifest, cluster.bus, cluster, backend_kwargs)
    group = _resolve_group(manifest, group)
    work = _resolve_pending(manifest, group, directory, resume)

    tasks = tasks_from_manifest(work.sub, duration_model)
    executor = create_executor(backend, cluster=cluster, **backend_kwargs)
    result = _run_group(
        cluster.bus, work, group, backend, trace_id, report,
        lambda: executor.run(
            tasks,
            nodes=work.meta["nodes"],
            walltime=work.meta["walltime"],
            max_allocations=max_allocations,
            inter_allocation_gap=inter_allocation_gap,
            name=f"{manifest.campaign}/{group}",
            checkpoint=work.checkpoint,
        ),
    )
    if work.directory is not None:
        work.directory.update_status(
            {task.name: _STATE_TO_STATUS[task.state] for task in tasks}
        )
    return result


def _execute_manifest_real(
    manifest: CampaignManifest,
    cluster,
    *,
    group,
    backend,
    directory,
    resume,
    lint,
    report,
    json_results,
    cancel,
    trace_id,
    backend_kwargs,
) -> RealCampaignResult:
    """The real-execution drive path: same stack, wall-clock substrate.

    Mirrors the simulated path stage for stage — lint gate, resume set
    computation, group span, checkpoint attach, report analysis, status
    persistence — but hands the pending runs to a
    :class:`~repro.savanna.realexec.RealExecutor` (with the external
    ``cancel`` signal threaded through) and persists each run's real
    outcome into the campaign directory.
    """
    app_fn = backend_kwargs.pop("app_fn", None)
    if app_fn is None:
        raise ValueError(
            f"backend {backend!r} executes real code: pass "
            "app_fn=callable(parameters) -> value (module-level, so the "
            "process pool can pickle it)"
        )
    bus = backend_kwargs.pop("bus", None)
    if bus is None:
        bus = cluster.bus if cluster is not None else wall_clock_bus(
            f"drive-{manifest.campaign}"
        )
    lint_report = None
    if lint:
        lint_report = _pre_run_lint(
            manifest, bus, cluster, backend_kwargs,
            app_fn=app_fn, pool=_pool_of(backend),
        )
    group = _resolve_group(manifest, group)
    work = _resolve_pending(manifest, group, directory, resume)
    if work.directory is not None and lint_report is not None:
        work.directory.write_lint_report(lint_report)

    executor = create_executor(backend, **backend_kwargs)

    def execute():
        if work.checkpoint is not None:
            work.checkpoint.attach(bus)
        try:
            return executor.execute(
                work.sub,
                app_fn,
                bus=bus,
                name=f"{manifest.campaign}/{group}",
                cancel=cancel,
                trace_id=trace_id,
            )
        finally:
            if work.checkpoint is not None:
                work.checkpoint.detach()
                work.checkpoint.compact()

    result = _run_group(bus, work, group, backend, trace_id, report, execute)
    if work.directory is not None:
        work.directory.record_results(result.results, json_export=json_results)
        work.directory.update_status(
            {rid: _REAL_TO_STATUS[r.status] for rid, r in result.results.items()}
        )
    return result


def _run_group(bus, work: _PendingWork, group, backend, trace_id, report, run):
    """Pipeline stages 4-5, shared by both paths: ``run()`` the pending
    work inside the ``group`` span (plus ``group.resumed`` when resume
    skipped runs), then publish the group's report when ``report=True``.

    Streaming analysis: events fold into report state as they are
    emitted (batch-aware, O(1) memory per event) instead of being
    buffered whole and replayed after the run.
    """
    campaign, pending = work.sub.campaign, len(work.sub.runs)
    streaming = _make_streaming(bus) if report else None
    bus.emit(
        GROUP,
        phase=BEGIN,
        campaign=campaign,
        group=group,
        runs=pending,
        backend=backend,
        trace_id=trace_id,
    )
    if work.skipped:
        bus.emit(
            GROUP_RESUMED,
            campaign=campaign,
            total=pending + work.skipped,
            skipped=work.skipped,
            pending=pending,
            trace_id=trace_id,
        )
    result = run()
    bus.emit(
        GROUP,
        phase=END,
        campaign=campaign,
        group=group,
        completed=len(result.completed),
        trace_id=trace_id,
    )
    if streaming is not None:
        streaming.detach()
        _report_group(bus, work.directory, streaming.reports())
    return result


def _make_streaming(bus):
    """Attach a streaming report builder to ``bus`` (import kept local)."""
    from repro.observability.analysis import StreamingCampaignReport

    return StreamingCampaignReport().attach(bus)


def _report_group(bus, directory, reports) -> None:
    """Publish one group's finalized campaign reports.

    Emits one ``campaign.report`` instant per campaign span the
    streaming builder saw (normally one — the executor wraps the group's
    allocations in a single campaign span) and records the full reports
    in the campaign store when there is a directory.
    """
    for r in reports:
        bus.emit(CAMPAIGN_REPORT, **r.headline())
    if directory is not None and reports:
        directory.write_report(reports)
