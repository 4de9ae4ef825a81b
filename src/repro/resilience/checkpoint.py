"""Campaign progress checkpointing — the resume contract made durable.

"If all runs in the SweepGroup cannot be run in the allotted time, the
SweepGroup is simply re-submitted, and Savanna resumes execution of the
experiments" (§V-D).  Resumption is only as good as the durable record,
so a run's status must be recorded as it changes, not after the
campaign loop drains.

A :class:`CampaignCheckpoint` records every task transition in the
campaign store of the Cheetah campaign directory::

    <root>/<campaign>/.cheetah/store.sqlite   # runs.status, one row per run

Each transition observed on the cluster's event bus is one ``UPDATE``
of the run's row, committed on its own (sqlite WAL), on a store opened
once per checkpoint.  A driver killed mid-campaign therefore loses at
most its in-flight attempts: they read RUNNING, which
:meth:`CampaignCheckpoint.pending` counts as pending and
:meth:`CampaignCheckpoint.compact` turns back into PENDING.

**Per-submission scoping**: with the campaign service
(:mod:`repro.savanna.service`) many drive pipelines run concurrently in
one process, each attaching its own checkpoint.  Two live writers on the
*same* campaign directory would interleave transitions from unrelated
attempts — so :meth:`CampaignCheckpoint.attach` enforces one attached
writer per campaign directory process-wide and raises ``RuntimeError``
on the second.  A concurrent re-submission of a still-running campaign
fails loudly at attach time instead of silently corrupting the resume
record.
"""

from __future__ import annotations

import threading

from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.observability import BEGIN, END, TASK

#: Task-span ``outcome`` field -> durable run status.  A walltime-killed
#: run is retryable, so it checkpoints as PENDING (same rule the drive
#: layer applies to final task states); an attempt cut short by Ctrl-C in
#: a real driver (``"interrupted"``) is likewise retryable.
_OUTCOME_TO_STATUS = {
    "done": RunStatus.DONE,
    "failed": RunStatus.FAILED,
    "killed": RunStatus.PENDING,
    "interrupted": RunStatus.PENDING,
}


class CampaignCheckpoint:
    """Incremental per-run status records in a campaign directory's store.

    Parameters
    ----------
    directory:
        The :class:`~repro.cheetah.directory.CampaignDirectory` holding
        the campaign end point (must have been ``create()``-d, so its
        store exists).
    """

    #: Process-wide registry of campaign directories with a live attached
    #: writer (per-submission scoping: one writer per campaign directory).
    _ATTACHED: dict = {}
    _ATTACHED_LOCK = threading.Lock()

    def __init__(self, directory: CampaignDirectory):
        self.directory = directory
        self._store = directory.store()
        self._campaign = directory.manifest.campaign
        self._unsubscribe = None

    def record(self, run_id: str, status: RunStatus) -> None:
        """Commit one status transition: one ``UPDATE`` of the run's row."""
        if run_id not in self.directory.run_ids:
            raise KeyError(f"unknown run_id {run_id!r}")
        self._store.set_statuses(self._campaign, {run_id: status})

    # -- reading -------------------------------------------------------------

    def effective_status(self) -> dict:
        """``{run_id: RunStatus}`` as recorded — what resume must trust."""
        return self.directory.read_status()

    def completed(self) -> set:
        """Run ids durably recorded DONE."""
        return {
            run_id
            for run_id, st in self.effective_status().items()
            if st is RunStatus.DONE
        }

    def pending(self) -> set:
        """Run ids a resumed driver must re-queue: everything not DONE.

        An in-flight attempt whose outcome was never recorded reads as
        RUNNING and therefore counts as pending — same rule
        :meth:`compact` applies."""
        return {
            run_id
            for run_id, st in self.effective_status().items()
            if st is not RunStatus.DONE
        }

    def compact(self) -> None:
        """Turn runs left RUNNING back into PENDING (one ``UPDATE``).

        An in-flight attempt whose outcome was never recorded must be
        re-queued, not trusted.
        """
        self._store.requeue_running(self._campaign)

    # -- bus wiring ----------------------------------------------------------

    def attach(self, bus, owner: str | None = None) -> None:
        """Subscribe to ``bus`` and record every task transition.

        ``task`` span begins record RUNNING; ends record the mapped
        outcome.  Events about tasks that are not runs of this campaign
        (names outside the manifest) are ignored, so a shared bus is safe.

        One live writer per campaign directory, process-wide: attaching
        while another checkpoint is already attached to the same
        directory raises ``RuntimeError`` naming the current holder —
        this is the per-submission scope guard that keeps concurrent
        campaign-service submissions from interleaving transitions.
        ``owner`` labels this writer (e.g. a submission id) for that
        error message.
        """
        if self._unsubscribe is not None:
            raise RuntimeError("checkpoint already attached to a bus")
        key = self._writer_key()
        with self._ATTACHED_LOCK:
            holder = self._ATTACHED.get(key)
            if holder is not None:
                raise RuntimeError(
                    f"campaign directory {self.directory.root} already has a "
                    f"live checkpoint writer ({holder}); a campaign must "
                    "finish (or be cancelled) before it is re-submitted "
                    "against the same directory"
                )
            self._ATTACHED[key] = owner or f"checkpoint@{id(self):#x}"
        known = self.directory.run_ids

        def observe(event) -> None:
            if event.name != TASK:
                return
            run_id = event.fields.get("task")
            if run_id not in known:
                return
            if event.phase == BEGIN:
                self.record(run_id, RunStatus.RUNNING)
            elif event.phase == END:
                status = _OUTCOME_TO_STATUS.get(event.fields.get("outcome"))
                if status is not None:
                    self.record(run_id, status)

        self._unsubscribe = bus.subscribe(observe)

    def detach(self) -> None:
        """Stop observing the bus and release the writer slot (idempotent)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
            with self._ATTACHED_LOCK:
                self._ATTACHED.pop(self._writer_key(), None)

    def _writer_key(self) -> str:
        return str(self.directory.root.resolve())
