"""Tests for campaign checkpointing and resumable SweepGroups."""

import pytest

from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.observability import BEGIN, END, GROUP_RESUMED, TASK, EventBus
from repro.resilience import CampaignCheckpoint
from repro.savanna import PilotExecutor, execute_manifest
from repro.savanna.executor import tasks_from_manifest

from conftest import make_cluster


def make_manifest(n=8, nodes=2, walltime=120.0):
    camp = Campaign("resume", app=AppSpec("app"))
    sg = camp.sweep_group("g", nodes=nodes, walltime=walltime)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    return camp.to_manifest()


def make_directory(tmp_path, manifest):
    directory = CampaignDirectory(tmp_path, manifest)
    directory.create()
    return directory


class TestCampaignCheckpoint:
    def test_record_appends_and_reads_back(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        seen = []
        checkpoint.record("g/run-0000", RunStatus.RUNNING)
        seen.append(checkpoint.effective_status()["g/run-0000"])
        checkpoint.record("g/run-0000", RunStatus.DONE)
        seen.append(checkpoint.effective_status()["g/run-0000"])
        assert seen == [RunStatus.RUNNING, RunStatus.DONE]

    def test_unknown_run_rejected(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        with pytest.raises(KeyError, match="unknown run_id"):
            checkpoint.record("g/run-9999", RunStatus.DONE)

    def test_effective_status_overlays_journal_later_wins(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest())
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)
        checkpoint.record("g/run-0001", RunStatus.DONE)
        status = checkpoint.effective_status()
        assert status["g/run-0001"] is RunStatus.DONE
        assert status["g/run-0000"] is RunStatus.PENDING
        assert checkpoint.completed() == {"g/run-0001"}

    def test_compact_folds_journal_and_requeues_running(self, tmp_path):
        directory = make_directory(tmp_path, make_manifest())
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0000", RunStatus.DONE)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)  # driver died here
        checkpoint.compact()
        status = directory.read_status()
        assert status["g/run-0000"] is RunStatus.DONE
        assert status["g/run-0001"] is RunStatus.PENDING
        checkpoint.compact()  # nothing left RUNNING: a no-op
        assert directory.read_status() == status

    def test_attach_journals_task_spans_and_ignores_foreign_tasks(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        recorded = []
        record = checkpoint.record
        checkpoint.record = lambda run_id, status: (
            recorded.append(run_id), record(run_id, status)
        )
        bus = EventBus()
        checkpoint.attach(bus)
        bus.emit(TASK, phase=BEGIN, task="g/run-0002", time=0.0)
        bus.emit(TASK, phase=END, task="g/run-0002", outcome="done")
        bus.emit(TASK, phase=BEGIN, task="not-a-campaign-run")
        bus.emit("node.busy", task="g/run-0003")
        checkpoint.detach()
        bus.emit(TASK, phase=BEGIN, task="g/run-0004")  # after detach: ignored
        assert recorded == ["g/run-0002", "g/run-0002"]
        assert checkpoint.completed() == {"g/run-0002"}

    def test_attach_twice_rejected_detach_idempotent(self, tmp_path):
        checkpoint = CampaignCheckpoint(make_directory(tmp_path, make_manifest()))
        bus = EventBus()
        checkpoint.attach(bus)
        with pytest.raises(RuntimeError, match="already attached"):
            checkpoint.attach(bus)
        checkpoint.detach()
        checkpoint.detach()
        checkpoint.attach(bus)  # re-attachable after detach
        checkpoint.detach()


class TestResumeThroughExecutor:
    def test_resume_requires_checkpoint(self):
        executor = PilotExecutor(make_cluster())
        with pytest.raises(ValueError, match="requires a checkpoint"):
            executor.run([], nodes=2, walltime=100.0, resume=True)

    def test_resume_skips_checkpointed_runs_and_emits_event(self, tmp_path):
        manifest = make_manifest(n=6, nodes=4, walltime=500.0)
        directory = make_directory(tmp_path, manifest)
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0000", RunStatus.DONE)
        checkpoint.record("g/run-0003", RunStatus.DONE)

        cluster = make_cluster(nodes=4)
        events = []
        cluster.bus.subscribe(events.append)
        tasks = tasks_from_manifest(manifest, lambda p: 10.0)
        result = PilotExecutor(cluster).run(
            tasks,
            nodes=4,
            walltime=500.0,
            checkpoint=checkpoint,
            resume=True,
        )
        assert result.all_done
        started = [
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        ]
        assert sorted(started) == [
            "g/run-0001",
            "g/run-0002",
            "g/run-0004",
            "g/run-0005",
        ]
        resumed = [e for e in events if e.name == GROUP_RESUMED]
        assert len(resumed) == 1
        assert resumed[0].fields["skipped"] == 2
        assert resumed[0].fields["pending"] == 4


class TestInterruptedCampaignResume:
    def test_interrupted_then_resumed_completes_exactly_the_remainder(self, tmp_path):
        # Acceptance: a SweepGroup cut off by its allocation budget,
        # resumed in a fresh process, finishes with zero duplicated runs —
        # asserted from the observability event stream.
        manifest = make_manifest(n=8, nodes=2, walltime=120.0)
        directory = make_directory(tmp_path, manifest)
        all_runs = {run.run_id for run in manifest.runs}

        # First invocation: one 2-node/120s allocation fits 4 of the 8
        # 50-second runs, then the walltime guillotine falls.
        execute_manifest(
            manifest,
            lambda p: 50.0,
            make_cluster(nodes=2),
            directory=directory,
            max_allocations=1,
        )
        done_first = {
            run_id
            for run_id, st in directory.read_status().items()
            if st is RunStatus.DONE
        }
        assert len(done_first) == 4

        # Second invocation: a fresh cluster/process resumes the campaign.
        cluster = make_cluster(nodes=2)
        events = []
        cluster.bus.subscribe(events.append)
        result = execute_manifest(
            manifest,
            lambda p: 50.0,
            cluster,
            directory=directory,
            max_allocations=4,
        )
        started = [
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        ]
        # exactly the remainder, each exactly once
        assert sorted(started) == sorted(all_runs - done_first)
        assert len(started) == len(set(started))
        resumed = [e for e in events if e.name == GROUP_RESUMED]
        assert len(resumed) == 1
        assert resumed[0].fields["skipped"] == 4
        assert result.all_done
        assert directory.summary()["done"] == 8

    def test_journal_survives_a_killed_driver(self, tmp_path):
        # Emulate a driver killed mid-campaign: one run committed DONE,
        # one left RUNNING, nothing was compacted.
        manifest = make_manifest(n=6, nodes=4, walltime=500.0)
        directory = make_directory(tmp_path, manifest)
        checkpoint = CampaignCheckpoint(directory)
        checkpoint.record("g/run-0000", RunStatus.DONE)
        checkpoint.record("g/run-0001", RunStatus.RUNNING)  # in flight at kill

        cluster = make_cluster(nodes=4)
        events = []
        cluster.bus.subscribe(events.append)
        result = execute_manifest(
            manifest, lambda p: 10.0, cluster, directory=directory
        )
        started = {
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        }
        assert "g/run-0000" not in started  # durably done: skipped
        assert "g/run-0001" in started  # interrupted in flight: re-queued
        assert result.all_done
        assert directory.summary()["done"] == 6

    def test_resume_false_re_executes_everything(self, tmp_path):
        manifest = make_manifest(n=4, nodes=4, walltime=500.0)
        directory = make_directory(tmp_path, manifest)
        directory.update_status({"g/run-0000": RunStatus.DONE})
        cluster = make_cluster(nodes=4)
        events = []
        cluster.bus.subscribe(events.append)
        execute_manifest(
            manifest, lambda p: 10.0, cluster, directory=directory, resume=False
        )
        started = {
            e.fields["task"] for e in events if e.name == TASK and e.phase == BEGIN
        }
        assert started == {run.run_id for run in manifest.runs}
        assert not [e for e in events if e.name == GROUP_RESUMED]
