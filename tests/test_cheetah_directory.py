"""Tests for the campaign directory schema."""

import json

import pytest

from repro.cheetah.campaign import AppSpec, Campaign, Sweep
from repro.cheetah.directory import CampaignDirectory, RunStatus
from repro.cheetah.parameters import SweepParameter


def make_manifest(n=4):
    camp = Campaign("study", app=AppSpec("app"))
    sg = camp.sweep_group("g", nodes=2, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    return camp.to_manifest()


class TestCreation:
    def test_layout(self, tmp_path):
        man = make_manifest()
        root = CampaignDirectory(tmp_path, man).create()
        assert (root / ".cheetah" / "manifest.json").exists()
        assert (root / ".cheetah" / "store.sqlite").exists()
        assert not (root / ".cheetah" / "status.json").exists()
        assert (root / "g" / "run-0000" / "params.json").exists()

    def test_params_json_content(self, tmp_path):
        man = make_manifest()
        cd = CampaignDirectory(tmp_path, man)
        cd.create()
        params = json.loads((cd.run_dir("g/run-0002") / "params.json").read_text())
        assert params == {"x": 2}

    def test_idempotent_create(self, tmp_path):
        man = make_manifest()
        cd = CampaignDirectory(tmp_path, man)
        cd.create()
        cd.set_status("g/run-0000", RunStatus.DONE)
        cd.create()  # re-create must not reset status
        assert cd.read_status()["g/run-0000"] is RunStatus.DONE

    def test_conflicting_manifest_rejected(self, tmp_path):
        CampaignDirectory(tmp_path, make_manifest(3)).create()
        with pytest.raises(RuntimeError, match="different manifest"):
            CampaignDirectory(tmp_path, make_manifest(5)).create()

    def test_open_existing(self, tmp_path):
        man = make_manifest()
        CampaignDirectory(tmp_path, man).create()
        cd = CampaignDirectory.open(tmp_path / "study")
        assert cd.manifest == man


class TestStatus:
    def test_all_pending_initially(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        assert cd.summary() == {"pending": 4, "running": 0, "done": 0, "failed": 0}

    def test_set_and_read(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.set_status("g/run-0001", RunStatus.RUNNING)
        assert cd.read_status()["g/run-0001"] is RunStatus.RUNNING

    def test_batch_update(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.update_status({"g/run-0000": RunStatus.DONE, "g/run-0001": RunStatus.FAILED})
        assert cd.summary()["done"] == 1
        assert cd.summary()["failed"] == 1

    def test_unknown_run_rejected(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        with pytest.raises(KeyError):
            cd.set_status("ghost", RunStatus.DONE)

    def test_pending_runs_for_resubmission(self, tmp_path):
        """FAILED counts as pending: resubmission retries failures (§V-D)."""
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        cd.update_status({"g/run-0000": RunStatus.DONE, "g/run-0001": RunStatus.FAILED})
        pending = cd.pending_runs()
        ids = [r.run_id for r in pending]
        assert "g/run-0000" not in ids
        assert "g/run-0001" in ids
        assert len(pending) == 3

    def test_pending_runs_group_filter(self, tmp_path):
        cd = CampaignDirectory(tmp_path, make_manifest())
        cd.create()
        assert len(cd.pending_runs(group="g")) == 4
        assert cd.pending_runs(group="other") == ()


def _square(params):
    return params["x"] ** 2


class TestUncreatedDirectory:
    """Driving a ``CampaignDirectory`` whose ``create()`` never ran fails
    at once with an error that says so, before lint or a pool starts."""

    def _bus(self):
        from repro.savanna.realexec import wall_clock_bus

        bus = wall_clock_bus("uncreated")
        seen = []
        bus.subscribe(seen.append)
        return bus, seen

    def test_real_drive_names_create(self, tmp_path):
        from repro.savanna import execute_manifest

        directory = CampaignDirectory(tmp_path, make_manifest())
        bus, seen = self._bus()
        with pytest.raises(FileNotFoundError, match=r"CampaignDirectory\.create\(\)"):
            execute_manifest(
                directory.manifest, backend="local-threads", app_fn=_square,
                directory=directory, bus=bus,
            )
        assert seen == []  # no lint verdict, no group span, no task
        assert not directory.root.exists()

    def test_simulated_drive_and_campaign_name_create(self, tmp_path):
        from repro.cluster.cluster import ClusterSpec, SimulatedCluster
        from repro.savanna import execute_campaign, execute_manifest

        directory = CampaignDirectory(tmp_path, make_manifest())
        cluster = SimulatedCluster(ClusterSpec(nodes=2), seed=1)
        seen = []
        cluster.bus.subscribe(seen.append)
        for drive in (execute_manifest, execute_campaign):
            with pytest.raises(FileNotFoundError, match=r"CampaignDirectory\.create\(\)"):
                drive(directory.manifest, lambda p: 10.0, cluster, directory=directory)
        assert seen == []
        assert not directory.root.exists()

    def test_service_submit_names_create(self, tmp_path):
        from repro.savanna import CampaignService

        directory = CampaignDirectory(tmp_path, make_manifest())
        service = CampaignService()
        with pytest.raises(FileNotFoundError, match=r"CampaignDirectory\.create\(\)"):
            service.submit(
                directory.manifest, backend="local-threads", app_fn=_square,
                directory=directory,
            )
        assert service.queued == 0

    def test_created_directory_and_plain_path_still_drive(self, tmp_path):
        from repro.savanna import execute_manifest

        manifest = make_manifest()
        result = execute_manifest(
            manifest, backend="local-threads", app_fn=_square, directory=tmp_path
        )
        assert len(result.completed) == len(manifest.runs)
        directory = CampaignDirectory(tmp_path, manifest)
        assert directory.exists()
        again = execute_manifest(
            manifest, backend="local-threads", app_fn=_square, directory=directory
        )
        assert again.results == {}  # resumed: every run already DONE
