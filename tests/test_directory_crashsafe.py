"""Crash-safety tests: torn-write immunity, concurrent status updates, tagged codec.

Three campaign-directory durability properties are pinned here:

1. The files that stay files (``manifest.json``, ``params.json``,
   ``lint.json``, the ``result.json`` export) are written temp file +
   fsync + ``os.replace``; a reader sees the old complete file or the
   new one, never a prefix (proved by SIGKILLing a writer subprocess
   mid-loop).  Status and reports are store transactions.
2. Concurrent ``update_status`` calls on disjoint run sets all land
   (hypothesis, threads over disjoint run sets).
3. Known non-JSON types (numpy, complex, bytes, set, Path) round-trip
   exactly via the tagged codec, and a truly unserializable value
   raises instead of persisting a ``repr`` string.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import UnserializableValueError, atomic_write_text, loads_tagged
from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, RunStatus


def make_directory(tmp_path, n=8, campaign="crash"):
    camp = Campaign(campaign, app=AppSpec("app"))
    sg = camp.sweep_group("g", nodes=1, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    directory = CampaignDirectory(tmp_path, camp.to_manifest())
    directory.create()
    return directory


class TestAtomicWrites:
    def test_reader_never_sees_torn_file_under_sigkill(self, tmp_path):
        """SIGKILL a subprocess hammering atomic_write_text: the target
        must always parse as one of the complete payloads."""
        target = tmp_path / "manifest.json"
        script = textwrap.dedent(
            """
            import json, sys
            from repro._util import atomic_write_text
            path = sys.argv[1]
            i = 0
            while True:
                payload = {"generation": i, "runs": {f"run-{j}": "done" for j in range(50)}, "complete": True}
                atomic_write_text(path, json.dumps(payload), fsync=False)
                i += 1
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        for _ in range(3):
            proc = subprocess.Popen(
                [sys.executable, "-c", script, str(target)], env=env
            )
            # let it get through some writes, then kill it mid-flight
            deadline = time.time() + 5.0
            while not target.exists() and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            data = json.loads(target.read_text())  # parses => not torn
            assert data["complete"] is True
            assert len(data["runs"]) == 50

    def test_failed_replace_leaves_original_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "file.json"
        atomic_write_text(target, '{"v": 1}')

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_text(target, '{"v": 2}')
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"v": 1}
        # the failed write's temp file was cleaned up
        assert list(tmp_path.glob(".file.json.*.tmp")) == []

    def test_status_report_result_files_written_atomically(self, tmp_path):
        """Status and report are store transactions; the result.json
        export goes through atomic_write_text (no bare write_text
        truncation window)."""
        directory = make_directory(tmp_path)
        directory.set_status("g/run-0000", RunStatus.DONE)
        directory.write_run_result(
            "g/run-0000",
            {"run_id": "g/run-0000", "status": "done", "value": 1.0,
             "error": None, "traceback": None, "elapsed": 0.1,
             "attempts": 1, "seed": 0},
        )
        directory.write_report([{"campaign": "crash", "group": "g", "makespan": 1.0}])
        # all read back cleanly and no temp residue is left behind
        meta = directory.root / CampaignDirectory.METADATA_DIR
        assert directory.read_status()["g/run-0000"] is RunStatus.DONE
        assert directory.read_report() == [
            {"campaign": "crash", "group": "g", "makespan": 1.0}
        ]
        json.loads((directory.run_dir("g/run-0000") / "result.json").read_text())
        assert list(meta.glob("*.tmp")) == []
        assert list(directory.run_dir("g/run-0000").glob("*.tmp")) == []


class TestConcurrentStatusUpdates:
    @settings(deadline=None, max_examples=15)
    @given(
        n_threads=st.integers(2, 4),
        per_thread=st.integers(1, 4),
        repeats=st.integers(1, 3),
    )
    def test_concurrent_updates_reconcile_exactly(
        self, tmp_path_factory, n_threads, per_thread, repeats
    ):
        """Threads updating disjoint run sets concurrently must all land:
        the old unlocked read-modify-write dropped transitions."""
        tmp_path = tmp_path_factory.mktemp("status")
        n_runs = n_threads * per_thread
        directory = make_directory(tmp_path, n=n_runs)
        run_ids = [run.run_id for run in directory.manifest.runs]
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(mine):
            try:
                barrier.wait()
                for _ in range(repeats):
                    directory.update_status({rid: RunStatus.RUNNING for rid in mine})
                    directory.update_status({rid: RunStatus.DONE for rid in mine})
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(
                target=worker, args=(run_ids[i * per_thread:(i + 1) * per_thread],)
            )
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        status = directory.read_status()
        assert all(status[rid] is RunStatus.DONE for rid in run_ids)

    def test_update_status_rejects_unknown_run(self, tmp_path):
        directory = make_directory(tmp_path)
        with pytest.raises(KeyError, match="unknown run_id"):
            directory.update_status({"g/run-9999": RunStatus.DONE})


class TestTaggedEncoding:
    def roundtrip(self, tmp_path, value):
        directory = make_directory(tmp_path)
        rid = directory.manifest.runs[0].run_id
        directory.write_run_result(
            rid,
            {"run_id": rid, "status": "done", "value": value, "error": None,
             "traceback": None, "elapsed": 0.1, "attempts": 1, "seed": 0},
        )
        # read through the export itself: result.json is never read back
        # by the directory (the store answers read_run_result)
        exported = directory.run_dir(rid) / "result.json"
        return loads_tagged(exported.read_text())["value"]

    def test_numpy_scalars_round_trip_exactly(self, tmp_path):
        value = {
            "f64": np.float64(1.5), "i32": np.int32(-7), "b": np.bool_(True)
        }
        out = self.roundtrip(tmp_path, value)
        assert out == {"f64": 1.5, "i32": -7, "b": True}

    def test_numpy_array_round_trips_with_dtype(self, tmp_path):
        value = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = self.roundtrip(tmp_path, value)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, value)

    def test_complex_bytes_set_path_round_trip(self, tmp_path):
        value = {
            "z": complex(1.0, -2.5),
            "raw": b"\x00\x01\xff",
            "tags": {3, 1, 2},
            "where": Path("/data/out"),
        }
        out = self.roundtrip(tmp_path, value)
        assert out["z"] == complex(1.0, -2.5)
        assert out["raw"] == b"\x00\x01\xff"
        assert out["tags"] == {1, 2, 3}
        assert out["where"] == Path("/data/out")

    def test_unserializable_value_raises_instead_of_repr(self, tmp_path):
        """The old repr fallback silently corrupted records; now the
        write refuses."""
        directory = make_directory(tmp_path)
        rid = directory.manifest.runs[0].run_id
        with pytest.raises(UnserializableValueError):
            directory.write_run_result(
                rid,
                {"run_id": rid, "status": "done", "value": object(),
                 "error": None, "traceback": None, "elapsed": 0.1,
                 "attempts": 1, "seed": 0},
            )
        # nothing half-written
        assert not (directory.run_dir(rid) / "result.json").exists()

    def test_store_rejects_unserializable_value_at_write(self, tmp_path):
        from repro.store import CampaignStore

        directory = make_directory(tmp_path)
        with directory.open_store() as store:
            assert isinstance(store, CampaignStore)
            with pytest.raises(UnserializableValueError):
                store.add_result(
                    directory.manifest.campaign,
                    directory.manifest.runs[0].run_id,
                    value=object(),
                )
