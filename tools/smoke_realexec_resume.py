#!/usr/bin/env python
"""Kill + resume smoke test for the real-execution drive path (CI).

Drives a ``local-processes`` campaign in a child process, SIGKILLs the
child once the campaign store records at least two runs DONE (read
through a read-only connection), then resumes in-process with
``resume=True`` and asserts that

- the store passes ``PRAGMA integrity_check``,
- the store's pending set is exactly what the resumed drive re-queues,
- the resumed drive skips exactly the runs already recorded DONE, and
- the campaign directory ends with every run DONE.

This is the checkpoint's crash contract under the harshest failure a
driver can suffer (SIGKILL: no handlers, no atexit, possibly mid-commit).

Usage: ``python tools/smoke_realexec_resume.py`` (parent; creates a temp
campaign root) — ``--child <root>`` is the internal child entry point.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

N_RUNS = 8
SLEEP_PER_RUN = 0.3
KILL_AFTER_DONE = 2
TIMEOUT = 120.0


def build_manifest():
    from repro.cheetah import AppSpec, Campaign, RangeParameter, Sweep

    camp = Campaign(
        "smoke-realexec",
        app=AppSpec("slow-square"),
        objective="kill+resume smoke",
    )
    camp.sweep_group("g", nodes=1, walltime=600.0).add(
        Sweep([RangeParameter("x", 0, N_RUNS)])
    )
    return camp.to_manifest()


def slow_square(params):
    time.sleep(SLEEP_PER_RUN)
    return params["x"] ** 2


def child(root: str) -> None:
    from repro.savanna import execute_manifest

    execute_manifest(
        build_manifest(),
        backend="local-processes",
        app_fn=slow_square,
        directory=root,
        max_workers=1,  # serial completion -> deterministic store growth
    )


def count_done(store_path: Path) -> int:
    """Runs the store records DONE, read without taking a write handle."""
    if not store_path.exists():
        return 0
    try:
        conn = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
        try:
            return conn.execute(
                "SELECT COUNT(*) FROM runs WHERE status = 'done'"
            ).fetchone()[0]
        finally:
            conn.close()
    except sqlite3.OperationalError:  # schema not created yet
        return 0


def parent() -> int:
    root = Path(tempfile.mkdtemp(prefix="smoke-realexec-"))
    store_path = root / "smoke-realexec" / ".cheetah" / "store.sqlite"

    # Own session: the kill takes the child driver and its pool workers
    # at once, so no worker is left orphaned behind the smoke test.
    proc = subprocess.Popen(
        [sys.executable, __file__, "--child", str(root)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        start_new_session=True,
    )
    deadline = time.monotonic() + TIMEOUT
    try:
        while count_done(store_path) < KILL_AFTER_DONE:
            if proc.poll() is not None:
                print("FAIL: child finished before it could be killed "
                      f"(rc={proc.returncode}) — raise N_RUNS/SLEEP_PER_RUN")
                return 1
            if time.monotonic() > deadline:
                print("FAIL: store never recorded "
                      f"{KILL_AFTER_DONE} runs done within {TIMEOUT}s")
                return 1
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the driver and its workers already exited
            pass
        proc.wait()
    print(f"killed child driver (pid {proc.pid}) mid-campaign")

    from repro.cheetah.directory import RunStatus, resolve_campaign_dir
    from repro.observability import GROUP_RESUMED
    from repro.resilience.checkpoint import CampaignCheckpoint
    from repro.savanna import execute_manifest
    from repro.savanna.realexec import wall_clock_bus

    directory = resolve_campaign_dir(root / "smoke-realexec")
    with directory.open_store() as store:
        integrity = store.query("PRAGMA integrity_check")
    assert integrity == [("ok",)], f"store damaged by the kill: {integrity}"
    checkpoint = CampaignCheckpoint(directory)
    done_before = checkpoint.completed()
    pending_before = checkpoint.pending()
    print(f"store after kill: {len(done_before)} done, "
          f"{len(pending_before)} pending")
    assert done_before, "no run recorded DONE before the kill"
    assert pending_before, "kill landed after the campaign drained"
    assert len(done_before) + len(pending_before) == N_RUNS

    bus = wall_clock_bus()
    events = []
    bus.subscribe(events.append)
    result = execute_manifest(
        build_manifest(),
        backend="local-processes",
        app_fn=slow_square,
        directory=directory,
        resume=True,
        max_workers=2,
        bus=bus,
    )

    executed = set(result.results)
    assert executed == pending_before, (
        f"resume must re-queue exactly the pending set: "
        f"ran {sorted(executed)}, store said {sorted(pending_before)}"
    )
    resumed = [e for e in events if e.name == GROUP_RESUMED]
    assert resumed and resumed[0].fields["skipped"] == len(done_before)
    assert result.all_done, result.summary()
    status = resolve_campaign_dir(directory.root).read_status()
    assert all(s is RunStatus.DONE for s in status.values())
    print(f"resume re-queued exactly the {len(pending_before)} pending runs; "
          f"campaign complete ({N_RUNS}/{N_RUNS} done)")
    return 0


def main() -> int:
    if len(sys.argv) >= 3 and sys.argv[1] == "--child":
        child(sys.argv[2])
        return 0
    return parent()


if __name__ == "__main__":
    sys.exit(main())
