"""Migration: a campaign directory's record -> another campaign store.

A campaign directory keeps its durable record — run statuses, real-run
outcomes and trace reports — in its own store at
``.cheetah/store.sqlite``.  :func:`ingest_directory` copies that record
into any other store (a shared catalog of many campaigns, a throwaway
``:memory:`` store), so the §II-C catalog queries run over all of them
in SQL; :func:`export_directory` goes the other way, materializing the
per-run ``result.json`` files for human inspection.

The migration copies exactly what resume trusts: the statuses and
outcomes the directory's store holds.  The ``result.json`` files are an
export and are never read back.
"""

from __future__ import annotations

from pathlib import Path

from repro.cheetah.directory import resolve_campaign_dir


def ingest_directory(store, root: str | Path) -> dict:
    """Ingest one campaign directory into ``store``.

    Returns a summary dict: ``campaign``, ``runs`` (registered),
    ``results`` (outcomes ingested), ``statuses`` (rows recorded),
    ``reports`` (reports merged).
    """
    directory = resolve_campaign_dir(root)
    manifest = directory.manifest
    store.ensure_campaign(manifest)

    statuses = directory.read_status()
    store.set_statuses(manifest.campaign, statuses)

    results = 0
    for run in manifest.runs:
        payload = directory.read_run_result(run.run_id)
        if payload is None:
            continue
        store.add_result(
            manifest.campaign,
            run.run_id,
            status=payload["status"],
            value=payload["value"],
            error=payload["error"],
            traceback=payload["traceback"],
            elapsed=payload["elapsed"],
            attempts=payload["attempts"],
            seed=payload["seed"],
        )
        results += 1
    store.flush()

    reports = directory.read_report()
    if reports:
        store.record_reports(manifest.campaign, reports)

    return {
        "campaign": manifest.campaign,
        "runs": len(manifest.runs),
        "results": results,
        "statuses": len(statuses),
        "reports": len(reports),
    }


def export_directory(store, root: str | Path) -> int:
    """Materialize per-run ``result.json`` files from the store.

    The opt-in human-inspection export.  Returns the number of files
    written.
    """
    directory = resolve_campaign_dir(root)
    campaign = directory.manifest.campaign
    written = 0
    for run in directory.manifest.runs:
        payload = store.read_run_result(campaign, run.run_id)
        if payload is None:
            continue
        directory.write_run_result(run.run_id, payload)
        written += 1
    return written
