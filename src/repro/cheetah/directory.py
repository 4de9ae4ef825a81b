"""The campaign directory schema — Cheetah's on-disk end point.

"The composition engine further adopts its own directory schema to
represent a campaign end-point.  The directory hierarchy represents
simulation runs, and campaign metadata is hidden from the user" (§IV).

Layout::

    <root>/<campaign>/
      .cheetah/manifest.json        # hidden campaign metadata
      .cheetah/store.sqlite         # run status, outcomes, reports (repro.store)
      .cheetah/lint.json            # the lint verdict that admitted the drive
      <group>/run-NNNN/params.json  # one directory per run
      <group>/run-NNNN/result.json  # opt-in outcome export (json_results=True)

Status is the machine-actionable face of "users may simply re-submit a
partially completed SweepGroup ... to continue execution" (§V-D).

**Durability.** Run status, real-run outcomes and trace reports have one
record: the campaign store (:mod:`repro.store`) at
``.cheetah/store.sqlite``, into which :meth:`CampaignDirectory.create`
registers the manifest.  Every write is one sqlite transaction in WAL
mode, so a driver killed mid-write leaves the last committed state, and
concurrent writers serialize on sqlite's own lock.  The remaining files
(``manifest.json``, ``params.json``, ``lint.json`` and the
``result.json`` export) are written atomically — temp file + fsync +
``os.replace``, see :func:`repro._util.atomic_write_text`.
"""

from __future__ import annotations

import enum
import json
from pathlib import Path

from repro._util import atomic_write_text, dumps_tagged, tagged_default
from repro.cheetah.manifest import CampaignManifest, manifest_from_json, manifest_to_json


class RunStatus(enum.Enum):
    """Lifecycle of a run within a campaign directory."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class CampaignDirectory:
    """Create/read the campaign end-point directory for a manifest."""

    METADATA_DIR = ".cheetah"

    def __init__(self, root: Path, manifest: CampaignManifest):
        self.root = Path(root) / manifest.campaign
        self.manifest = manifest
        self._run_ids: frozenset | None = None
        self._store = None

    # -- creation ------------------------------------------------------------

    def create(self) -> Path:
        """Materialize the directory schema; idempotent for same manifest.

        Writes the manifest and per-run ``params.json`` files, then
        registers every run (status ``pending``) in the campaign store;
        re-creating leaves recorded statuses untouched.
        """
        meta = self.root / self.METADATA_DIR
        meta.mkdir(parents=True, exist_ok=True)
        manifest_path = meta / "manifest.json"
        text = manifest_to_json(self.manifest)
        if manifest_path.exists() and manifest_path.read_text() != text:
            raise RuntimeError(
                f"campaign directory {self.root} already holds a different manifest"
            )
        atomic_write_text(manifest_path, text)
        for run in self.manifest.runs:
            run_dir = self.root / run.run_id
            run_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                run_dir / "params.json",
                dumps_tagged(run.parameters, indent=2, sort_keys=True),
            )
        if self._store is None:
            self._store = self.open_store()
        self._store.ensure_campaign(self.manifest)
        return self.root

    def exists(self) -> bool:
        """True once :meth:`create` has materialized the campaign store."""
        return self.store_path().is_file()

    @classmethod
    def open(cls, campaign_root: Path) -> "CampaignDirectory":
        """Open an existing campaign end point from its root directory."""
        campaign_root = Path(campaign_root)
        manifest_path = campaign_root / cls.METADATA_DIR / "manifest.json"
        manifest = manifest_from_json(manifest_path.read_text())
        obj = cls.__new__(cls)
        obj.root = campaign_root
        obj.manifest = manifest
        obj._run_ids = None
        obj._store = None
        return obj

    # -- status --------------------------------------------------------------

    def read_status(self) -> dict:
        """``{run_id: RunStatus}`` for every run (one store query)."""
        statuses = self.store().statuses(self.manifest.campaign)
        return {run_id: RunStatus(value) for run_id, value in statuses.items()}

    def set_status(self, run_id: str, status: RunStatus) -> None:
        """Record one run's status."""
        self.update_status({run_id: status})

    def update_status(self, updates: dict) -> None:
        """Batch status update ``{run_id: RunStatus}``, one store transaction.

        Every id is checked against the manifest first: an unknown one
        raises ``KeyError`` and nothing is written.
        """
        for run_id in updates:
            if run_id not in self.run_ids:
                raise KeyError(f"unknown run_id {run_id!r}")
        self.store().set_statuses(self.manifest.campaign, updates)

    def pending_runs(self, group: str | None = None) -> tuple:
        """RunSpecs not yet DONE (FAILED counts as pending for resubmission)."""
        status = self.read_status()
        out = []
        for run in self.manifest.runs:
            if group is not None and run.group != group:
                continue
            if status[run.run_id] is not RunStatus.DONE:
                out.append(run)
        return tuple(out)

    def runs_where(self, status: RunStatus | None = None, **param_filters) -> tuple:
        """Query runs by status and/or exact parameter values (§IV: "an API
        to submit a campaign and query its status").

        Example: ``directory.runs_where(status=RunStatus.FAILED, feature=7)``.
        """
        statuses = self.read_status()
        out = []
        for run in self.manifest.runs:
            if status is not None and statuses[run.run_id] is not status:
                continue
            if any(
                key not in run.parameters or run.parameters[key] != value
                for key, value in param_filters.items()
            ):
                continue
            out.append(run)
        return tuple(out)

    def summary(self) -> dict:
        """Counts by status — the campaign query API of §IV, in SQL."""
        return self.store().summary(self.manifest.campaign)

    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    @property
    def run_ids(self) -> frozenset:
        """The manifest's run ids, cached (membership checks are O(1)
        even for very large campaigns)."""
        if self._run_ids is None:
            self._run_ids = frozenset(run.run_id for run in self.manifest.runs)
        return self._run_ids

    # -- real-run outcomes ---------------------------------------------------

    def write_run_result(self, run_id: str, payload: dict) -> Path:
        """Export one really-executed run's outcome as ``<run>/result.json``.

        ``payload`` is the run's outcome record (status, value, error +
        traceback, elapsed, seed, attempts — whatever the real executor
        reports).  The write is atomic, and values outside plain JSON
        are encoded losslessly with the tagged form (numpy, complex,
        bytes, set, Path, datetime); a value that cannot round-trip
        raises :class:`repro._util.UnserializableValueError` instead of
        corrupting the file.

        This is the *human-inspection export*: outcomes are recorded in
        the campaign store (:meth:`record_results`), and nothing reads
        these files back as the record.
        """
        if run_id not in self.run_ids:
            raise KeyError(f"unknown run_id {run_id!r}")
        path = self.run_dir(run_id) / "result.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path,
            json.dumps(payload, indent=2, sort_keys=True, default=tagged_default) + "\n",
        )
        return path

    def read_run_result(self, run_id: str) -> dict | None:
        """The recorded outcome of one run, from the campaign store
        (``None`` if never recorded).  Tagged values decode back to their
        original types; a ``result.json`` export is never consulted."""
        return self.store().read_run_result(self.manifest.campaign, run_id)

    def record_results(self, results: dict, json_export: bool = False) -> None:
        """Record really-executed run outcomes into the campaign store.

        ``results`` maps ``run_id`` to an outcome record (a
        :class:`~repro.savanna.realexec.LocalRunResult` or its dict
        form).  Outcomes land in ``.cheetah/store.sqlite`` via chunked
        bulk ingestion; ``json_export=True`` additionally writes the
        per-run ``result.json`` files for human inspection.  Interrupted
        runs are never recorded — they are pending, not outcomes.
        """
        self.store().record_run_results(self.manifest.campaign, results)
        if json_export:
            for run_id, outcome in results.items():
                payload = outcome if isinstance(outcome, dict) else vars(outcome)
                if payload.get("status") != "interrupted":
                    self.write_run_result(run_id, payload)

    # -- result store --------------------------------------------------------

    def store_path(self) -> Path:
        """Where this campaign's SQL-backed store lives."""
        return self.root / self.METADATA_DIR / "store.sqlite"

    def open_store(self):
        """A new connection to the campaign store, for the caller to close.

        Returns a :class:`repro.store.CampaignStore` bound to
        ``.cheetah/store.sqlite``; use it as a context manager (it
        flushes its write-behind buffer and closes on exit).
        """
        from repro.store import CampaignStore  # lazy: repro.store imports us

        return CampaignStore(self.store_path())

    def store(self):
        """The campaign store every status, outcome and report call of this
        object goes through: opened on first use, kept open while the
        object lives.  Raises ``FileNotFoundError`` before :meth:`create`.
        """
        if self._store is None:
            if not self.exists():
                raise FileNotFoundError(
                    f"campaign directory {self.root} was never created: call "
                    "CampaignDirectory.create() first"
                )
            self._store = self.open_store()
        return self._store

    # -- performance reports -------------------------------------------------

    def write_report(self, reports: list) -> None:
        """Record campaign reports in the campaign store.

        ``reports`` is a list of report dicts (or objects with
        ``to_dict()``, e.g. ``CampaignReport``) in the
        ``repro.observability.report/v1`` format.  Reports are keyed by
        group — re-running a group replaces its entry, so the store
        always holds the latest execution of each group.
        """
        self.store().record_reports(self.manifest.campaign, reports)

    def read_report(self) -> list:
        """Report dicts from the campaign store, ordered by group (empty
        if never written)."""
        return self.store().reports(self.manifest.campaign)

    def _lint_path(self) -> Path:
        return self.root / self.METADATA_DIR / "lint.json"

    def write_lint_report(self, report) -> Path:
        """Persist a lint verdict into ``.cheetah/lint.json``.

        ``report`` is a :class:`repro.lint.LintReport` (or its
        ``to_dict()`` form).  The drive writes the merged manifest +
        ``app_fn`` report here on every gated execution, so the campaign
        end point carries the analysis that admitted it — provenance for
        the lint gate, next to the run results it vouched for.
        """
        payload = report if isinstance(report, dict) else report.to_dict()
        path = self._lint_path()
        atomic_write_text(
            path,
            json.dumps(
                {
                    "schema": "repro.lint.report/v1",
                    "campaign": self.manifest.campaign,
                    "report": payload,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return path

    def read_lint_report(self):
        """The persisted lint verdict as a :class:`repro.lint.LintReport`,
        or ``None`` if the campaign was never linted (or ``lint=False``)."""
        path = self._lint_path()
        if not path.exists():
            return None
        # Imported lazily: repro.lint imports this module at load time.
        from repro.lint.findings import LintReport

        data = json.loads(path.read_text())
        return LintReport.from_dict(data.get("report", {}))


def resolve_campaign_dir(
    root, manifest: CampaignManifest | None = None, create: bool = False
) -> CampaignDirectory:
    """Resolve ``root`` to a :class:`CampaignDirectory` — the single
    resolution rule shared by ``savanna.drive``, the experiment harness,
    and the ``repro.lint`` CLI (so resume and pre-run lint always look at
    the same end point).

    ``root`` may be either

    - a campaign end point itself (a directory holding
      ``.cheetah/manifest.json``), or
    - a parent directory, with ``manifest`` naming the child end point
      (``root/<manifest.campaign>``), which is opened if present and
      created when ``create=True``.

    Raises ``FileNotFoundError`` when nothing resolves, and ``ValueError``
    when an existing end point belongs to a different campaign than the
    ``manifest`` passed in.
    """
    root = Path(root)

    def _open_checked(path: Path) -> CampaignDirectory:
        directory = CampaignDirectory.open(path)
        if manifest is not None and directory.manifest.campaign != manifest.campaign:
            raise ValueError(
                f"campaign directory {path} holds campaign "
                f"{directory.manifest.campaign!r}, expected {manifest.campaign!r}"
            )
        return directory

    if (root / CampaignDirectory.METADATA_DIR / "manifest.json").is_file():
        return _open_checked(root)
    if manifest is None:
        raise FileNotFoundError(
            f"{root} is not a campaign directory (no "
            f"{CampaignDirectory.METADATA_DIR}/manifest.json) and no manifest "
            "was given to locate one beneath it"
        )
    child = root / manifest.campaign
    if (child / CampaignDirectory.METADATA_DIR / "manifest.json").is_file():
        return _open_checked(child)
    if not create:
        raise FileNotFoundError(
            f"no campaign directory at {root} or {child} "
            "(pass create=True to materialize one)"
        )
    directory = CampaignDirectory(root, manifest)
    directory.create()
    return directory
