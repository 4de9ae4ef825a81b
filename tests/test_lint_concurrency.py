"""Tests for the FAIR5xx concurrency-safety stack beyond the fire/silent
pairs in ``test_lint_rules.py``: interprocedural reach, role-based
severity, the drive/service gates, the incremental cache, the auto-fix
engine, and the CLI surface.

The fixture app functions live in ``lint_fixture_apps`` (a real module,
because ``lint_app_fn`` resolves callables through their module source).
"""

from __future__ import annotations

import ast
import json
import sys
import textwrap
import threading
import time

import pytest

import lint_fixture_apps as fixture_apps
from repro.cheetah import AppSpec, Campaign, Sweep, SweepParameter
from repro.cheetah.directory import CampaignDirectory, resolve_campaign_dir
from repro.lint import fix_source, lint_app_fn, lint_path, lint_paths
from repro.lint import cache as lint_cache
from repro.lint import flow as lint_flow
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import CampaignLintError
from repro.lint.findings import Severity
from repro.savanna import CampaignService, execute_manifest


def make_manifest(name="conc", n=2, metadata=None):
    camp = Campaign(name, app=AppSpec("conc-app"), metadata=metadata or {})
    sg = camp.sweep_group("g", nodes=1, walltime=60.0)
    sg.add(Sweep([SweepParameter("x", range(n))]))
    return camp.to_manifest()


def rule_ids(report):
    return [f.rule_id for f in report.findings]


# -- analysis depth -----------------------------------------------------------


class TestInterprocedural:
    def test_violation_in_reachable_helper_is_found(self):
        report = lint_app_fn(fixture_apps.calls_noisy_helper, pool="threads")
        assert "FAIR502" in rule_ids(report)
        finding = next(f for f in report.findings if f.rule_id == "FAIR502")
        assert "_noisy_helper" in finding.location  # blamed at the callee site

    def test_helper_seeding_counts_as_evidence(self):
        # seeded() seeds both ambient RNGs from the params — silent.
        report = lint_app_fn(fixture_apps.seeded, pool="threads")
        assert "FAIR502" not in rule_ids(report)

    def test_worker_role_escalates_to_error(self):
        report = lint_app_fn(fixture_apps.mutates_global, pool="threads")
        fair501 = [f for f in report.findings if f.rule_id == "FAIR501"]
        assert fair501 and all(f.severity is Severity.ERROR for f in fair501)

    def test_file_scan_softens_to_warning(self, tmp_path):
        # The same pattern found by a plain file scan (role unknown —
        # nothing says this function ever runs on a worker pool) is a
        # WARNING, not a gate.
        source = tmp_path / "maybe_worker.py"
        source.write_text(
            textwrap.dedent(
                """
                TOTAL = 0.0

                def accumulate(params):
                    global TOTAL
                    TOTAL += params["x"]
                    return TOTAL
                """
            )
        )
        report = lint_path(source)
        fair501 = [f for f in report.findings if f.rule_id == "FAIR501"]
        assert fair501 and all(f.severity is Severity.WARNING for f in fair501)

    def test_pickle_probe_names_the_closure(self):
        report = lint_app_fn(fixture_apps.make_closure_app(), pool="processes")
        fair503 = [f for f in report.findings if f.rule_id == "FAIR503"]
        assert fair503 and fair503[0].severity is Severity.ERROR
        # ...and the same callable is fine under threads.
        assert "FAIR503" not in rule_ids(
            lint_app_fn(fixture_apps.make_closure_app(), pool="threads")
        )

    def test_suppression_moves_findings_aside(self):
        report = lint_app_fn(
            fixture_apps.mutates_global, pool="threads", suppress=("FAIR501",)
        )
        assert "FAIR501" not in rule_ids(report)
        assert "FAIR501" in [f.rule_id for f in report.suppressed]
        assert not report.errors


# -- zero false positives on the shipped corpus -------------------------------


class TestShippedCodeStaysClean:
    @pytest.mark.parametrize("tree", ["examples", "src/repro/apps"])
    def test_no_fair5xx_findings(self, tree):
        report = lint_paths([tree], cache=False)
        noisy = [f for f in report.findings if f.rule_id.startswith("FAIR5")]
        assert noisy == []


# -- the drive gate -----------------------------------------------------------


class TestDriveGate:
    def test_refuses_error_finding_under_processes(self, tmp_path):
        with pytest.raises(CampaignLintError) as err:
            execute_manifest(
                make_manifest("gated"),
                backend="local-processes",
                app_fn=fixture_apps.mutates_global,
                directory=tmp_path,
            )
        assert "FAIR501" in str(err.value)

    def test_lint_false_overrides(self, tmp_path):
        result = execute_manifest(
            make_manifest("ungated"),
            backend="local-threads",
            app_fn=fixture_apps.mutates_global,
            directory=tmp_path,
            lint=False,
        )
        assert result.all_done

    def test_manifest_suppression_admits_and_persists(self, tmp_path):
        manifest = make_manifest(
            "waved-through",
            metadata={"lint": {"suppress": ["FAIR501"]}},
        )
        result = execute_manifest(
            manifest,
            backend="local-threads",
            app_fn=fixture_apps.mutates_global,
            directory=tmp_path,
        )
        assert result.all_done
        directory = resolve_campaign_dir(tmp_path / "waved-through")
        stored = directory.read_lint_report()
        assert stored is not None
        assert "FAIR501" in [f.rule_id for f in stored.suppressed]

    def test_clean_app_report_is_persisted(self, tmp_path):
        manifest = make_manifest("clean-run")
        execute_manifest(
            manifest,
            backend="local-threads",
            app_fn=fixture_apps.clean,
            directory=tmp_path,
        )
        payload = json.loads(
            (tmp_path / "clean-run" / ".cheetah" / "lint.json").read_text()
        )
        assert payload["schema"] == "repro.lint.report/v1"
        assert payload["campaign"] == "clean-run"


# -- the service gate ---------------------------------------------------------


class TestServiceGate:
    def test_submit_refuses_error_finding(self):
        service = CampaignService()
        with pytest.raises(CampaignLintError):
            service.submit(
                make_manifest("svc-gated"),
                backend="local-processes",
                app_fn=fixture_apps.mutates_global,
            )
        assert service.queued == 0  # refused before queueing

    def test_warning_findings_ride_on_the_handle(self):
        service = CampaignService()
        handle = service.submit(
            make_manifest("svc-warned"),
            backend="local-threads",
            app_fn=fixture_apps.unseeded,
        )
        assert handle.lint_report is not None
        assert "FAIR502" in [f.rule_id for f in handle.lint_report.findings]
        assert not handle.lint_report.errors

    def test_lint_false_and_simulated_skip_the_gate(self):
        service = CampaignService()
        opted_out = service.submit(
            make_manifest("svc-optout"),
            backend="local-processes",
            app_fn=fixture_apps.mutates_global,
            lint=False,
        )
        assert opted_out.lint_report is None
        simulated = service.submit(make_manifest("svc-sim"))
        assert simulated.lint_report is None


# -- one locked parse path ------------------------------------------------------


class TestParseLock:
    """Every parse in the lint package goes through ``flow.parse_source``.

    A guard, not a reproduction: the CPython 3.11 AST race this lock
    closes did not reproduce on demand.  Instead ``ast.parse`` is wrapped
    to count how many threads are inside it at once, yielding the
    interpreter lock while counted; any parse that bypasses the lock
    shows up as a second thread inside.
    """

    THREADS = 8
    CALLS = 20

    def test_concurrent_app_fn_lint_never_parses_in_parallel(self, monkeypatch):
        real_parse = ast.parse
        guard = threading.Lock()
        state = {"inside": 0, "most": 0, "parses": 0}

        def counting_parse(*args, **kwargs):
            with guard:
                state["inside"] += 1
                state["parses"] += 1
                state["most"] = max(state["most"], state["inside"])
            try:
                time.sleep(0)  # let another thread in, were it unlocked
                return real_parse(*args, **kwargs)
            finally:
                with guard:
                    state["inside"] -= 1

        monkeypatch.setattr(ast, "parse", counting_parse)
        expected = rule_ids(lint_app_fn(fixture_apps.calls_noisy_helper, pool="threads"))
        start = threading.Barrier(self.THREADS)
        results: list = []
        errors: list = []

        def worker():
            start.wait(timeout=30)
            for _ in range(self.CALLS):
                try:
                    report = lint_app_fn(fixture_apps.calls_noisy_helper, pool="threads")
                except Exception as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)
                else:
                    results.append(rule_ids(report))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * (self.THREADS * self.CALLS)
        assert state["parses"] >= self.THREADS * self.CALLS + 1
        assert state["most"] == 1

    def test_parse_source_raises_syntax_error_like_ast_parse(self):
        with pytest.raises(SyntaxError):
            lint_flow.parse_source("def broken(:\n")
        assert not lint_flow._PARSE_LOCK.locked()


# -- the incremental cache ----------------------------------------------------


def _campaign_dir_with_source(tmp_path, name="cached", script="print('hi')\n"):
    manifest = make_manifest(name)
    directory = CampaignDirectory(tmp_path, manifest)
    directory.create()
    (directory.root / "analysis.py").write_text(script)
    return directory.root


class TestIncrementalCache:
    def test_warm_lint_hits_the_cache(self, tmp_path):
        root = _campaign_dir_with_source(tmp_path)
        cold = lint_path(root)
        cache_file = lint_cache.cache_path_for(root)
        assert cache_file.is_file()
        payload = json.loads(cache_file.read_text())
        assert payload["schema"] == lint_cache.CACHE_SCHEMA
        warm = lint_path(root)
        assert rule_ids(warm) == rule_ids(cold)

    def test_source_change_invalidates(self, tmp_path):
        root = _campaign_dir_with_source(tmp_path)
        cold = lint_path(root)
        assert "FAIR501" not in rule_ids(cold)
        (root / "analysis.py").write_text(
            "STATE = {}\n\ndef f(params):\n    STATE[1] = params\n    return 1\n"
        )
        changed = lint_path(root)
        assert "FAIR501" in rule_ids(changed)

    def test_suppress_set_is_part_of_the_key(self, tmp_path):
        root = _campaign_dir_with_source(
            tmp_path,
            script="STATE = {}\n\ndef f(params):\n    STATE[1] = params\n    return 1\n",
        )
        plain = lint_path(root)
        assert "FAIR501" in rule_ids(plain)
        quiet = lint_path(root, suppress=("FAIR501",))
        assert "FAIR501" not in rule_ids(quiet)
        # and flipping back still sees the (differently-keyed) finding
        assert "FAIR501" in rule_ids(lint_path(root))

    def test_corrupt_cache_is_a_miss_not_a_crash(self, tmp_path):
        root = _campaign_dir_with_source(tmp_path)
        lint_path(root)
        lint_cache.cache_path_for(root).write_text("not json{")
        report = lint_path(root)  # recomputed and re-stored
        assert json.loads(lint_cache.cache_path_for(root).read_text())["digest"]
        assert rule_ids(report) == rule_ids(lint_path(root))

    def test_cache_false_neither_reads_nor_writes(self, tmp_path):
        root = _campaign_dir_with_source(tmp_path)
        lint_path(root, cache=False)
        assert not lint_cache.cache_path_for(root).exists()


# -- the auto-fix engine ------------------------------------------------------


UNSEEDED_WRITER = textwrap.dedent(
    """
    import random

    def app(params):
        value = random.random() + params["x"]
        try:
            with open("shared.txt", "a") as fh:
                fh.write(str(value))
        except:
            pass
        return value
    """
)


class TestAutoFix:
    def test_fixed_output_relints_clean_and_compiles(self):
        outcome = fix_source(UNSEEDED_WRITER, "app.py")
        assert {f.rule_id for f in outcome.applied} == {
            "FAIR303",
            "FAIR502",
            "FAIR504",
        }
        compile(outcome.fixed, "app.py", "exec")  # still valid Python
        assert "except Exception:" in outcome.fixed
        assert "_run_seed" in outcome.fixed
        from repro.lint import lint_source

        fixed_ids = [f.rule_id for f in lint_source(outcome.fixed, "app.py").findings]
        assert "FAIR502" not in fixed_ids
        assert "FAIR504" not in fixed_ids
        assert "FAIR303" not in fixed_ids

    def test_diff_is_a_valid_unified_diff(self):
        outcome = fix_source(UNSEEDED_WRITER, "app.py")
        diff = outcome.diff()
        assert diff.startswith("--- app.py")
        assert "+++ app.py (fixed)" in diff.splitlines()[1]
        assert any(line.startswith("@@") for line in diff.splitlines())
        # applying the diff's additions/removals reproduces the rewrite
        assert diff.count("\n+") >= 3

    def test_clean_source_is_untouched(self):
        clean = "def app(params):\n    return params['x'] ** 2\n"
        outcome = fix_source(clean, "clean.py")
        assert not outcome.changed
        assert outcome.fixed == clean
        assert outcome.diff() == ""


# -- the CLI ------------------------------------------------------------------


class TestCLI:
    def test_unknown_suppress_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["examples", "--suppress", "FAIR501,NOPE999"])
        assert exc.value.code == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_comma_separated_suppress_accepted(self, tmp_path, capsys):
        source = tmp_path / "app.py"
        source.write_text(
            "STATE = {}\n\ndef f(params):\n    STATE[1] = params\n    return 1\n"
        )
        assert lint_main([str(source), "--suppress", "FAIR501,FAIR502"]) == 0

    def test_fail_on_warn_and_output_artifact(self, tmp_path, capsys):
        source = tmp_path / "app.py"
        source.write_text(
            "import random\n\ndef f(params):\n    return random.random()\n"
        )
        artifact = tmp_path / "report.json"
        code = lint_main(
            [str(source), "--fail-on", "warn", "--format", "json",
             "--output", str(artifact)]
        )
        assert code == 1
        payload = json.loads(artifact.read_text())
        assert any(res["ruleId"] == "FAIR502" for res in payload["results"])

    def test_no_cache_flag(self, tmp_path):
        manifest = make_manifest("cli-nocache")
        CampaignDirectory(tmp_path, manifest).create()
        root = tmp_path / "cli-nocache"
        assert lint_main([str(root), "--no-cache"]) == 0
        assert not lint_cache.cache_path_for(root).exists()

    def test_fix_dry_run_prints_diff_and_leaves_file(self, tmp_path, capsys):
        source = tmp_path / "app.py"
        source.write_text(UNSEEDED_WRITER)
        assert lint_main([str(source), "--fix"]) == 0
        out = capsys.readouterr().out
        assert "--- " in out and "dry run" in out
        assert source.read_text() == UNSEEDED_WRITER  # untouched

    def test_fix_write_applies(self, tmp_path, capsys):
        source = tmp_path / "app.py"
        source.write_text(UNSEEDED_WRITER)
        assert lint_main([str(source), "--fix", "--write"]) == 0
        assert "_run_seed" in source.read_text()

    def test_write_without_fix_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            lint_main([str(tmp_path), "--write"])
        assert exc.value.code == 2
