"""Tests for the simulation-safety linter (repro.analysis.lint).

Each rule gets at least one firing and one non-firing case; the
framework pieces (suppression, baseline, JSON schema, error paths, CLI
wiring) are covered separately.
"""

import json
import textwrap

import pytest

from repro.analysis.lint import (Baseline, Finding, PARSE_ERROR_RULE,
                                 Severity, all_rules, collect_files,
                                 format_json, format_text, lint_paths,
                                 lint_source, rule_catalogue)
from repro.cli import main as cli_main
from repro.errors import AnalysisError


def _codes(source, path="src/repro/sample.py"):
    """Rule codes fired on ``source`` (dedented), as a set."""
    findings = lint_source(textwrap.dedent(source), path=path)
    return {finding.rule for finding in findings}


# --- determinism rules --------------------------------------------------


class TestDeterminismRules:
    def test_det101_fires_on_unseeded_random(self):
        assert "DET101" in _codes("""
            import random
            rng = random.Random()
        """)

    def test_det101_fires_on_system_random(self):
        assert "DET101" in _codes("""
            import random
            rng = random.SystemRandom()
        """)

    def test_det101_silent_when_seeded(self):
        assert "DET101" not in _codes("""
            import random
            rng = random.Random(11)
        """)

    def test_det102_fires_on_global_random_call(self):
        assert "DET102" in _codes("""
            import random
            delay = random.uniform(0.0, 1.0)
        """)

    def test_det102_silent_on_instance_method(self):
        assert "DET102" not in _codes("""
            import random
            rng = random.Random(7)
            delay = rng.uniform(0.0, 1.0)
        """)

    def test_det103_fires_on_wall_clock(self):
        assert "DET103" in _codes("""
            import time
            start = time.time()
        """)
        assert "DET103" in _codes("""
            from datetime import datetime
            stamp = datetime.now()
        """)

    def test_det103_silent_on_engine_clock(self):
        assert "DET103" not in _codes("""
            def tick(engine):
                return engine.now_s
        """)

    def test_det104_fires_on_id_sort_key(self):
        assert "DET104" in _codes("""
            ordered = sorted(items, key=lambda item: (item.t, id(item)))
        """)

    def test_det104_fires_on_bare_hash_key(self):
        assert "DET104" in _codes("""
            ordered = sorted(items, key=hash)
        """)

    def test_det104_silent_on_stable_key(self):
        assert "DET104" not in _codes("""
            ordered = sorted(items, key=lambda item: (item.t, item.seq))
        """)

    def test_det105_fires_on_set_literal_iteration(self):
        assert "DET105" in _codes("""
            for name in {"a", "b"}:
                schedule(name)
        """)

    def test_det105_fires_on_set_annotated_name(self):
        assert "DET105" in _codes("""
            from typing import Set
            pending: Set[str] = set()
            for name in pending:
                schedule(name)
        """)

    def test_det105_silent_when_sorted(self):
        assert "DET105" not in _codes("""
            from typing import Set
            pending: Set[str] = set()
            for name in sorted(pending):
                schedule(name)
        """)

    def test_det106_fires_on_pickling_engine(self):
        assert "DET106" in _codes("""
            import pickle
            blob = pickle.dumps(sim.engine)
        """)

    def test_det106_fires_on_deepcopy_of_rng(self):
        assert "DET106" in _codes("""
            import copy
            saved_rng = copy.deepcopy(self._rng)
        """)

    def test_det106_fires_on_queue_attribute(self):
        assert "DET106" in _codes("""
            from copy import deepcopy
            backup = deepcopy(engine._queue)
        """)

    def test_det106_silent_on_plain_data(self):
        assert "DET106" not in _codes("""
            import copy
            settings = copy.deepcopy(config)
        """)

    def test_det106_silent_inside_checkpoint_package(self):
        assert "DET106" not in _codes("""
            import pickle
            blob = pickle.dumps(engine_state)
        """, path="src/repro/checkpoint/snapshot.py")

    def test_det107_fires_on_wall_clock_in_exec_core(self):
        assert "DET107" in _codes("""
            import time
            deadline = time.monotonic() + 5.0
        """, path="src/repro/exec/driver.py")

    def test_det107_fires_on_sleep_in_exec_core(self):
        assert "DET107" in _codes("""
            import time
            time.sleep(0.1)
        """, path="src/repro/exec/executors.py")

    def test_det107_silent_in_the_supervisor(self):
        assert "DET107" not in _codes("""
            import time
            now_s = time.monotonic()
        """, path="src/repro/exec/supervisor.py")

    def test_det107_silent_outside_the_exec_core(self):
        assert "DET107" not in _codes("""
            import time
            start = time.time()
        """, path="src/repro/harness/compare.py")


# --- unit-hygiene rules -------------------------------------------------


class TestUnitRules:
    def test_unit201_fires_on_magnitude_literal(self):
        assert "UNIT201" in _codes("ms = latency_s * 1e3\n")
        assert "UNIT201" in _codes("gb = rate / 1e9\n")

    def test_unit201_silent_on_units_helper(self):
        assert "UNIT201" not in _codes("""
            from repro.units import as_msec
            ms = as_msec(latency_s)
        """)

    def test_unit201_silent_on_tolerance_constant(self):
        assert "UNIT201" not in _codes("_DEMAND_TOL = 2 * 1e-6\n")

    def test_unit201_silent_inside_units_module(self):
        assert "UNIT201" not in _codes(
            "def gbps(value):\n    return value * 1e9\n",
            path="src/repro/units.py")

    def test_unit202_fires_on_mixed_time_suffixes(self):
        assert "UNIT202" in _codes("total = start_s + delay_us\n")

    def test_unit202_fires_on_mixed_rate_comparison(self):
        assert "UNIT202" in _codes("ok = offered_bps < limit_gbps\n")

    def test_unit202_silent_on_consistent_units(self):
        assert "UNIT202" not in _codes("total_s = start_s + delay_s\n")

    def test_unit203_fires_on_float_time_equality(self):
        assert "UNIT203" in _codes("same = arrival_s == departure_s\n")

    def test_unit203_silent_on_zero_sentinel(self):
        assert "UNIT203" not in _codes("empty = duration_s == 0\n")

    def test_unit203_silent_on_pytest_approx(self):
        assert "UNIT203" not in _codes(
            "assert mean_s == pytest.approx(other_s, rel=0.02)\n")


# --- event-safety rules -------------------------------------------------


class TestEventRules:
    def test_evt301_fires_on_raw_heappush(self):
        assert "EVT301" in _codes("""
            import heapq
            heapq.heappush(queue, (when, action))
        """)

    def test_evt301_fires_on_from_import(self):
        assert "EVT301" in _codes("""
            from heapq import heappush
            heappush(queue, (when, action))
        """)
        assert "EVT301" in _codes("""
            from heapq import heappop as take
            event = take(queue)
        """)

    def test_evt301_fires_on_module_alias(self):
        assert "EVT301" in _codes("""
            import heapq as hq
            hq.heappush(queue, (when, action))
        """)

    def test_evt301_silent_on_unrelated_names(self):
        assert "EVT301" not in _codes("""
            from bisect import insort
            import heapq as hq
            insort(queue, (when, action))
            heappush(queue, (when, action))
            hq.heapsize(queue)
        """)

    def test_evt301_silent_inside_eventqueue_module(self):
        assert "EVT301" not in _codes(
            "import heapq\nheapq.heappush(self._heap, event)\n",
            path="src/repro/sim/events.py")

    def test_evt301_silent_inside_engine_module(self):
        assert "EVT301" not in _codes(
            "from heapq import heappop\nentry = heappop(heap)\n",
            path="src/repro/sim/engine.py")

    def test_evt302_fires_on_queue_poking(self):
        assert "EVT302" in _codes("""
            def handler(engine):
                engine._queue.pop()
        """)
        # The queue's seq counter, heap, action table and stream step.
        for attr in ("_seq", "_heap", "_action_table", "_action_ids",
                     "_run_stream"):
            assert "EVT302" in _codes(f"""
                def handler(queue):
                    return queue.{attr}
            """), attr

    def test_evt302_fires_on_clock_write(self):
        assert "EVT302" in _codes("""
            def handler(engine):
                engine.now_s = 0.0
        """)

    def test_evt302_silent_on_public_api(self):
        assert "EVT302" not in _codes("""
            def handler(engine):
                engine.after(0.001, lambda: None, control=True)
        """)


# --- exception-hygiene rules --------------------------------------------


class TestExceptionRules:
    def test_exc401_fires_on_bare_except(self):
        assert "EXC401" in _codes("""
            try:
                migrate()
            except:
                pass
        """)

    def test_exc401_silent_on_typed_except(self):
        assert "EXC401" not in _codes("""
            try:
                migrate()
            except ValueError:
                pass
        """)

    def test_exc402_fires_on_swallowing_broad_except(self):
        assert "EXC402" in _codes("""
            try:
                migrate()
            except Exception:
                log("oops")
        """)

    def test_exc402_silent_when_reraising(self):
        assert "EXC402" not in _codes("""
            try:
                migrate()
            except Exception:
                cleanup()
                raise
        """)

    def test_exc403_fires_on_pass_in_resilience(self):
        assert "EXC403" in _codes("""
            try:
                evacuate()
            except MigrationError:
                pass
        """, path="src/repro/resilience/controller.py")

    def test_exc403_fires_on_bare_return_in_migration(self):
        assert "EXC403" in _codes("""
            def attempt():
                try:
                    copy_state()
                except OSError:
                    return
        """, path="src/repro/migration/executor.py")

    def test_exc403_silent_when_failure_is_recorded(self):
        assert "EXC403" not in _codes("""
            try:
                evacuate()
            except MigrationError:
                attempts -= 1
        """, path="src/repro/resilience/controller.py")

    def test_exc403_silent_outside_recovery_scopes(self):
        assert "EXC403" not in _codes("""
            try:
                render()
            except ValueError:
                pass
        """, path="src/repro/telemetry/recorder.py")


# --- suppression --------------------------------------------------------


class TestSuppression:
    def test_noqa_with_code_suppresses_that_rule(self):
        codes = _codes("""
            import random
            delay = random.uniform(0.0, 1.0)  # repro: noqa[DET102]
        """)
        assert "DET102" not in codes

    def test_noqa_is_per_rule(self):
        codes = _codes("""
            import random
            delay = random.uniform(0.0, 1.0)  # repro: noqa[UNIT201]
        """)
        assert "DET102" in codes

    def test_bare_noqa_suppresses_everything_on_line(self):
        codes = _codes("""
            import random
            delay = random.uniform(0.0, 1e3 * 1.0)  # repro: noqa
        """)
        assert codes == set()

    def test_noqa_in_string_literal_does_not_suppress(self):
        codes = _codes("""
            import random
            note = "# repro: noqa[DET102]"
            delay = random.uniform(0.0, 1.0)
        """)
        assert "DET102" in codes


# --- framework: parse errors, collection, formats -----------------------


class TestFramework:
    def test_parse_error_reports_offending_file(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert len(findings) == 1
        assert findings[0].rule == PARSE_ERROR_RULE
        assert findings[0].severity is Severity.ERROR
        assert findings[0].path == "bad.py"
        assert "cannot parse" in findings[0].message

    def test_missing_path_raises_analysis_error(self):
        with pytest.raises(AnalysisError, match="does not exist"):
            collect_files(["/nonexistent/dir/xyz"])

    def test_empty_path_list_raises(self):
        with pytest.raises(AnalysisError, match="no paths"):
            collect_files([])

    def test_lint_paths_over_directory(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nrandom.seed(1)\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert {f.rule for f in report.findings} == {"DET102"}
        assert report.exit_code(Severity.ERROR) == 1
        assert report.exit_code(Severity.WARNING) == 1

    def test_exit_code_thresholds(self, tmp_path):
        (tmp_path / "warn.py").write_text("ms = t_s * 1e3\n")
        report = lint_paths([tmp_path])
        assert report.worst() is Severity.WARNING
        assert report.exit_code(Severity.ERROR) == 0
        assert report.exit_code(Severity.WARNING) == 1

    def test_json_output_schema(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nrandom.seed(1)\n")
        report = lint_paths([tmp_path])
        payload = json.loads(format_json(report))
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "severity", "path", "line",
                                "col", "message", "context"}
        assert finding["rule"] == "DET102"
        assert finding["severity"] == "error"
        assert finding["line"] == 2
        assert finding["context"] == "random.seed(1)"

    def test_text_output_has_location_and_summary(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\nrandom.seed(1)\n")
        report = lint_paths([tmp_path])
        text = format_text(report)
        assert "a.py:2:1: DET102" in text
        assert "1 error(s), 0 warning(s)" in text

    def test_rule_catalogue_lists_every_rule(self):
        catalogue = rule_catalogue()
        for rule in all_rules():
            assert rule.code in catalogue

    def test_registry_has_twelve_rules(self):
        assert len(all_rules()) >= 12


# --- baseline -----------------------------------------------------------


def _write_baseline(path, entries):
    path.write_text(json.dumps({"version": 1, "entries": entries}))


class TestBaseline:
    def test_baseline_absorbs_matching_finding(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("import random\nrandom.seed(1)\n")
        baseline_path = tmp_path / "baseline.json"
        _write_baseline(baseline_path, [{
            "rule": "DET102", "path": target.as_posix(),
            "context": "random.seed(1)", "line": 2,
            "reason": "fixture for this test"}])
        report = lint_paths([target], baseline=Baseline.load(baseline_path))
        assert report.findings == []
        assert len(report.baselined) == 1
        assert report.exit_code(Severity.WARNING) == 0

    def test_baseline_matches_despite_line_drift(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("# a new leading comment\n"
                          "import random\nrandom.seed(1)\n")
        baseline_path = tmp_path / "baseline.json"
        _write_baseline(baseline_path, [{
            "rule": "DET102", "path": target.as_posix(),
            "context": "random.seed(1)", "line": 2,
            "reason": "line number is stale on purpose"}])
        report = lint_paths([target], baseline=Baseline.load(baseline_path))
        assert report.findings == []

    def test_each_entry_absorbs_only_one_finding(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("import random\nrandom.seed(1)\nrandom.seed(1)\n")
        baseline_path = tmp_path / "baseline.json"
        _write_baseline(baseline_path, [{
            "rule": "DET102", "path": target.as_posix(),
            "context": "random.seed(1)", "line": 2,
            "reason": "only the first occurrence is accepted"}])
        report = lint_paths([target], baseline=Baseline.load(baseline_path))
        assert len(report.findings) == 1
        assert len(report.baselined) == 1

    def test_stale_entries_are_reported(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        baseline_path = tmp_path / "baseline.json"
        _write_baseline(baseline_path, [{
            "rule": "DET102", "path": target.as_posix(),
            "context": "random.seed(1)", "line": 2,
            "reason": "the finding was fixed; entry should be pruned"}])
        report = lint_paths([target], baseline=Baseline.load(baseline_path))
        assert len(report.stale_baseline) == 1
        assert "prune" in format_text(report)

    def test_out_of_scope_entries_are_not_stale(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        other = tmp_path / "unchecked.py"
        other.write_text("import random\nrandom.seed(1)\n")
        baseline_path = tmp_path / "baseline.json"
        _write_baseline(baseline_path, [{
            "rule": "DET102", "path": other.as_posix(),
            "context": "random.seed(1)", "line": 2,
            "reason": "entry for a file outside the checked paths"}])
        report = lint_paths([target], baseline=Baseline.load(baseline_path))
        assert report.stale_baseline == []

    def test_baseline_requires_reason(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        _write_baseline(baseline_path, [{
            "rule": "DET102", "path": "a.py",
            "context": "random.seed(1)", "reason": "  "}])
        with pytest.raises(AnalysisError, match="reason"):
            Baseline.load(baseline_path)

    def test_baseline_rejects_bad_version(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(AnalysisError, match="version"):
            Baseline.load(baseline_path)

    def test_missing_baseline_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="not found"):
            Baseline.load(tmp_path / "nope.json")

    def test_render_emits_loadable_document(self, tmp_path):
        finding = Finding(path="a.py", line=1, col=1, rule="DET102",
                          severity=Severity.ERROR, message="m",
                          context="random.seed(1)")
        baseline_path = tmp_path / "generated.json"
        baseline_path.write_text(Baseline.render([finding], reason="why"))
        loaded = Baseline.load(baseline_path)
        assert len(loaded) == 1
        assert loaded.entries[0].reason == "why"


# --- CLI wiring ---------------------------------------------------------


class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = cli_main(["lint", "--no-baseline", str(tmp_path)])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_error_finding_fails_run(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\nrandom.seed(1)\n")
        code = cli_main(["lint", "--no-baseline", str(tmp_path)])
        assert code == 1
        assert "DET102" in capsys.readouterr().out

    def test_warning_passes_unless_fail_on_warning(self, tmp_path):
        (tmp_path / "warn.py").write_text("ms = t_s * 1e3\n")
        assert cli_main(["lint", "--no-baseline", str(tmp_path)]) == 0
        assert cli_main(["lint", "--no-baseline", "--fail-on", "warning",
                         str(tmp_path)]) == 1

    def test_nonexistent_path_is_clean_error(self, tmp_path, capsys):
        code = cli_main(["lint", str(tmp_path / "missing")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "missing" in err

    def test_unparseable_file_reports_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        code = cli_main(["lint", "--no-baseline", str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        assert "broken.py" in out and "E000" in out

    def test_json_format_flag(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code = cli_main(["lint", "--no-baseline", "--format", "json",
                         str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\nrandom.seed(1)\n")
        baseline_path = tmp_path / "baseline.json"
        assert cli_main(["lint", "--no-baseline", "--write-baseline",
                         str(baseline_path), str(target)]) == 0
        # The generated baseline needs reasons filled in to load.
        document = json.loads(baseline_path.read_text())
        for entry in document["entries"]:
            entry["reason"] = "accepted for the round-trip test"
        baseline_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert cli_main(["lint", "--baseline", str(baseline_path),
                         str(target)]) == 0

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET101" in out and "EXC402" in out


# --- the tree itself ----------------------------------------------------


class TestSelfApplication:
    def test_library_tree_is_lint_clean(self):
        # src/repro must stay clean without any baseline help.
        report = lint_paths(["src/repro"])
        assert report.findings == [], format_text(report)
