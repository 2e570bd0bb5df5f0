"""Tests for the whole-program lint layer (repro.analysis.lint.project).

The fixture mini-package ``tests/fixtures/lintproj`` carries one
deliberate instance of each seeded violation class — a literal RNG seed
two calls deep, a ``_us`` value crossing into a ``_s`` parameter, a
set-ordered journal payload — next to clean twins that must stay quiet.
Golden files pin the call graph and the dataflow summaries so loader or
fixpoint regressions surface as a readable diff, not a silent rule
miss.
"""

import ast
import json
import subprocess
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import (Baseline, format_sarif, lint_paths,
                                 lint_source, rule_catalogue)
from repro.analysis.lint.incremental import changed_python_files
from repro.analysis.lint.project import (all_project_rules, analyze_files,
                                         analyze_project, build_callgraph,
                                         build_project, dump_callgraph,
                                         dump_summaries, lint_project_files,
                                         module_name_from_layout,
                                         parse_files, run_project_rules)
from repro.cli import main as cli_main
from repro.errors import AnalysisError

FIXTURE = Path(__file__).parent / "fixtures" / "lintproj"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _fixture_files():
    return sorted(FIXTURE.rglob("*.py"))


@pytest.fixture(scope="module")
def fixture_analysis():
    """One shared analysis of the fixture package."""
    return analyze_files(_fixture_files())


@pytest.fixture(scope="module")
def fixture_findings(fixture_analysis):
    return run_project_rules(fixture_analysis)


def _rules_at(findings, name):
    """Rule codes reported in the fixture module ``name``."""
    return {f.rule for f in findings if f.path.endswith(name)}


def _project_of_sources(named_sources):
    """Build a Project from in-memory ``{filename: source}`` modules."""
    triples = [(Path(name), textwrap.dedent(source),
                ast.parse(textwrap.dedent(source)))
               for name, source in named_sources.items()]
    return build_project(triples)


def _codes_of_sources(named_sources):
    analysis = analyze_project(_project_of_sources(named_sources))
    return [f.rule for f in run_project_rules(analysis)]


# --- loader / call graph ------------------------------------------------


class TestLoader:
    def test_module_names_follow_package_markers(self):
        assert module_name_from_layout(FIXTURE / "rng.py") == \
            "lintproj.rng"
        assert module_name_from_layout(FIXTURE / "__init__.py") == \
            "lintproj"

    def test_reexport_resolves_to_definition(self, fixture_analysis):
        project = fixture_analysis.project
        package = project.modules["lintproj"]
        resolved = project.resolve(package, "make_rng")
        assert resolved == "lintproj.rng.make_rng"
        assert project.function_at(resolved) is not None

    def test_lazy_table_reexports_resolve_to_definition(self):
        # The package inits under src/repro re-export through an
        # _EXPORTS table (repro._lazy), not import statements.
        parsed, errors = parse_files(sorted(SRC.rglob("*.py")))
        assert errors == []
        project = build_project(parsed)
        assert project.resolve(project.modules["repro.exec"],
                               "run_campaign") == \
            "repro.exec.driver.run_campaign"
        assert project.resolve(project.modules["repro.sim"], "Engine") == \
            "repro.sim.engine.Engine"
        assert project.function_at("repro.exec.run_campaign") is \
            project.functions["repro.exec.driver.run_campaign"]
        assert project.function_at("repro.sim.Engine") is \
            project.functions["repro.sim.engine.Engine.__init__"]
        # A submodule exported by name.
        assert project.resolve(project.modules["repro.chain"],
                               "catalog") == "repro.chain.catalog"

    def test_callgraph_matches_golden(self, fixture_analysis):
        graph = build_callgraph(fixture_analysis.project)
        expected = (GOLDEN / "lintproj_callgraph.txt").read_text()
        assert dump_callgraph(graph, within="lintproj") + "\n" == expected

    def test_summaries_match_golden(self, fixture_analysis):
        expected = (GOLDEN / "lintproj_summaries.txt").read_text()
        assert dump_summaries(fixture_analysis,
                              within="lintproj") + "\n" == expected

    def test_fixpoint_terminates_quickly(self, fixture_analysis):
        assert fixture_analysis.rounds <= 8

    def test_dataclass_init_is_synthesized(self):
        project = _project_of_sources({"spec.py": """
            from dataclasses import dataclass

            @dataclass
            class Spec:
                name: str
                seed: int
        """})
        init = project.functions.get("spec.Spec.__init__")
        assert init is not None and init.synthetic
        assert init.params == ["name", "seed"]


# --- FLOW5xx seed provenance -------------------------------------------


class TestSeedProvenance:
    def test_flow501_literal_two_calls_deep(self, fixture_findings):
        hits = [f for f in fixture_findings if f.rule == "FLOW501"]
        assert len(hits) == 1
        assert hits[0].path.endswith("rng.py")
        assert "build_generator" in hits[0].message

    def test_flow502_wall_clock_seed(self, fixture_findings):
        assert "FLOW502" in _rules_at(fixture_findings, "rng.py")

    def test_parameter_seed_is_clean(self, fixture_findings):
        assert all("spec_rng" not in f.message for f in fixture_findings)

    def test_self_attribute_seed_is_clean(self, fixture_findings):
        assert all("FlowGen" not in f.message for f in fixture_findings)

    def test_flow503_fires_on_untraceable_seed(self):
        codes = _codes_of_sources({"m.py": """
            import random

            def build():
                seed = mystery_registry["seed"]
                return random.Random(seed)
        """})
        assert "FLOW503" in codes

    def test_seed_for_derivation_is_clean(self):
        codes = _codes_of_sources({"m.py": """
            import random
            from repro.exec.scenario import seed_for

            def build(campaign_seed, index):
                return random.Random(seed_for(campaign_seed, index))
        """})
        assert not any(code.startswith("FLOW") for code in codes)

    def test_dataclass_spec_field_seed_is_clean(self):
        codes = _codes_of_sources({"m.py": """
            import random
            from dataclasses import dataclass

            @dataclass
            class Spec:
                seed: int

            def build(spec):
                return random.Random(spec.seed)
        """})
        assert not any(code.startswith("FLOW") for code in codes)


# --- UNIT21x inter-procedural unit flow --------------------------------


class TestUnitFlow:
    def test_unit210_cross_call_mismatch(self, fixture_findings):
        hits = [f for f in fixture_findings if f.rule == "UNIT210"]
        assert len(hits) == 1
        assert "timeout_s" in hits[0].message

    def test_converted_call_is_clean(self, fixture_findings):
        lines = {f.line for f in fixture_findings
                 if f.path.endswith("timeflow.py")}
        source = (FIXTURE / "timeflow.py").read_text().splitlines()
        for line in lines:
            assert "poll_converted" not in source[line - 1]
            assert "poll_mystery" not in source[line - 1]

    def test_unit211_return_mismatch(self, fixture_findings):
        hits = [f for f in fixture_findings if f.rule == "UNIT211"]
        assert len(hits) == 1
        assert "elapsed_us" in hits[0].message

    def test_mismatch_through_assignment(self):
        codes = _codes_of_sources({"m.py": """
            def wait(timeout_s):
                return timeout_s

            def run():
                delay_us = 5.0
                held = delay_us
                return wait(held)
        """})
        assert "UNIT210" in codes

    def test_mismatch_through_return_summary(self):
        codes = _codes_of_sources({"m.py": """
            def sample_us():
                return 7.0

            def wait(timeout_s):
                return timeout_s

            def run():
                return wait(sample_us())
        """})
        assert "UNIT210" in codes


# --- JRN601 journal purity ---------------------------------------------


class TestJournalPurity:
    def test_jrn601_fires_at_both_sink_kinds(self, fixture_findings):
        hits = [f for f in fixture_findings if f.rule == "JRN601"]
        assert len(hits) == 2
        assert all(h.path.endswith("journal.py") for h in hits)

    def test_sorted_payload_is_clean(self, fixture_findings):
        source = (FIXTURE / "journal.py").read_text().splitlines()
        for f in fixture_findings:
            if f.path.endswith("journal.py"):
                assert "clean" not in source[f.line - 1]

    def test_wallclock_payload_flagged(self):
        codes = _codes_of_sources({"m.py": """
            import time

            def status_payload():
                return {"at": time.time()}
        """})
        assert "JRN601" in codes

    def test_id_derived_payload_flagged(self) -> None:
        codes = _codes_of_sources({"m.py": """
            def tag_payload(flow):
                return {"tag": id(flow)}
        """})
        assert "JRN601" in codes


# --- integration with lint_paths / suppression / baseline ---------------


VIOLATION = textwrap.dedent("""
    import random


    def fixed():
        return random.Random(99)
""")


class TestProjectMode:
    def test_fixture_package_fails_project_lint(self):
        report = lint_paths([FIXTURE], project=True)
        codes = {f.rule for f in report.findings}
        assert {"FLOW501", "FLOW502", "UNIT210", "JRN601"} <= codes

    def test_per_file_mode_unchanged(self):
        report = lint_paths([FIXTURE], project=False)
        assert not any(f.rule.startswith("FLOW")
                       for f in report.findings)

    def test_noqa_suppresses_project_finding(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(VIOLATION.replace(
            "random.Random(99)",
            "random.Random(99)  # repro: noqa[FLOW501]"))
        report = lint_paths([tmp_path], project=True)
        assert not any(f.rule == "FLOW501" for f in report.findings)
        assert any(f.rule == "FLOW501" for f in report.suppressed)
        assert not any(f.rule == "SUP001" for f in report.findings)

    def test_baseline_absorbs_project_finding(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(VIOLATION)
        raw = lint_paths([tmp_path], project=True)
        assert len(raw.findings) == 1
        entry = raw.findings[0]
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"version": 1, "entries": [{
            "rule": entry.rule, "path": entry.path,
            "context": entry.context,
            "reason": "historic fixture, tracked in #42"}]}))
        report = lint_paths([tmp_path],
                            baseline=Baseline.load(baseline_path),
                            project=True)
        assert report.findings == []
        assert len(report.baselined) == 1

    def test_project_entry_not_stale_in_per_file_run(self, tmp_path):
        # A baselined project-rule finding (FLOW501) cannot match in a
        # per-file run — the rule never fires there.  That makes the
        # entry out of scope, not stale: only project-mode runs may
        # declare project-rule entries prunable.
        target = tmp_path / "m.py"
        target.write_text(VIOLATION)
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"version": 1, "entries": [{
            "rule": "FLOW501", "path": target.as_posix(),
            "context": "return random.Random(99)",
            "reason": "historic fixture, tracked in #42"}]}))
        report = lint_paths([tmp_path],
                            baseline=Baseline.load(baseline_path),
                            project=False)
        assert report.stale_baseline == []

    def test_project_entry_stale_in_project_run(self, tmp_path):
        # The same dead entry IS stale when the project rules ran and
        # still produced nothing to absorb.
        target = tmp_path / "m.py"
        target.write_text("def clean():\n    return 1\n")
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({"version": 1, "entries": [{
            "rule": "FLOW501", "path": target.as_posix(),
            "context": "return random.Random(99)",
            "reason": "the finding was fixed; entry should be pruned"}]}))
        report = lint_paths([tmp_path],
                            baseline=Baseline.load(baseline_path),
                            project=True)
        assert [e.rule for e in report.stale_baseline] == ["FLOW501"]

    def test_committed_baseline_in_scope_for_both_modes(self):
        # The repo's own baseline holds only project-rule entries, so a
        # per-file run over the same trees must report nothing stale.
        baseline = Baseline.load("lint-baseline.json")
        report = lint_paths(["src/repro", "benchmarks", "examples"],
                            baseline=baseline, project=False)
        assert report.stale_baseline == []

    @pytest.mark.parametrize("rule,line", [
        ("UNIT210", "    return wait(delay_us)  # repro: noqa[UNIT210]"),
        ("JRN601", "    return {'x': id(flows)}  # repro: noqa[JRN601]"),
    ])
    def test_noqa_per_family(self, tmp_path, rule, line):
        target = tmp_path / "m.py"
        target.write_text(
            "def wait(timeout_s):\n"
            "    return timeout_s\n\n\n"
            "def go_payload(delay_us, flows):\n" + line + "\n")
        report = lint_paths([tmp_path], project=True)
        assert not any(f.rule == rule for f in report.findings)
        assert any(f.rule == rule for f in report.suppressed)

    @pytest.mark.parametrize("rule,line", [
        ("UNIT210", "    return wait(delay_us)"),
        ("JRN601", "    return {'x': id(flows)}"),
    ])
    def test_baseline_per_family(self, tmp_path, rule, line):
        target = tmp_path / "m.py"
        target.write_text(
            "def wait(timeout_s):\n"
            "    return timeout_s\n\n\n"
            "def go_payload(delay_us, flows):\n" + line + "\n")
        raw = lint_paths([tmp_path], project=True)
        entries = [{"rule": f.rule, "path": f.path,
                    "context": f.context, "reason": "known, tracked"}
                   for f in raw.findings if f.rule == rule]
        assert entries, f"expected a {rule} finding to baseline"
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps({"version": 1, "entries": entries}))
        report = lint_paths([tmp_path],
                            baseline=Baseline.load(baseline_path),
                            project=True)
        assert not any(f.rule == rule for f in report.findings)
        assert any(f.rule == rule for f in report.baselined)

    def test_numpy_default_rng_is_traced(self):
        codes = _codes_of_sources({"m.py": """
            import numpy

            def make(seed):
                return numpy.random.default_rng(seed)

            def fixed():
                return make(42)
        """})
        assert "FLOW501" in codes

    def test_library_tree_is_project_clean(self):
        findings = lint_project_files(sorted(Path("src/repro").rglob("*.py")))
        assert findings == []

    def test_rule_catalogue_includes_project_rules(self):
        catalogue = rule_catalogue()
        for rule in all_project_rules():
            assert rule.code in catalogue


# --- SUP001 unused-noqa -------------------------------------------------


class TestUnusedNoqa:
    def test_unused_code_flagged(self):
        findings = lint_source("x = 1  # repro: noqa[DET101]\n", "a.py")
        assert [f.rule for f in findings] == ["SUP001"]
        assert "DET101" in findings[0].message

    def test_used_code_not_flagged(self):
        source = ("import random\n"
                  "r = random.Random()  # repro: noqa[DET101]\n")
        assert lint_source(source, "a.py") == []

    def test_partially_used_comma_list(self):
        source = ("import random\n"
                  "r = random.Random()  # repro: noqa[DET101,UNIT202]\n")
        findings = lint_source(source, "a.py")
        assert [f.rule for f in findings] == ["SUP001"]
        assert "UNIT202" in findings[0].message

    def test_blanket_marker_flagged_when_dead(self):
        findings = lint_source("x = 1  # repro: noqa\n", "a.py")
        assert [f.rule for f in findings] == ["SUP001"]

    def test_project_code_skipped_in_per_file_run(self):
        assert lint_source("x = 1  # repro: noqa[FLOW501]\n",
                           "a.py") == []

    def test_project_mode_flags_dead_project_code(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("x = 1  # repro: noqa[FLOW501]\n")
        report = lint_paths([tmp_path], project=True)
        assert [f.rule for f in report.findings] == ["SUP001"]


# --- SARIF --------------------------------------------------------------


class TestSarif:
    def test_sarif_document_shape(self):
        report = lint_paths([FIXTURE], project=True)
        rules = sorted(all_project_rules(), key=lambda r: r.code)
        document = json.loads(format_sarif(report, rules))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"FLOW501", "JRN601", "UNIT210", "E000"} <= ids
        assert run["results"], "fixture violations must appear"
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith(".py")
        assert location["region"]["startLine"] >= 1

    def test_sarif_cli(self, tmp_path, capsys):
        target = tmp_path / "m.py"
        target.write_text("import random\nrandom.seed(3)\n")
        code = cli_main(["lint", "--no-baseline", "--format", "sarif",
                         str(tmp_path)])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["runs"][0]["results"][0]["ruleId"] == "DET102"


# --- incremental (--changed) -------------------------------------------


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    *args], cwd=repo, check=True, capture_output=True)


class TestIncremental:
    def test_changed_files_vs_head(self, tmp_path):
        _git(tmp_path, "init", "-q")
        tracked = tmp_path / "tracked.py"
        tracked.write_text("x = 1\n")
        (tmp_path / "other.py").write_text("y = 1\n")
        _git(tmp_path, "add", ".")
        _git(tmp_path, "commit", "-qm", "seed")
        tracked.write_text("x = 2\n")
        fresh = tmp_path / "fresh.py"
        fresh.write_text("z = 1\n")
        changed = changed_python_files(base="HEAD", start=tmp_path)
        assert tracked.resolve().as_posix() in changed
        assert fresh.resolve().as_posix() in changed
        assert not any(p.endswith("other.py") for p in changed)

    def test_outside_a_repo_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            changed_python_files(start=tmp_path / "nowhere")

    def test_report_on_scopes_reporting_not_analysis(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def helper(seed):\n"
                         "    import random\n"
                         "    return random.Random(seed)\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("from clean import helper\n\n"
                         "def go():\n"
                         "    return helper(77)\n")
        scoped = lint_paths([tmp_path], project=True,
                            report_on={dirty.resolve().as_posix()})
        assert {f.rule for f in scoped.findings} == {"FLOW501"}
        other = lint_paths([tmp_path], project=True,
                           report_on={clean.resolve().as_posix()})
        assert not any(f.rule == "FLOW501" for f in other.findings)


# --- hypothesis: unit-tag propagation is monotone -----------------------


_SUFFIXES = st.sampled_from(["_s", "_us", "_ms", "_bps", ""])
_WRAPPERS = st.sampled_from(["blur", "via", "scale_by"])


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(param_suffix=_SUFFIXES, value_suffix=_SUFFIXES,
           wrapper=_WRAPPERS, indirect_assign=st.booleans())
    def test_unknown_converter_never_introduces_findings(
            self, param_suffix, value_suffix, wrapper, indirect_assign):
        """Wrapping any argument in an un-tagged units call is monotone:
        the wrapped program's findings are a subset of the unwrapped."""
        arg = f"value{value_suffix}"
        if indirect_assign:
            body = f"held = value{value_suffix}\n    held2 = held"
            arg = "held2"
        else:
            body = "held = 0"
        template = textwrap.dedent("""
            import units

            def sink(delay{p}):
                return delay{p}

            def caller(value{v}):
                {body}
                return sink({arg})
        """)
        plain = template.format(p=param_suffix, v=value_suffix,
                                body=body, arg=arg)
        wrapped = template.format(p=param_suffix, v=value_suffix,
                                  body=body,
                                  arg=f"units.{wrapper}({arg})")
        units_src = f"def {wrapper}(value):\n    return value\n"
        base = _codes_of_sources({"units.py": units_src, "m.py": plain})
        after = _codes_of_sources({"units.py": units_src,
                                   "m.py": wrapped})
        for code in set(after):
            assert after.count(code) <= base.count(code)

    @settings(max_examples=20, deadline=None)
    @given(param_suffix=_SUFFIXES, value_suffix=_SUFFIXES)
    def test_analysis_is_deterministic(self, param_suffix, value_suffix):
        source = textwrap.dedent(f"""
            def sink(delay{param_suffix}):
                return delay{param_suffix}

            def caller(value{value_suffix}):
                return sink(value{value_suffix})
        """)
        first = _codes_of_sources({"m.py": source})
        second = _codes_of_sources({"m.py": source})
        assert first == second
