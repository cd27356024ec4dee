"""reprolint v2 test suite: whole-program passes, SARIF, baseline.

Each project rule has a paired good/bad *mini-project* fixture
directory under ``tests/fixtures/lint/`` (multi-module where the rule
is genuinely cross-module — RPL101 splits state and handlers across
files, RPL201 claims one stream name from two modules, RPL203 imports
the registry class).  The bad project contains a known number of
violations of exactly its rule; the good project is the idiomatic
rewrite and must be completely clean.

On top of the per-rule tests: the repo-is-clean meta-test (the same
gate CI runs with ``repro lint --project``), SARIF 2.1.0 golden output
validated against a vendored structural subset of the OASIS schema,
the baseline lifecycle (baselined finding → exit 0; new finding →
exit 1; stale entry → drift → exit 1), ``--jobs`` equivalence, and
deterministic diagnostic ordering.
"""

import json
from pathlib import Path

import pytest

from repro.lint import (
    ALL_PROJECT_RULES,
    ALL_RULES,
    Project,
    lint_project,
    project_pass_diagnostics,
    render_sarif,
)
from repro.lint.baseline import BaselineError, load_baseline
from repro.lint.callgraph import CallGraph
from repro.lint.runner import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
SARIF_SCHEMA = (
    Path(__file__).resolve().parent / "fixtures" / "sarif-2.1.0-subset.schema.json"
)

# rule code -> expected violation count in the bad mini-project
PROJECT_CASES = {
    "RPL101": 2,
    "RPL102": 3,
    "RPL103": 2,
    "RPL201": 2,
    "RPL202": 2,
    "RPL203": 2,
    "RPL301": 1,
    "RPL302": 1,
    "RPL303": 1,
    "RPL304": 2,
}


def _project_diags(name: str):
    project = Project.load(str(FIXTURES / name))
    return project_pass_diagnostics(project)


class TestProjectRuleFixtures:
    @pytest.mark.parametrize("code", sorted(PROJECT_CASES))
    def test_bad_project_flagged(self, code):
        expected = PROJECT_CASES[code]
        diags = _project_diags(f"{code.lower()}_bad")
        hits = [d for d in diags if d.code == code]
        assert len(hits) == expected, [d.render() for d in diags]
        for d in hits:
            assert d.line >= 1 and d.col >= 1
            assert d.path.endswith(".py")

    @pytest.mark.parametrize("code", sorted(PROJECT_CASES))
    def test_good_project_clean(self, code):
        diags = _project_diags(f"{code.lower()}_good")
        assert [d for d in diags if d.code == code] == [], [
            d.render() for d in diags
        ]

    def test_every_project_rule_has_fixture_pair(self):
        codes = {rule.code for rule in ALL_PROJECT_RULES}
        assert codes == set(PROJECT_CASES)
        for code in codes:
            assert (FIXTURES / f"{code.lower()}_bad").is_dir()
            assert (FIXTURES / f"{code.lower()}_good").is_dir()

    def test_rule_codes_disjoint_from_per_file_rules(self):
        per_file = {rule.code for rule in ALL_RULES}
        project = {rule.code for rule in ALL_PROJECT_RULES}
        assert per_file.isdisjoint(project)


class TestCallGraph:
    def test_handler_reachability_crosses_modules(self):
        project = Project.load(str(FIXTURES / "rpl101_bad"))
        reachable = CallGraph(project).handler_reachable()
        quals = {qual for _mod, qual in reachable}
        assert "App._on_tick" in quals  # registered callback
        assert "App._note" in quals  # transitive callee
        assert "App.start" not in quals  # registrar itself is not a handler

    def test_import_resolution_follows_aliases(self):
        project = Project.load(str(FIXTURES / "rpl203_bad"))
        resolved = project.resolve("scenario.py", "Registry")
        assert resolved == ("rng.py", "RngRegistry")


class TestProjectSuppression:
    def test_inline_suppression_silences_project_pass(self):
        sources = {
            "m.py": (
                "def f(reg, name):\n"
                "    # reprolint: ignore[RPL202] -- audited dynamic name\n"
                "    return reg.stream(name)\n"
            ),
        }
        project = Project.from_sources(sources)
        assert project_pass_diagnostics(project) == []

    def test_unsuppressed_counterpart_still_fires(self):
        sources = {"m.py": "def f(reg, name):\n    return reg.stream(name)\n"}
        project = Project.from_sources(sources)
        diags = project_pass_diagnostics(project)
        assert [d.code for d in diags] == ["RPL202"]


class TestStreamFamilies:
    """The *stream family* idiom for one stream per host:
    ``f"client.{leaf}"`` — an f-string with a dotted literal prefix —
    is statically auditable by its prefix, so RPL202 accepts it and
    RPL201 claims the prefix like a literal name.
    """

    def test_dotted_prefix_family_passes_rpl202(self):
        sources = {
            "m.py": (
                "def f(reg, leaf):\n"
                '    return reg.stream(f"client.{leaf}")\n'
            ),
        }
        assert project_pass_diagnostics(Project.from_sources(sources)) == []

    def test_bare_fstring_head_still_fires(self):
        sources = {
            "m.py": (
                "def f(reg, leaf):\n"
                '    return reg.stream(f"{leaf}.client")\n'
            ),
        }
        diags = project_pass_diagnostics(Project.from_sources(sources))
        assert [d.code for d in diags] == ["RPL202"]

    def test_undotted_prefix_still_fires(self):
        sources = {
            "m.py": (
                "def f(reg, i):\n"
                '    return reg.stream(f"run-{i}")\n'
            ),
        }
        diags = project_pass_diagnostics(Project.from_sources(sources))
        assert [d.code for d in diags] == ["RPL202"]

    def test_family_collision_across_modules_fires_rpl201(self):
        sources = {
            "a.py": (
                "def f(reg, leaf):\n"
                '    return reg.stream(f"client.{leaf}")\n'
            ),
            "b.py": (
                "def g(reg, leaf):\n"
                '    return reg.stream(f"client.{leaf}")\n'
            ),
        }
        diags = project_pass_diagnostics(Project.from_sources(sources))
        assert [d.code for d in diags] == ["RPL201", "RPL201"]

    def test_literal_name_under_foreign_family_fires_rpl201(self):
        sources = {
            "a.py": (
                "def f(reg, leaf):\n"
                '    return reg.stream(f"client.{leaf}")\n'
            ),
            "b.py": (
                "def g(reg):\n"
                '    return reg.stream("client.7")\n'
            ),
        }
        diags = project_pass_diagnostics(Project.from_sources(sources))
        assert sorted(d.code for d in diags) == ["RPL201", "RPL201"]


class TestRepoIsClean:
    def test_whole_program_passes_clean_on_src(self):
        diags = lint_project(str(REPO_ROOT / "src"))
        assert diags == [], [d.render() for d in diags]

    def test_jobs_parallel_equals_serial(self):
        root = str(FIXTURES / "rpl101_bad")
        serial = lint_project(root)
        parallel = lint_project(root, jobs=2)
        assert serial == parallel
        assert serial != []  # the fixture really produces findings

    def test_diagnostic_ordering_is_stable(self):
        diags = _project_diags("rpl304_bad")
        keys = [(d.path, d.line, d.col, d.code) for d in diags]
        assert keys == sorted(keys)
        assert diags == _project_diags("rpl304_bad")


class TestSarif:
    def _sarif_doc(self):
        diags = _project_diags("rpl304_bad")
        assert diags, "fixture must produce findings"
        rules = (*ALL_RULES, *ALL_PROJECT_RULES)
        return json.loads(render_sarif(diags, rules))

    def test_sarif_validates_against_2_1_0_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SARIF_SCHEMA.read_text(encoding="utf-8"))
        doc = self._sarif_doc()
        jsonschema.validate(doc, schema)

    def test_sarif_structure_golden(self):
        doc = self._sarif_doc()
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert set(PROJECT_CASES) <= set(rule_ids)
        assert [r["ruleId"] for r in run["results"]] == ["RPL304", "RPL304"]
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("metrics.py")
            assert loc["region"]["startLine"] >= 1
            # ruleIndex points back into the rules array
            assert rule_ids[result["ruleIndex"]] == "RPL304"

    def test_sarif_output_is_deterministic(self):
        diags = _project_diags("rpl304_bad")
        rules = (*ALL_RULES, *ALL_PROJECT_RULES)
        assert render_sarif(diags, rules) == render_sarif(diags, rules)

    def test_cli_writes_sarif_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        code = lint_main(
            [
                "--project",
                str(FIXTURES / "rpl304_bad"),
                str(FIXTURES / "rpl304_bad"),
                "--format",
                "sarif",
                "--output",
                str(out),
            ]
        )
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        assert len(doc["runs"][0]["results"]) == 2


class TestBaselineLifecycle:
    def _bad(self):
        return str(FIXTURES / "rpl304_bad")

    def test_violation_without_baseline_fails(self, capsys):
        assert lint_main(["--project", self._bad(), self._bad()]) == 1
        assert "RPL304" in capsys.readouterr().out

    def test_baselined_violation_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            lint_main(
                [
                    "--project",
                    self._bad(),
                    self._bad(),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        doc = json.loads(baseline.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro.lint-baseline/1"
        # Entries are keyed (path, code, message): the two RPL304
        # occurrences share a message, so one entry covers both.
        assert len(doc["entries"]) == 1
        assert all(e["reason"] for e in doc["entries"])
        capsys.readouterr()
        # Same findings, now baselined: exit 0, nothing reported.
        code = lint_main(
            [
                "--project",
                self._bad(),
                self._bad(),
                "--baseline",
                str(baseline),
                "--stats",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "2 baselined" in captured.out
        assert "RPL304" not in captured.out

    def test_new_violation_not_in_baseline_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps({"schema": "repro.lint-baseline/1", "entries": []}),
            encoding="utf-8",
        )
        code = lint_main(
            ["--project", self._bad(), self._bad(), "--baseline", str(baseline)]
        )
        assert code == 1
        assert "RPL304" in capsys.readouterr().out

    def test_stale_baseline_entry_is_drift(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": "repro.lint-baseline/1",
                    "entries": [
                        {
                            "path": "gone.py",
                            "code": "RPL304",
                            "message": "metric 'x' ...",
                            "reason": "was accepted, since fixed",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        good = str(FIXTURES / "rpl304_good")
        code = lint_main(["--project", good, good, "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert code == 1
        assert "drift" in captured.err

    def test_baseline_entries_require_reasons(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "schema": "repro.lint-baseline/1",
                    "entries": [
                        {
                            "path": "a.py",
                            "code": "RPL304",
                            "message": "m",
                            "reason": "  ",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(BaselineError):
            load_baseline(baseline)
        # and through the CLI: usage error, not a crash
        assert (
            lint_main(
                ["--project", self._bad(), self._bad(), "--baseline", str(baseline)]
            )
            == 2
        )

    def test_checked_in_baseline_is_valid_and_matches_repo(self, capsys):
        checked_in = REPO_ROOT / "lint-baseline.json"
        load_baseline(checked_in)  # schema + reasons validate
        code = lint_main(
            [
                "--project",
                str(REPO_ROOT / "src"),
                str(REPO_ROOT / "src"),
                "--baseline",
                str(checked_in),
            ]
        )
        assert code == 0, capsys.readouterr().out


class TestCliUx:
    def test_stats_line(self, capsys):
        bad = str(FIXTURES / "rpl101_bad")
        code = lint_main(["--project", bad, bad, "--stats"])
        captured = capsys.readouterr()
        assert code == 1
        assert "repro lint --stats:" in captured.out
        assert "RPL101=2" in captured.out

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            lint_main(["--help"])
        assert exc.value.code == 0
        helptext = capsys.readouterr().out
        assert "exit status" in helptext
        for line in ("0  clean", "1  violations", "2  usage error"):
            assert line in helptext

    def test_list_rules_includes_project_passes(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(PROJECT_CASES):
            assert code in out

    def test_write_baseline_requires_baseline_path(self, capsys):
        assert lint_main(["--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err
