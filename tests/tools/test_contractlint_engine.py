"""Engine-level contractlint tests: suppressions, config, repo facts,
finalize checks, the CLI contract, and the self-run gate.

The self-run test is the binding one: the repo's own tree must lint
clean, which is what lets CI fail on *any* finding without a baseline
file.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.contractlint import all_codes, lint_source, run_lint
from tools.contractlint.core import (
    LintConfig,
    load_config,
    parse_suppressions,
    read_hook_points,
    read_knob_names,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


# -- suppression grammar (CL001/CL002 audit trail) ---------------------------


class TestSuppressions:
    RAISE = 'raise ValueError("boom")'
    PATH = "src/repro/cam/fixture.py"

    def test_reasoned_suppression_suppresses(self):
        source = (f"def f():\n    {self.RAISE}  "
                  f"# contractlint: disable=CL401 -- fixture exercises "
                  f"the suppression path\n")
        assert lint_source(source, self.PATH) == []

    def test_reasonless_suppression_is_cl001_and_keeps_the_finding(self):
        source = f"def f():\n    {self.RAISE}  # contractlint: disable=CL401\n"
        codes = sorted(f.code for f in lint_source(source, self.PATH))
        assert codes == ["CL001", "CL401"]

    def test_unknown_code_is_cl002(self):
        source = (f"def f():\n    {self.RAISE}  "
                  f"# contractlint: disable=CL999 -- no such contract\n")
        codes = sorted(f.code for f in lint_source(source, self.PATH))
        assert codes == ["CL002", "CL401"]

    def test_multiple_codes_one_comment(self):
        source = ("def f(value):\n"
                  "    assert value\n"
                  '    raise ValueError("boom")  '
                  "# contractlint: disable=CL401,CL402 -- multi-code demo\n")
        # Only the CL401 on the commented line is suppressed; the
        # assert on line 2 still reports.
        assert [f.code for f in lint_source(source, self.PATH)] == ["CL402"]

    def test_docstring_quoting_the_grammar_is_not_a_suppression(self):
        source = ('"""Docs: write # contractlint: disable=CL401 -- why."""\n'
                  "def f():\n"
                  '    raise ValueError("boom")\n')
        assert parse_suppressions(source) == []
        assert [f.code for f in lint_source(source, self.PATH)] == ["CL401"]

    def test_suppression_dataclass_fields(self):
        (supp,) = parse_suppressions(
            "x = 1  # contractlint: disable=CL101, CL301 -- calibration\n")
        assert supp.line == 1
        assert supp.codes == ("CL101", "CL301")
        assert supp.reason == "calibration"


# -- configuration -----------------------------------------------------------


class TestConfig:
    def test_allow_matches_whole_path_segments(self):
        config = LintConfig(allow={"CL102": ("src/repro/cam",)})
        assert config.allows("CL102", "src/repro/cam/array.py")
        assert config.allows("CL102", "src/repro/cam")
        assert not config.allows("CL102", "src/repro/camera.py")
        assert not config.allows("CL101", "src/repro/cam/array.py")

    def test_load_config_reads_pyproject_table(self, tmp_path):
        pytest.importorskip("tomllib")  # stdlib from 3.11
        (tmp_path / "pyproject.toml").write_text(
            '[tool.contractlint.allow]\nCL102 = ["src/repro/legacy"]\n')
        config = load_config(tmp_path)
        assert config.allow == {"CL102": ("src/repro/legacy",)}

    def test_load_config_without_pyproject_is_empty(self, tmp_path):
        assert load_config(tmp_path) == LintConfig()


# -- repo facts read from source, never imported ------------------------------


class TestRepoFacts:
    def test_knob_names_read_from_this_repo(self):
        knobs = read_knob_names(REPO_ROOT)
        assert knobs == ("micro_batch",)

    def test_hook_points_read_from_this_repo(self):
        points = read_hook_points(REPO_ROOT)
        assert set(points) == {"refstore.save", "refstore.open",
                               "refstore.catalog.open",
                               "service.stream.dispatch"}

    def test_knob_names_track_the_validator_signature(self, tmp_path):
        knobs_py = tmp_path / "src" / "repro" / "knobs.py"
        knobs_py.parent.mkdir(parents=True)
        knobs_py.write_text(
            "def validate_service_knobs(micro_batch=None, *, warp=None):\n"
            "    return None\n")
        knobs = read_knob_names(tmp_path)
        assert "warp" in knobs  # new knob picked up automatically

    def test_missing_tree_falls_back(self, tmp_path):
        assert read_knob_names(tmp_path) == ("micro_batch",)
        assert read_hook_points(tmp_path) == ()


# -- repo-wide finalize checks on a synthetic tree ----------------------------


def _make_mini_repo(root: Path) -> None:
    """A minimal lintable tree: two hook points, one of them fired."""
    (root / "pyproject.toml").write_text("[project]\nname = 'mini'\n")
    pkg = root / "src" / "repro"
    (pkg / "faults").mkdir(parents=True)
    (pkg / "faults" / "plan.py").write_text(
        'HOOK_POINTS = (\n    "alpha.one",\n    "beta.two",\n)\n')
    (pkg / "cam").mkdir()
    (pkg / "cam" / "mod.py").write_text(
        "from repro.faults.hooks import fire as _fire_fault\n\n\n"
        "def save(buf):\n"
        '    _fire_fault("alpha.one", buf=buf)\n')


class TestFinalize:
    def test_unfired_hook_point_is_cl603_on_full_scan(self, tmp_path):
        _make_mini_repo(tmp_path)
        findings = run_lint(tmp_path)
        assert [(f.code, f.path) for f in findings] == [
            ("CL603", "src/repro/faults/plan.py")]
        assert "beta.two" in findings[0].message

    def test_restricted_scan_skips_repo_wide_checks(self, tmp_path):
        _make_mini_repo(tmp_path)
        target = tmp_path / "src" / "repro" / "cam" / "mod.py"
        assert run_lint(tmp_path, files=[target]) == []


# -- CLI contract -------------------------------------------------------------


def _run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tools.contractlint", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=120)


class TestCli:
    def test_list_codes_prints_every_stable_code(self):
        proc = _run_cli("--list-codes")
        assert proc.returncode == 0
        for code in all_codes():
            assert code in proc.stdout

    def test_findings_exit_1_and_json_document_shape(self, tmp_path):
        _make_mini_repo(tmp_path)
        out = tmp_path / "findings.json"
        proc = _run_cli("--root", str(tmp_path), "--json", str(out))
        assert proc.returncode == 1
        assert "CL603" in proc.stdout
        document = json.loads(out.read_text())
        # The bench-JSON shape (benchmarks/conftest.py) + findings.
        assert set(document) == {"bench", "config", "timings",
                                 "derived", "findings"}
        assert document["bench"] == "contractlint"
        assert document["derived"] == {"n_findings": 1,
                                       "n_files_restricted": None,
                                       "clean": False}
        assert document["timings"]["lint_seconds"] >= 0
        (row,) = document["findings"]
        assert row["code"] == "CL603"
        assert row["path"] == "src/repro/faults/plan.py"

    def test_bad_root_exits_2(self, tmp_path):
        proc = _run_cli("--root", str(tmp_path / "nowhere"))
        assert proc.returncode == 2

    def test_missing_file_argument_exits_2(self):
        proc = _run_cli("no/such/file.py")
        assert proc.returncode == 2


# -- the self-run gate --------------------------------------------------------


class TestSelfRun:
    def test_repo_lints_clean(self):
        findings = run_lint(REPO_ROOT)
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"contractlint findings:\n{rendered}"

    def test_cli_self_run_exits_0(self):
        proc = _run_cli()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout


# -- registry sanity ----------------------------------------------------------


class TestRegistry:
    def test_every_code_family_is_registered(self):
        codes = all_codes()
        for family in ("CL001", "CL101", "CL301", "CL401",
                       "CL501", "CL601"):
            assert family in codes

    def test_codes_are_unique_across_checkers(self):
        from tools.contractlint import registered_checkers

        seen: "dict[str, str]" = {}
        for cls in registered_checkers():
            for code in cls.codes:
                assert code not in seen, (code, cls.name, seen[code])
                seen[code] = cls.name
