"""Golden-fixture tests for every contractlint checker.

Each checker has a seeded-violation fixture and a clean twin under
``tests/tools/fixtures/``.  Violation fixtures annotate every
offending line with ``# expect: CLxxx`` markers; the test asserts the
linter reports **exactly** that multiset of ``(line, code)`` pairs —
no misses, no extras, right lines.  Clean twins must produce zero
findings, which pins the checkers' false-positive boundary (seeded
RNGs, function-level imports, ``is None`` tests, typed raises,
downward imports, registered hook points).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from tools.contractlint import LintConfig, RepoContext, lint_source, run_lint

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Knob names pinned for fixture runs (the production run reads them
#: from src/repro/knobs.py; fixtures must not depend on the tree).
KNOBS = ("micro_batch", "compaction", "max_workers")

#: Hook points pinned for fixture runs.
HOOKS = ("refstore.save", "refstore.open")

_MARKER = re.compile(r"#\s*expect:\s*([A-Z0-9, ]+)$")


def make_repo(*, hook_points=HOOKS) -> RepoContext:
    """A RepoContext independent of cwd and of the real tree."""
    return RepoContext(root=Path("."), config=LintConfig(),
                       knob_names=KNOBS, hook_points=hook_points)


def expected_markers(source: str) -> "list[tuple[int, str]]":
    """The ``(line, code)`` pairs declared by ``# expect:`` markers."""
    out = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _MARKER.search(line)
        if match:
            for code in match.group(1).split(","):
                out.append((lineno, code.strip()))
    return sorted(out)


def lint_fixture(name: str, rel_path: str, repo=None):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    findings = lint_source(source, rel_path, repo=repo or make_repo())
    return source, findings


#: (violation fixture, clean twin, rel_path it impersonates)
CHECKER_CASES = [
    pytest.param("determinism_violation.py", "determinism_clean.py",
                 "src/repro/cam/fixture.py", id="determinism"),
    pytest.param("knobs_violation.py", "knobs_clean.py",
                 "src/repro/cam/fixture.py", id="knobs"),
    pytest.param("error_contract_violation.py", "error_contract_clean.py",
                 "src/repro/cam/fixture.py", id="error-contract"),
    pytest.param("layering_violation.py", "layering_clean.py",
                 "src/repro/cam/fixture.py", id="layering"),
    pytest.param("fault_hooks_violation.py", "fault_hooks_clean.py",
                 "src/repro/cam/fixture.py", id="fault-hooks"),
    pytest.param("keyed_noise_violation.py", "keyed_noise_clean.py",
                 "src/repro/core/fixture.py", id="keyed-noise"),
    pytest.param("one_encode_rotation_violation.py",
                 "one_encode_rotation_clean.py",
                 "src/repro/core/fixture.py", id="one-encode-rotation"),
    pytest.param("per_read_fold_violation.py", "per_read_fold_clean.py",
                 "src/repro/core/pipeline.py", id="per-read-fold"),
    pytest.param("per_read_submit_violation.py", "per_read_submit_clean.py",
                 "src/repro/service/fixture.py", id="per-read-submit"),
    pytest.param("threshold_coercion_violation.py",
                 "threshold_coercion_clean.py",
                 "src/repro/core/fixture.py", id="threshold-coercion"),
    pytest.param("one_parallelism_violation.py",
                 "one_parallelism_clean.py",
                 "src/repro/service/fixture.py", id="one-parallelism"),
    pytest.param("no_environment_violation.py", "no_environment_clean.py",
                 "src/repro/kernels/fixture.py", id="no-environment"),
]


class TestGoldenFixtures:
    @pytest.mark.parametrize("violation, clean, rel_path",
                             CHECKER_CASES)
    def test_violation_fixture_flags_exactly_the_marked_lines(
            self, violation, clean, rel_path):
        source, findings = lint_fixture(violation, rel_path)
        expected = expected_markers(source)
        assert expected, f"{violation} declares no # expect: markers"
        got = sorted((f.line, f.code) for f in findings)
        assert got == expected

    @pytest.mark.parametrize("violation, clean, rel_path",
                             CHECKER_CASES)
    def test_clean_twin_produces_zero_findings(
            self, violation, clean, rel_path):
        _, findings = lint_fixture(clean, rel_path)
        assert findings == []

    @pytest.mark.parametrize("violation, clean, rel_path",
                             CHECKER_CASES)
    def test_findings_carry_rel_path_and_messages(
            self, violation, clean, rel_path):
        _, findings = lint_fixture(violation, rel_path)
        for finding in findings:
            assert finding.path == rel_path
            assert finding.message
            assert finding.render().startswith(f"{rel_path}:{finding.line}:")


class TestExactMessages:
    """One exact-message pin per checker family (golden renderings)."""

    def test_cl101_message(self):
        _, findings = lint_fixture("determinism_violation.py",
                                   "src/repro/cam/fixture.py")
        cl101 = [f for f in findings if f.code == "CL101"]
        assert cl101[0].message == (
            "'time.time' reads wall-clock/OS entropy; decisions must "
            "be keyed by explicit seeds")

    def test_cl301_message_names_the_fix(self):
        _, findings = lint_fixture("knobs_violation.py",
                                   "src/repro/cam/fixture.py")
        messages = [f.message for f in findings if f.code == "CL301"]
        assert ("'max_workers or ...' silently swallows falsy explicit "
                "values (the PR 5 max_workers=0 bug); use 'max_workers "
                "if max_workers is not None else ...'") in messages

    def test_cl108_message(self):
        _, findings = lint_fixture("no_environment_violation.py",
                                   "src/repro/kernels/fixture.py")
        assert [f.message for f in findings][:2] == [
            "'from os import environ, getenv' reads configuration from "
            "the environment; take it as a parameter instead",
            "'os.environ' reads configuration from the environment; "
            "take it as a parameter instead"]

    def test_cl402_message(self):
        _, findings = lint_fixture("error_contract_violation.py",
                                   "src/repro/cam/fixture.py")
        cl402 = [f for f in findings if f.code == "CL402"]
        assert cl402[0].message == (
            "assert vanishes under 'python -O'; restructure or raise "
            "a typed repro.errors error")

    def test_cl601_message_lists_known_points(self):
        _, findings = lint_fixture("fault_hooks_violation.py",
                                   "src/repro/cam/fixture.py")
        cl601 = [f for f in findings if f.code == "CL601"]
        assert "refstore.sav" in cl601[0].message
        assert "refstore.save" in cl601[0].message  # the known list


class TestKeyedNoiseScope:
    """CL104 covers the decision path only: fault injectors elsewhere
    in ``cam/`` keep their (seeded) generators."""

    SOURCE = ("import numpy as np\n"
              "def inject(rate, rng: np.random.Generator, seed):\n"
              "    return np.random.default_rng(seed)\n")

    @pytest.mark.parametrize("rel_path", [
        "src/repro/cam/array.py", "src/repro/cam/sense_amp.py",
        "src/repro/baselines/edam.py", "src/repro/core/hdac.py",
    ])
    def test_decision_path_is_flagged(self, rel_path):
        findings = lint_source(self.SOURCE, rel_path, repo=make_repo())
        assert sorted((f.code, f.line) for f in findings) == [
            ("CL104", 2), ("CL104", 3)]

    @pytest.mark.parametrize("rel_path", [
        "src/repro/cam/defects.py", "src/repro/genome/reads.py",
    ])
    def test_fault_injectors_are_out_of_scope(self, rel_path):
        assert lint_source(self.SOURCE, rel_path, repo=make_repo()) == []


class TestOneEncodeRotationScope:
    """CL105 covers the matchers only: the kernel's boolean fallback,
    the shift-register model and sequence helpers may roll."""

    SOURCE = ("import numpy as np\n"
              "def rotate(reads, offset):\n"
              "    return np.roll(reads, -offset, axis=1)\n")

    @pytest.mark.parametrize("rel_path", [
        "src/repro/core/matcher.py", "src/repro/core/tasr.py",
        "src/repro/baselines/edam.py",
    ])
    def test_matcher_paths_are_flagged(self, rel_path):
        findings = lint_source(self.SOURCE, rel_path, repo=make_repo())
        assert [(f.code, f.line) for f in findings] == [("CL105", 3)]
        assert findings[0].message == (
            "'np.roll()' re-encodes a rotated copy of the reads; take "
            "rotated counts from mismatch_counts_batch(..., rotations=)")

    @pytest.mark.parametrize("rel_path", [
        "src/repro/kernels/base.py", "src/repro/cam/array.py",
        "src/repro/genome/sequence.py", "src/repro/baselines/kraken.py",
    ])
    def test_other_layers_are_out_of_scope(self, rel_path):
        assert lint_source(self.SOURCE, rel_path, repo=make_repo()) == []


class TestNoPerReadFold:
    """CL106 keeps per-read object churn off the batch report path:
    the per-read report build and the session's per-read replay that
    the columnar report replaced are both flagged."""

    BUILD_REPORT_LOOP = (
        "def _build_report(decisions, energy_l, read_indices):\n"
        "    report = MappingReport()\n"
        "    for q in range(decisions.shape[0]):\n"
        "        per_read = MatchOutcome(\n"
        "            decisions=decisions[q], threshold=8, n_searches=1,\n"
        "            energy_joules=energy_l[q], latency_ns=4.5,\n"
        "            hdac_probability=0.0, tasr_lower_bound=52)\n"
        "        report.add(ReadMapping(\n"
        "            read_index=read_indices[q], matched_rows=(),\n"
        "            outcome=per_read))\n"
        "    return report\n"
    )
    SESSION_REPLAY_LOOP = (
        "class MappingSession:\n"
        "    def _execute(self, report):\n"
        "        with self._lock:\n"
        "            for mapping in report.mappings:\n"
        "                self._report.add(mapping)\n"
        "            self._last_batch = tuple(report.mappings)\n"
    )

    def test_per_read_report_build_is_flagged(self):
        findings = lint_source(self.BUILD_REPORT_LOOP,
                               "src/repro/core/pipeline.py",
                               repo=make_repo())
        assert sorted((f.code, f.line, f.col) for f in findings) == [
            ("CL106", 4, 19), ("CL106", 8, 8), ("CL106", 8, 19)]
        messages = {f.message for f in findings}
        assert ("'.add()' in a loop folds per read; fold each batch "
                "report with one MappingReport.add(report)") in messages
        assert ("'MatchOutcome(...)' built per read in a loop; keep "
                "batch results as columns and build the per-read view "
                "lazily") in messages

    def test_session_replay_is_flagged(self):
        findings = lint_source(self.SESSION_REPLAY_LOOP,
                               "src/repro/service/session.py",
                               repo=make_repo())
        assert [(f.code, f.line) for f in findings] == [("CL106", 5)]

    @pytest.mark.parametrize("rel_path", [
        "src/repro/core/matcher.py", "src/repro/cost/ledger.py",
        "tests/core/test_pipeline.py",
    ])
    def test_other_modules_are_out_of_scope(self, rel_path):
        assert lint_source(self.BUILD_REPORT_LOOP, rel_path,
                           repo=make_repo()) == []

    def test_batch_path_of_the_tree_is_clean(self):
        files = [REPO_ROOT / "src/repro/core/pipeline.py",
                 *sorted((REPO_ROOT / "src/repro/service").glob("*.py"))]
        findings = run_lint(REPO_ROOT, files=files)
        assert [f.render() for f in findings] == []


class TestArchRanksBelowCore:
    """CL501 ranks ``arch`` (timing, power, autotune plans) strictly
    below ``core``: the pipeline may import the plans, never the
    reverse at module level."""

    @pytest.mark.parametrize("line", [
        "from repro.core.pipeline import ShardedReadMappingPipeline\n",
        "import repro.core.matcher\n",
    ], ids=["from-import", "import"])
    def test_module_level_core_import_in_arch_is_flagged(self, line):
        findings = lint_source(line, "src/repro/arch/autotune.py",
                               repo=make_repo())
        assert [(f.code, f.line) for f in findings] == [("CL501", 1)]
        assert findings[0].message.startswith(
            "'repro.arch' (layer 6) imports 'repro.core' (layer 7)")

    def test_function_level_core_import_in_arch_is_clean(self):
        source = ("def plan():\n"
                  "    from repro.core.pipeline import bank_row_ranges\n"
                  "    return bank_row_ranges\n")
        assert lint_source(source, "src/repro/arch/autotune.py",
                           repo=make_repo()) == []

    def test_core_imports_arch_downward(self):
        source = "from repro.arch.autotune import plan_shards\n"
        assert lint_source(source, "src/repro/core/pipeline.py",
                           repo=make_repo()) == []


class TestKnobCheckerCatchesThePr5Bug:
    """ISSUE acceptance: the falsy-`or` checker provably catches the
    reverted PR 5 pattern — ``max_workers=0`` silently autotuning
    instead of raising."""

    PR5_PATTERN = (
        "class ShardedReadMappingPipeline:\n"
        "    def __init__(self, max_workers, plan):\n"
        "        self._max_workers = max_workers or plan.max_workers\n"
    )

    def test_pr5_pattern_is_flagged(self):
        findings = lint_source(self.PR5_PATTERN,
                               "src/repro/core/pipeline.py",
                               repo=make_repo())
        assert [(f.code, f.line) for f in findings] == [("CL301", 3)]

    def test_pr5_fix_is_clean(self):
        fixed = self.PR5_PATTERN.replace(
            "max_workers or plan.max_workers",
            "max_workers if max_workers is not None else plan.max_workers")
        assert lint_source(fixed, "src/repro/core/pipeline.py",
                           repo=make_repo()) == []

    def test_attribute_spelling_is_flagged_too(self):
        source = ("def plan(self, config):\n"
                  "    return config.micro_batch or 8\n")
        findings = lint_source(source, "src/repro/core/planner.py",
                               repo=make_repo())
        assert [f.code for f in findings] == ["CL301"]


class TestThresholdCoercion:
    """CL304: a threshold or key parameter is validated through
    ``repro.knobs``, never truncated with ``int``."""

    def test_message_names_the_parameter_and_the_gates(self):
        _, findings = lint_fixture("threshold_coercion_violation.py",
                                   "src/repro/core/fixture.py")
        assert findings[0].message == (
            "'int(first_read_index)' truncates parameter "
            "'first_read_index' (2.7 -> 2, True -> 1); validate it with "
            "repro.knobs (check_threshold, check_thresholds, "
            "check_integer)")

    def test_loop_variable_message_names_the_parameter(self):
        source = ("def counts_batch(queries, rotations=None):\n"
                  "    return [int(r) for r in rotations]\n")
        findings = lint_source(source, "src/repro/kernels/fixture.py",
                               repo=make_repo())
        assert [(f.code, f.line) for f in findings] == [("CL304", 2)]
        assert findings[0].message.startswith(
            "'int(r)' truncates an element of parameter 'rotations'")

    def test_the_gate_module_is_exempt(self):
        source = (FIXTURES / "threshold_coercion_violation.py").read_text(
            encoding="utf-8")
        assert lint_source(source, "src/repro/knobs.py",
                           repo=make_repo()) == []

    def test_outside_src_is_out_of_scope(self):
        source = "def f(threshold):\n    return int(threshold)\n"
        assert lint_source(source, "benchmarks/bench.py",
                           repo=make_repo()) == []


class TestOneParallelism:
    """CL107: nothing in ``src/repro`` starts a thread or a worker
    pool, the Monte-Carlo sweep runner included."""

    SOURCE = ("import threading\n"
              "def start(loop):\n"
              "    threading.Thread(target=loop).start()\n")

    def test_message_names_the_call(self):
        findings = lint_source(self.SOURCE, "src/repro/service/frontend.py",
                               repo=make_repo())
        assert [(f.code, f.line) for f in findings] == [("CL107", 3)]
        assert findings[0].message == (
            "'threading.Thread()' starts a second level of parallelism; "
            "run the work on the calling thread and leave the cores to "
            "the count kernel's BLAS")

    def test_the_sweep_runner_is_not_exempt(self):
        source, findings = lint_fixture("one_parallelism_violation.py",
                                        "src/repro/eval/sweeps.py")
        assert sorted((f.line, f.code) for f in findings) \
            == expected_markers(source)
        assert {f.path for f in findings} == {"src/repro/eval/sweeps.py"}

    @pytest.mark.parametrize("rel_path", [
        "tools/chaos_soak.py", "tests/service/test_frontend.py",
        "benchmarks/bench.py",
    ])
    def test_outside_src_is_out_of_scope(self, rel_path):
        assert lint_source(self.SOURCE, rel_path, repo=make_repo()) == []
