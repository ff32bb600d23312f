"""The checked-in golden file: coverage, well-formedness, and the gate.

These tests pin the contract the ISSUE asks of
``benchmarks/golden/baseline.json``: at least 24 benchmarks, every
technique key covered, ``expected_timeout`` annotations only on SMT
cells, and the unmodified tree comparing clean against it.
"""

import os

import pytest

from repro.api import PAPER_TECHNIQUES
from repro.golden import (
    GoldenBaseline,
    default_baseline_path,
    fast_cells,
    run_golden,
)
from repro.interop import suite_names


@pytest.fixture(scope="module")
def baseline():
    path = default_baseline_path()
    if not os.path.exists(path):
        pytest.skip(f"no checked-in golden baseline at {path}")
    return GoldenBaseline.load(path)


class TestCoverage:
    def test_at_least_twenty_four_benchmarks(self, baseline):
        assert len(baseline.benchmarks()) >= 24

    def test_every_technique_key_is_covered(self, baseline):
        assert set(baseline.techniques()) == set(PAPER_TECHNIQUES)

    def test_every_suite_benchmark_has_every_technique_cell(self, baseline):
        for benchmark in suite_names():
            for technique in PAPER_TECHNIQUES:
                assert baseline.get(benchmark, technique) is not None, (
                    f"{benchmark}:{technique} has no golden cell; "
                    "run 'python -m repro.golden --rebaseline --only "
                    f"{benchmark}:{technique}'")

    def test_baseline_names_exist_in_the_suite(self, baseline):
        assert set(baseline.benchmarks()) <= set(suite_names())

    def test_timeout_annotations_only_on_smt_cells(self, baseline):
        for benchmark, technique in baseline.expected_timeout_cells():
            assert technique.startswith("sat_"), (
                f"{benchmark}:{technique} annotated expected_timeout but "
                "is not an SMT technique — cheap techniques never time out")

    def test_fast_subset_cells_are_never_timeout_annotated(self, baseline):
        for benchmark, technique in fast_cells():
            entry = baseline.get(benchmark, technique)
            assert entry is not None and not entry.expected_timeout, (
                f"fast cell {benchmark}:{technique} must stay runnable")

    def test_sat_f_cells_are_proven_optimal(self, baseline):
        """SAT_F is solved exactly per block, so no cell is capped or
        annotated expected_timeout."""
        for benchmark in suite_names():
            entry = baseline.get(benchmark, "sat_f")
            assert not entry.expected_timeout, entry.key
            assert entry.solver.get("optimality") == "proven", entry.key

    def test_provenance_is_recorded(self, baseline):
        assert baseline.provenance.get("updated_at")
        assert baseline.provenance.get("tool")

    def test_non_timeout_cells_carry_the_gated_metrics(self, baseline):
        from repro.golden import METRIC_NAMES

        for entry in baseline.entries.values():
            if entry.expected_timeout:
                assert not entry.metrics
            else:
                assert set(entry.metrics) == set(METRIC_NAMES), entry.key


class TestGate:
    def test_one_cheap_cell_compares_within(self, baseline):
        """A quick true positive: the tree still hits its golden number."""
        report = run_golden(baseline_path=default_baseline_path(),
                            only=["toffoli_n3:direct"])
        (verdict,) = report.comparison.verdicts
        assert verdict.status == "within", verdict.to_dict()
        assert report.exit_code == 0

    @pytest.mark.slow
    def test_full_matrix_has_zero_regressions(self):
        """The whole suite × technique matrix against the golden file."""
        path = default_baseline_path()
        if not os.path.exists(path):
            pytest.skip(f"no checked-in golden baseline at {path}")
        report = run_golden(baseline_path=path, full=True)
        failing = [v.to_dict() for v in report.comparison.verdicts
                   if v.failing]
        assert report.exit_code == 0, failing
        assert report.comparison.counts["new"] == 0
