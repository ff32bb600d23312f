"""The golden-suite quality runner: compile, compare, gate.

``run_golden()`` compiles a benchmark × technique matrix from the
bundled suite (:mod:`repro.interop.suite`), distills every result into a
:class:`repro.golden.metrics.QualityRecord`, compares the records
against the checked-in golden baseline and returns a
:class:`GoldenRunReport` — regressions (and baseline cells that failed
to produce a record) make ``exit_code`` nonzero, which is exactly what
the CI ``golden-smoke`` job gates on.

Two matrices exist:

* the **fast subset** (default): a handful of cheap benchmarks through
  all 8 techniques, done in seconds — the tier the CLI, the example and
  CI run on every change;
* the **full matrix** (``--full``): every suite benchmark × every
  technique, minus the cells the baseline annotates
  ``expected_timeout`` — slow-marked in the test suite.

Every compiled cell runs with pinned options (``max_improvement_rounds``
for the SMT keys) and a per-cell wall-clock deadline so one pathological
solver run cannot hang the gate; a cell that blows an *unexpected*
deadline reports as ``missing`` (a failure), while ``--rebaseline``
turns fresh deadline hits into ``expected_timeout`` annotations with
provenance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.golden.baseline import (
    ComparisonResult,
    GoldenBaseline,
    compare_run,
    default_baseline_path,
    make_entry,
    make_timeout_entry,
)
from repro.golden.metrics import QualityRecord, extract_quality

Cell = Tuple[str, str]

#: Options pinned on *every* golden cell.  Single-qubit merging is
#: deliberately on (its default is off): golden numbers measure the
#: best-practice pipeline, and the CI mutation check proves the gate
#: works by overriding it back off and watching gate counts regress.
GOLDEN_COMMON_OPTIONS: Dict[str, object] = {"merge_single_qubit_gates": True}

#: Options pinned on every SMT-technique golden cell (the same cap the
#: slow suite sweep uses): golden numbers must not depend on the mutable
#: production default or the test fixtures.
SMT_GOLDEN_OPTIONS: Dict[str, object] = {"max_improvement_rounds": 10}

#: Wall-clock budget per cell.  Generous against the slowest known-good
#: cell (~1 min) yet small enough that a wedged solver fails the run
#: instead of hanging it.
DEFAULT_CELL_TIMEOUT = 150.0

#: Fast-subset benchmarks: cheap under every technique.
FAST_BENCHMARKS: Tuple[str, ...] = (
    "bv_n5", "clifford_s11_n4", "ghz_n5", "qaoa_n4", "teleport_n3",
    "toffoli_n3", "vqe_hwe_n4", "wstate_n3",
)

#: Fast-subset techniques applied to every fast benchmark (sub-second).
FAST_TECHNIQUES: Tuple[str, ...] = (
    "direct", "kak_cz", "kak_dcz", "template_f", "template_r",
)

#: Fast-subset SMT cells (seconds each; keeps all 8 keys covered).
FAST_SMT_CELLS: Tuple[Cell, ...] = (
    ("toffoli_n3", "sat_f"),
    ("toffoli_n3", "sat_r"),
    ("toffoli_n3", "sat_p"),
    ("vqe_hwe_n4", "sat_f"),
    ("vqe_hwe_n4", "sat_r"),
    ("vqe_hwe_n4", "sat_p"),
)

#: The last completed run of this process (feeds ``quality_summary``).
_LAST_RUN: Optional[Dict[str, object]] = None


def golden_options(technique: str,
                   extra: Optional[Mapping[str, object]] = None
                   ) -> Dict[str, object]:
    """The pinned compile options of one golden cell."""
    options: Dict[str, object] = dict(GOLDEN_COMMON_OPTIONS)
    if technique.startswith("sat_"):
        options.update(SMT_GOLDEN_OPTIONS)
    if extra:
        options.update(extra)
    return options


def fast_cells() -> List[Cell]:
    """The default (fast) benchmark × technique subset."""
    cells = [(benchmark, technique)
             for benchmark in FAST_BENCHMARKS
             for technique in FAST_TECHNIQUES]
    cells.extend(FAST_SMT_CELLS)
    return sorted(cells)


def full_cells() -> List[Cell]:
    """Every suite benchmark × every paper technique."""
    from repro.api import PAPER_TECHNIQUES
    from repro.interop import suite_names

    return [(benchmark, technique)
            for benchmark in suite_names()
            for technique in PAPER_TECHNIQUES]


def resolve_cells(benchmarks: Optional[Sequence[str]] = None,
                  techniques: Optional[Sequence[str]] = None,
                  full: bool = False,
                  only: Optional[Sequence[str]] = None) -> List[Cell]:
    """Resolve the requested matrix into concrete cells.

    ``benchmarks``/``techniques`` override one axis of the matrix (the
    other defaults to the full suite / all techniques).  ``only`` names
    explicit ``benchmark:technique`` cells and wins over everything else
    (so ``--rebaseline --only rc_adder_n6:sat_p`` touches exactly that
    cell regardless of the ambient matrix).
    """
    from repro.api import PAPER_TECHNIQUES, resolve_technique
    from repro.interop import load_suite, suite_names

    if only:
        cells = []
        for spec in only:
            benchmark, sep, technique = spec.partition(":")
            if not sep or not benchmark or not technique:
                raise ValueError(
                    f"--only expects 'benchmark:technique', got {spec!r}")
            load_suite([benchmark])  # validate both halves early
            cells.append((benchmark, resolve_technique(technique).key))
        return sorted(set(cells))
    if benchmarks is None and techniques is None and not full:
        cells = fast_cells()
    else:
        chosen_benchmarks = list(benchmarks) if benchmarks else suite_names()
        load_suite(chosen_benchmarks)  # validate names early
        chosen_techniques = (list(techniques) if techniques
                             else list(PAPER_TECHNIQUES))
        cells = [(b, t) for b in chosen_benchmarks for t in chosen_techniques]
    return sorted(set(cells))


@dataclass
class GoldenRunReport:
    """Everything one golden run produced (the ``BENCH_quality.json``)."""

    mode: str
    baseline_path: str
    comparison: ComparisonResult
    records: List[QualityRecord] = field(default_factory=list)
    errors: Dict[Cell, str] = field(default_factory=dict)
    cell_timeout: float = DEFAULT_CELL_TIMEOUT
    extra_options: Dict[str, object] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    rebaselined: bool = False

    @property
    def exit_code(self) -> int:
        return 1 if self.comparison.failed else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "mode": self.mode,
            "baseline": self.baseline_path,
            "cell_timeout_seconds": self.cell_timeout,
            "common_options": dict(GOLDEN_COMMON_OPTIONS),
            "smt_options": dict(SMT_GOLDEN_OPTIONS),
            "extra_options": dict(self.extra_options),
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "rebaselined": self.rebaselined,
            **self.comparison.to_dict(),
            "records": [record.to_dict() for record in self.records],
        }

    def summary_line(self) -> str:
        counts = self.comparison.counts
        rendered = ", ".join(f"{count} {status}"
                             for status, count in counts.items() if count)
        verdict = "FAIL" if self.comparison.failed else "OK"
        return (f"golden {verdict}: {rendered or 'no cells'} "
                f"({self.elapsed_seconds:.1f}s)")

    def table(self) -> str:
        """An aligned per-cell verdict table (worst metric inlined)."""
        lines = [f"{'benchmark':<18} {'technique':<11} {'verdict':<10} detail"]
        for verdict in self.comparison.verdicts:
            detail = verdict.reason
            regressed = verdict.regressed_metrics()
            deltas = regressed or [d for d in verdict.deltas
                                   if d.status == "improved"]
            if deltas:
                worst = max(deltas, key=lambda d: (d.rel_worse_by
                                                   if d.rel_worse_by ==
                                                   d.rel_worse_by else
                                                   float("inf")))
                detail = (f"{worst.metric} {worst.baseline:g} -> "
                          f"{worst.actual:g} "
                          f"({'+' if worst.worse_by >= 0 else ''}"
                          f"{worst.worse_by:g} worse)"
                          if worst.status == "regressed" else
                          f"{worst.metric} {worst.baseline:g} -> "
                          f"{worst.actual:g} ({-worst.worse_by:g} better)")
            lines.append(f"{verdict.benchmark:<18} {verdict.technique:<11} "
                         f"{verdict.status:<10} {detail}")
        worst = self.comparison.worst_regression()
        if worst is not None:
            lines.append(
                f"worst regression: {worst['benchmark']}:{worst['technique']} "
                f"{worst['metric']} {worst['baseline']} -> {worst['actual']}")
        return "\n".join(lines)


def _compile_cell(benchmark: str, technique: str, cell_timeout: float,
                  extra_options: Optional[Mapping[str, object]]
                  ) -> QualityRecord:
    """Compile one cell under its pinned options and per-cell deadline."""
    import repro
    from repro.hardware import spin_qubit_target
    from repro.interop import load_suite

    entry = load_suite([benchmark])[0]
    circuit = entry.circuit()
    target = spin_qubit_target(max(2, circuit.num_qubits))
    options = golden_options(technique, extra_options)
    result = repro.compile(circuit, target, technique, use_cache=False,
                           timeout=cell_timeout, on_deadline="raise",
                           **options)
    return extract_quality(result, benchmark=benchmark)


def run_golden(baseline_path: Optional[str] = None,
               benchmarks: Optional[Sequence[str]] = None,
               techniques: Optional[Sequence[str]] = None,
               full: bool = False,
               only: Optional[Sequence[str]] = None,
               cell_timeout: float = DEFAULT_CELL_TIMEOUT,
               extra_options: Optional[Mapping[str, object]] = None,
               rebaseline: bool = False,
               retry_timeouts: bool = False,
               note: str = "",
               output: Optional[str] = None,
               progress=None) -> GoldenRunReport:
    """Run the golden quality matrix; optionally adopt it as the baseline.

    Parameters
    ----------
    baseline_path:
        The golden file (default: ``benchmarks/golden/baseline.json``
        resolved via :func:`default_baseline_path`).
    benchmarks, techniques, full, only:
        Matrix selection — see :func:`resolve_cells`.
    cell_timeout:
        Per-cell wall-clock deadline in seconds.
    extra_options:
        Extra compile options applied to *every* cell (the CI mutation
        check uses ``{"merge_single_qubit_gates": False}`` to prove a
        deliberate quality regression fails the gate).
    rebaseline:
        Adopt the run: completed cells overwrite their baseline entries,
        deadline hits become ``expected_timeout`` annotations, and the
        file is saved with a provenance ``note``.  Cells already
        annotated ``expected_timeout`` are kept (not re-run) unless
        ``retry_timeouts`` is set.
    output:
        Path of the ``BENCH_quality.json`` report to write (omitted =
        no file).
    progress:
        Optional callable invoked as ``progress(benchmark, technique,
        status, seconds)`` after each cell (the CLI prints from it).

    Returns
    -------
    GoldenRunReport
        ``report.exit_code`` is nonzero when any cell regressed or went
        missing.
    """
    from repro.resilience import CompileDeadlineExceeded
    from repro.trace.tracer import event, span

    if baseline_path is None:
        baseline_path = default_baseline_path()
    if rebaseline and os.path.exists(baseline_path):
        baseline = GoldenBaseline.load(baseline_path)
    elif rebaseline:
        baseline = GoldenBaseline()
    else:
        baseline = GoldenBaseline.load(baseline_path)

    cells = resolve_cells(benchmarks=benchmarks, techniques=techniques,
                          full=full, only=only)
    attempted: List[Cell] = []
    skipped: List[Cell] = []
    for cell in cells:
        if baseline.is_expected_timeout(*cell) and not (rebaseline and
                                                        retry_timeouts):
            skipped.append(cell)
        else:
            attempted.append(cell)

    mode = "full" if full else (
        "custom" if only or benchmarks or techniques else "fast")
    run_span = span("golden.run", "golden", mode=mode, cells=len(cells),
                    rebaseline=rebaseline)
    records: List[QualityRecord] = []
    errors: Dict[Cell, str] = {}
    deadline_hits: List[Cell] = []
    started = time.perf_counter()
    try:
        for benchmark, technique in attempted:
            cell_started = time.perf_counter()
            try:
                record = _compile_cell(benchmark, technique, cell_timeout,
                                       extra_options)
            except CompileDeadlineExceeded as error:
                deadline_hits.append((benchmark, technique))
                errors[(benchmark, technique)] = (
                    f"deadline exceeded after {cell_timeout:.0f}s "
                    f"(checkpoint: {error.checkpoint})")
                status = "timeout"
            except Exception as error:  # noqa: BLE001 - reported per cell
                errors[(benchmark, technique)] = (
                    f"{type(error).__name__}: {error}")
                status = "error"
            else:
                records.append(record)
                status = "compiled"
            seconds = time.perf_counter() - cell_started
            event("golden.cell", "golden", benchmark=benchmark,
                  technique=technique, status=status, seconds=seconds)
            if progress is not None:
                progress(benchmark, technique, status, seconds)

        if rebaseline:
            stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            for record in records:
                baseline.set(make_entry(record, note=note))
            for benchmark, technique in deadline_hits:
                baseline.set(make_timeout_entry(
                    benchmark, technique,
                    note=note or f"deadline exceeded at "
                                 f"{cell_timeout:.0f}s on {stamp}"))
            baseline.provenance = {
                "updated_at": stamp,
                "note": note,
                "cell_timeout_seconds": cell_timeout,
                "common_options": dict(GOLDEN_COMMON_OPTIONS),
                "smt_options": dict(SMT_GOLDEN_OPTIONS),
                "tool": f"python -m repro.golden --rebaseline "
                        f"(repro {_version()})",
            }
            baseline.save(baseline_path)

        comparison = compare_run(records, baseline,
                                 expected=attempted + skipped,
                                 errors=errors)
        for verdict in comparison.verdicts:
            regressed = verdict.regressed_metrics()
            event("golden.check", "golden",
                  benchmark=verdict.benchmark,
                  technique=verdict.technique,
                  status=verdict.status,
                  regressed_metrics=[d.metric for d in regressed])
        report = GoldenRunReport(
            mode=mode,
            baseline_path=baseline_path,
            comparison=comparison,
            records=records,
            errors=errors,
            cell_timeout=cell_timeout,
            extra_options=dict(extra_options or {}),
            elapsed_seconds=time.perf_counter() - started,
            rebaselined=rebaseline,
        )
    finally:
        run_span.end()

    if output:
        payload = report.to_dict()
        directory = os.path.dirname(os.path.abspath(output))
        os.makedirs(directory, exist_ok=True)
        with open(output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    _remember_run(report)
    return report


def _version() -> str:
    import repro

    return getattr(repro, "__version__", "unknown")


# ---------------------------------------------------------------------------
# Quality surface for /metrics
# ---------------------------------------------------------------------------
def _remember_run(report: GoldenRunReport) -> None:
    global _LAST_RUN
    _LAST_RUN = {
        "status": "ok",
        "source": "in-process",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": report.mode,
        "failed": report.comparison.failed,
        "counts": report.comparison.counts,
        "worst_regression": report.comparison.worst_regression(),
    }


def quality_summary() -> Dict[str, object]:
    """The ``"quality"`` block of the gateway's ``GET /metrics``.

    Prefers the last golden run of this process; otherwise reads the
    report named by ``REPRO_QUALITY_REPORT`` (or ``BENCH_quality.json``
    in the working directory).  Never raises: a gateway without quality
    data reports ``{"status": "unavailable"}`` rather than breaking its
    metrics endpoint.
    """
    if _LAST_RUN is not None:
        return dict(_LAST_RUN)
    path = os.environ.get("REPRO_QUALITY_REPORT") or os.path.join(
        os.getcwd(), "BENCH_quality.json")
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return {"status": "unavailable",
                "reason": "no golden run in this process and no readable "
                          f"quality report at {path!r}"}
    return {
        "status": "ok",
        "source": path,
        "generated_at": payload.get("generated_at"),
        "mode": payload.get("mode"),
        "failed": payload.get("failed"),
        "counts": payload.get("counts"),
        "worst_regression": payload.get("worst_regression"),
    }


def reset_quality_state() -> None:
    """Forget the in-process last run (tests)."""
    global _LAST_RUN
    _LAST_RUN = None
