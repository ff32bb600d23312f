"""The :class:`Pipeline` (pass manager): ordered, instrumented, reorderable.

A pipeline is an immutable ordered sequence of named passes.  Running it
executes every pass against a fresh :class:`PassContext` inside its own
``pass:<name>`` span — the span's duration is the stage's wall time in
the report, the trace and the pass-latency metric alike — records each
stage's size counters, and returns the
:class:`repro.core.AdaptationResult` with a :class:`CompilationReport`
attached.  The rewriting helpers (:meth:`Pipeline.without`,
:meth:`Pipeline.replaced`, :meth:`Pipeline.inserted_after`, ...) return new
pipelines, so registered techniques can be derived from one another.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.hardware.target import Target
from repro.pipeline.passes import Pass, PassContext
from repro.pipeline.report import CompilationReport, PassStats
from repro.resilience.budget import check_budget
from repro.telemetry.resources import attribution_start, resource_usage
from repro.trace.tracer import span


class Pipeline:
    """An ordered sequence of named passes with per-stage instrumentation."""

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline") -> None:
        names = [p.name for p in passes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pass names in pipeline: {names}")
        self._passes: List[Pass] = list(passes)
        self.name = name

    # -- introspection --------------------------------------------------
    @property
    def passes(self) -> List[Pass]:
        """The passes in execution order (a copy)."""
        return list(self._passes)

    @property
    def pass_names(self) -> List[str]:
        """The pass names in execution order."""
        return [p.name for p in self._passes]

    def __len__(self) -> int:
        return len(self._passes)

    def __repr__(self) -> str:
        return f"Pipeline({self.name}: {' -> '.join(self.pass_names)})"

    def _index_of(self, name: str) -> int:
        for index, pass_ in enumerate(self._passes):
            if pass_.name == name:
                return index
        raise KeyError(f"pipeline {self.name!r} has no pass {name!r} "
                       f"(passes: {self.pass_names})")

    # -- rewriting ------------------------------------------------------
    def without(self, name: str) -> "Pipeline":
        """A new pipeline with the named pass removed."""
        index = self._index_of(name)
        return Pipeline(self._passes[:index] + self._passes[index + 1:], self.name)

    def replaced(self, name: str, replacement: Pass) -> "Pipeline":
        """A new pipeline with the named pass swapped for ``replacement``."""
        index = self._index_of(name)
        passes = list(self._passes)
        passes[index] = replacement
        return Pipeline(passes, self.name)

    def inserted_after(self, name: str, new_pass: Pass) -> "Pipeline":
        """A new pipeline with ``new_pass`` inserted after the named pass."""
        index = self._index_of(name)
        passes = list(self._passes)
        passes.insert(index + 1, new_pass)
        return Pipeline(passes, self.name)

    def inserted_before(self, name: str, new_pass: Pass) -> "Pipeline":
        """A new pipeline with ``new_pass`` inserted before the named pass."""
        index = self._index_of(name)
        passes = list(self._passes)
        passes.insert(index, new_pass)
        return Pipeline(passes, self.name)

    def renamed(self, name: str) -> "Pipeline":
        """A copy of this pipeline under a different name."""
        return Pipeline(self._passes, name)

    # -- execution ------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        target: Target,
        technique: Optional[str] = None,
        options: Optional[Mapping[str, object]] = None,
        report: Optional[CompilationReport] = None,
    ):
        """Execute all passes and return the adaptation result with report.

        Parameters
        ----------
        circuit, target:
            Input circuit and hardware target.
        technique:
            Canonical technique key recorded in result and report
            (defaults to the pipeline name).
        options:
            Compile options read by the passes.
        report:
            A pre-seeded report carrying the circuit hash / target
            fingerprint; a bare one is created when omitted.
        """
        technique = technique or self.name
        context = PassContext(
            circuit=circuit,
            target=target,
            technique=technique,
            options=dict(options or {}),
        )
        if report is None:
            report = CompilationReport(
                technique=technique,
                circuit_name=circuit.name,
                circuit_hash="",
                target_fingerprint="",
                options=dict(options or {}),
            )
        pipeline_span = span("pipeline", "pipeline",
                             technique=technique, circuit=circuit.name,
                             gates_in=len(circuit.instructions))
        usage_start = attribution_start()
        gates_out = None
        try:
            for pass_ in self._passes:
                # Pass boundaries are deadline checkpoints too, so
                # budgets fire for every technique — including those
                # whose passes never enter a solver loop.
                check_budget(f"pass:{pass_.name}")
                pass_span = span(f"pass:{pass_.name}", "pipeline")
                try:
                    pass_.run(context)
                    counters = dict(pass_.counters(context))
                except BaseException as error:
                    pass_span.end(error=type(error).__name__)
                    raise
                seconds = pass_span.end(**counters)
                report.stages.append(PassStats(pass_.name, seconds, counters))
            if usage_start is not None:
                cpu_end, rss_end = resource_usage()
                report.resources = {
                    "cpu_seconds": max(0.0, cpu_end - usage_start[0]),
                    "peak_rss_bytes": float(rss_end),
                }
            result = self._finalize(context, report)
            gates_out = len(result.adapted_circuit.instructions)
        finally:
            # gates_out stays None when the pipeline did not finish.
            pipeline_span.end(gates_out=gates_out)
        return result

    @staticmethod
    def _finalize(context: PassContext, report: CompilationReport):
        from repro.core.adapter import AdaptationResult

        if context.cost is None or context.adapted is None:
            raise RuntimeError(
                "pipeline finished without producing a costed circuit; "
                "did you remove the 'apply' or 'analyze_cost' pass?"
            )
        statistics = dict(context.solver_statistics)
        return AdaptationResult(
            technique=context.technique,
            adapted_circuit=context.adapted,
            cost=context.cost,
            baseline_cost=context.baseline_cost,
            chosen_substitutions=list(context.chosen),
            objective_value=context.objective_value,
            statistics=statistics,
            report=report,
        )
