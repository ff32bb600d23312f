"""The adaptation result container and substitution application.

Techniques run through :func:`repro.compile`, which resolves string
technique keys through :mod:`repro.api.registry` and runs the
instrumented pass pipeline of :mod:`repro.pipeline`; every technique
returns an :class:`AdaptationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.core.preprocessing import PreprocessedCircuit
from repro.core.rules import Substitution
from repro.transpiler.basis import translate_instruction_to_cz
from repro.transpiler.cost import CircuitCost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.report import CompilationReport


@dataclass
class AdaptationResult:
    """An adapted circuit together with its costs and provenance."""

    technique: str
    adapted_circuit: QuantumCircuit
    cost: CircuitCost
    baseline_cost: Optional[CircuitCost] = None
    chosen_substitutions: List[Substitution] = field(default_factory=list)
    objective_value: Optional[float] = None
    #: Solver/selection counters; heuristic techniques report their
    #: selection kind and candidate/accepted counts here (string values
    #: name the strategy or the reason no solver ran).
    statistics: Dict[str, object] = field(default_factory=dict)
    #: Per-stage instrumentation attached by :func:`repro.compile`.
    report: Optional["CompilationReport"] = None

    # Convenience metrics used throughout the evaluation section -----------
    @property
    def fidelity_change(self) -> float:
        """Relative change in gate-fidelity product vs the baseline adaptation."""
        if self.baseline_cost is None:
            raise ValueError("no baseline cost recorded")
        baseline = self.baseline_cost.gate_fidelity_product
        return (self.cost.gate_fidelity_product - baseline) / baseline

    @property
    def idle_time_decrease(self) -> float:
        """Relative decrease in total qubit idle time vs the baseline adaptation."""
        if self.baseline_cost is None:
            raise ValueError("no baseline cost recorded")
        baseline = self.baseline_cost.total_idle_time
        if baseline <= 0:
            return 0.0
        return (baseline - self.cost.total_idle_time) / baseline

    # Exact serialization (persistent result store) -------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form that round-trips exactly.

        Costs, durations, gate counts, substitutions and the per-stage
        report all survive ``json.dumps``/``loads`` bit-identically, which
        is what :class:`repro.service.PersistentResultStore` relies on.
        Gates of the adapted circuit and of the substitutions' replacements
        go through :meth:`~repro.circuits.gates.Gate.to_dict`: name + params
        wherever the builder rebuilds them bit for bit, the matrix
        otherwise.  :meth:`from_dict` also decodes the older form that
        embeds every gate's matrix.  Non-numeric solver statistics values
        degrade to strings.
        """
        return {
            "technique": self.technique,
            "adapted_circuit": self.adapted_circuit.to_dict(),
            "cost": self.cost.to_dict(),
            "baseline_cost": (
                self.baseline_cost.to_dict() if self.baseline_cost is not None else None
            ),
            "chosen_substitutions": [s.to_dict() for s in self.chosen_substitutions],
            "objective_value": self.objective_value,
            "statistics": {
                key: value if isinstance(value, (int, float, bool, str)) else str(value)
                for key, value in self.statistics.items()
            },
            "report": self.report.to_dict() if self.report is not None else None,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "AdaptationResult":
        """Inverse of :meth:`to_dict`."""
        from repro.pipeline.report import CompilationReport

        objective = payload.get("objective_value")
        baseline = payload.get("baseline_cost")
        report = payload.get("report")
        return AdaptationResult(
            technique=payload["technique"],
            adapted_circuit=QuantumCircuit.from_dict(payload["adapted_circuit"]),
            cost=CircuitCost.from_dict(payload["cost"]),
            baseline_cost=CircuitCost.from_dict(baseline) if baseline is not None else None,
            chosen_substitutions=[
                Substitution.from_dict(s) for s in payload.get("chosen_substitutions", [])
            ],
            objective_value=float(objective) if objective is not None else None,
            statistics=dict(payload.get("statistics", {})),
            report=CompilationReport.from_dict(report) if report is not None else None,
        )


def apply_substitutions(
    preprocessed: PreprocessedCircuit, chosen: Sequence[Substitution]
) -> QuantumCircuit:
    """Apply chosen substitutions and fall back to basis translation elsewhere.

    "A substitution s is applied ... by substituting quantum gates ps with
    gs.  A quantum gate ... is substituted by the basis translation performed
    in the preprocessing step if the quantum gate is not part of any chosen
    substitution." (Section IV.C.4)
    """
    circuit = preprocessed.circuit
    target = preprocessed.target
    by_block: Dict[int, List[Substitution]] = {}
    for substitution in chosen:
        by_block.setdefault(substitution.block_index, []).append(substitution)

    adapted = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_adapted")
    for preprocessed_block in preprocessed.blocks:
        block = preprocessed_block.block
        block_subs = by_block.get(block.index, [])
        # Map each substituted position to the substitution anchored there.
        anchor: Dict[int, Substitution] = {}
        covered: Dict[int, Substitution] = {}
        for substitution in block_subs:
            positions = substitution.substituted_positions
            anchor[min(positions)] = substitution
            for position in positions:
                covered[position] = substitution
        for position, instruction in enumerate(block.instructions):
            if position in covered:
                if position in anchor:
                    for replacement in anchor[position].replacement:
                        adapted.append(replacement.gate, replacement.qubits)
                continue
            if len(instruction.qubits) == 1 or target.supports(instruction.name):
                adapted.append(instruction.gate, instruction.qubits)
            else:
                for replacement in translate_instruction_to_cz(instruction):
                    adapted.append(replacement.gate, replacement.qubits)
    return adapted
