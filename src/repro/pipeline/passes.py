"""The named compilation passes and the shared pass context.

The paper's adaptation flow (Fig. 2: preprocess -> rule evaluation -> SMT
model -> extraction) is decomposed into eight reorderable passes:

``route`` -> ``preprocess`` -> ``evaluate_rules`` -> ``solve`` -> ``apply``
-> ``merge_1q`` -> ``verify`` -> ``analyze_cost``

Each pass reads and writes the mutable :class:`PassContext`; the
:class:`repro.pipeline.Pipeline` wraps every pass with wall-time and size
instrumentation.  Technique-specific behaviour (which rules to evaluate,
how to select substitutions) is injected through small strategy objects so
all eight techniques of the evaluation share one pass sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.unitary import allclose_up_to_global_phase, circuit_unitary
from repro.core.model import AdaptationModel, ModelSolution
from repro.core.preprocessing import PreprocessedCircuit, preprocess
from repro.core.rules import (
    KakDecompositionRule,
    Substitution,
    SubstitutionRule,
    evaluate_rules,
    standard_rules,
)
from repro.hardware.target import Target
from repro.synthesis.single_qubit import merge_single_qubit_runs
from repro.transpiler.cost import CircuitCost, analyze_cost
from repro.transpiler.routing import route_circuit

#: Maximum circuit width for which the unitary-equivalence check runs.
VERIFY_MAX_QUBITS = 6


def route_if_needed(circuit: QuantumCircuit, target: Target) -> QuantumCircuit:
    """Route ``circuit`` onto the target topology when it does not comply."""
    needs_routing = any(
        len(instruction.qubits) == 2 and not target.are_connected(*instruction.qubits)
        for instruction in circuit.instructions
    )
    if not needs_routing and circuit.num_qubits <= target.num_qubits:
        return circuit
    return route_circuit(circuit, target)


@dataclass
class PassContext:
    """Mutable state threaded through the pipeline passes."""

    circuit: QuantumCircuit
    target: Target
    technique: str
    options: Mapping[str, object] = field(default_factory=dict)

    # Populated by the passes as the compilation progresses ----------------
    routed: Optional[QuantumCircuit] = None
    preprocessed: Optional[PreprocessedCircuit] = None
    rules: List[SubstitutionRule] = field(default_factory=list)
    substitutions: List[Substitution] = field(default_factory=list)
    chosen: List[Substitution] = field(default_factory=list)
    solution: Optional[ModelSolution] = None
    objective_value: Optional[float] = None
    solver_statistics: Dict[str, object] = field(default_factory=dict)
    adapted: Optional[QuantumCircuit] = None
    cost: Optional[CircuitCost] = None
    baseline_cost: Optional[CircuitCost] = None

    def option(self, name: str, default: object = None) -> object:
        """Read one compile option with a default."""
        return self.options.get(name, default)


class Pass:
    """Base class of a named, instrumented pipeline stage."""

    name = "pass"

    def run(self, context: PassContext) -> None:
        """Execute the stage, mutating ``context``."""
        raise NotImplementedError

    def counters(self, context: PassContext) -> Dict[str, float]:
        """Stage-specific size counters recorded after :meth:`run`."""
        return {}


# ---------------------------------------------------------------------------
# Substitution-selection strategies (the technique-specific part of `solve`)
# ---------------------------------------------------------------------------
class SmtSelection:
    """Globally optimal selection through :meth:`AdaptationModel.solve`
    (SAT_F exactly per block, SAT_R/P through the OMT model)."""

    def __init__(self, objective: str) -> None:
        self.objective = objective

    def __call__(self, context: PassContext) -> None:
        rounds = context.option("max_improvement_rounds")
        model = AdaptationModel(
            context.preprocessed,
            context.substitutions,
            objective=self.objective,
            max_improvement_rounds=rounds,
            incremental_theory=bool(context.option("incremental_theory", True)),
        )
        solution = model.solve()
        context.solution = solution
        context.chosen = list(solution.chosen_substitutions)
        context.objective_value = solution.objective_value
        context.solver_statistics = dict(solution.statistics)


class GreedySelection:
    """Local, per-template greedy selection (the template baselines)."""

    def __init__(self, objective: str) -> None:
        if objective not in ("fidelity", "idle"):
            raise ValueError("objective must be 'fidelity' or 'idle'")
        self.objective = objective

    def _is_improvement(self, substitution: Substitution) -> bool:
        if self.objective == "fidelity":
            return substitution.log_fidelity_delta > 1e-12
        return substitution.duration_delta < -1e-9

    def _local_score(self, substitution: Substitution) -> float:
        if self.objective == "fidelity":
            return substitution.log_fidelity_delta
        return -substitution.duration_delta

    def __call__(self, context: PassContext) -> None:
        accepted: List[Substitution] = []
        by_block: Dict[int, List[Substitution]] = {}
        for substitution in context.substitutions:
            by_block.setdefault(substitution.block_index, []).append(substitution)
        for block_index in sorted(by_block):
            taken: List[Substitution] = []
            candidates = sorted(by_block[block_index], key=self._local_score, reverse=True)
            for candidate in candidates:
                if not self._is_improvement(candidate):
                    continue
                if any(candidate.conflicts_with(existing) for existing in taken):
                    continue
                taken.append(candidate)
            accepted.extend(taken)
        context.chosen = accepted
        # Non-SMT strategies report their own counters, so
        # result.statistics (and BENCH_perf.json's solver_statistics) is
        # never silently empty for heuristic techniques.
        context.solver_statistics = {
            "selection": "greedy",
            "objective": self.objective,
            "candidates": len(context.substitutions),
            "accepted": len(accepted),
            "blocks": len(by_block),
        }


class SelectAll:
    """Accept every candidate substitution (per-block KAK resynthesis)."""

    def __call__(self, context: PassContext) -> None:
        context.chosen = list(context.substitutions)
        context.solver_statistics = {
            "selection": "all",
            "candidates": len(context.substitutions),
            "accepted": len(context.chosen),
            "reason": "every candidate is accepted; no solver runs",
        }


class SelectNone:
    """Accept nothing; the reference translation is used as-is (direct)."""

    def __call__(self, context: PassContext) -> None:
        context.chosen = []
        context.solver_statistics = {
            "selection": "none",
            "candidates": len(context.substitutions),
            "accepted": 0,
            "reason": "direct translation selects no substitutions",
        }


# ---------------------------------------------------------------------------
# Rule factories (the technique-specific part of `evaluate_rules`)
# ---------------------------------------------------------------------------
def sat_rules(context: PassContext) -> List[SubstitutionRule]:
    """Fig. 3 rule set, overridable through the ``rules`` option."""
    rules = context.option("rules")
    return list(rules) if rules is not None else standard_rules()


def template_rules(context: PassContext) -> List[SubstitutionRule]:
    """Fig. 3 rule set without KAK (template optimization uses identities)."""
    rules = context.option("rules")
    return list(rules) if rules is not None else standard_rules(include_kak=False)


class KakRules:
    """Only the KAK resynthesis rule with the requested CZ realization."""

    def __init__(self, cz_gate: str) -> None:
        self.cz_gate = cz_gate

    def __call__(self, context: PassContext) -> List[SubstitutionRule]:
        return [KakDecompositionRule(self.cz_gate)]


def no_rules(context: PassContext) -> List[SubstitutionRule]:
    """Direct translation evaluates no substitution rules."""
    return []


# ---------------------------------------------------------------------------
# The eight passes
# ---------------------------------------------------------------------------
class RoutePass(Pass):
    """Route the input circuit onto the target topology when necessary."""

    name = "route"

    def run(self, context: PassContext) -> None:
        context.routed = route_if_needed(context.circuit, context.target)

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {
            "gates_in": float(len(context.circuit)),
            "gates_out": float(len(context.routed)),
        }


class PreprocessPass(Pass):
    """Block partition, reference translation and reference costs (Fig. 2a)."""

    name = "preprocess"

    def run(self, context: PassContext) -> None:
        context.preprocessed = preprocess(context.routed, context.target)

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {"blocks": float(len(context.preprocessed.blocks))}


class EvaluateRulesPass(Pass):
    """Match the substitution rules, producing candidate substitutions."""

    name = "evaluate_rules"

    def __init__(self, rules_factory) -> None:
        self.rules_factory = rules_factory

    def run(self, context: PassContext) -> None:
        context.rules = list(self.rules_factory(context))
        context.substitutions = (
            list(evaluate_rules(context.preprocessed, context.rules))
            if context.rules
            else []
        )

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {
            "rules": float(len(context.rules)),
            "candidates": float(len(context.substitutions)),
        }


class SolvePass(Pass):
    """Select substitutions via the injected strategy (SMT, greedy, ...)."""

    name = "solve"

    def __init__(self, selection) -> None:
        self.selection = selection

    def run(self, context: PassContext) -> None:
        self.selection(context)

    def counters(self, context: PassContext) -> Dict[str, float]:
        counters = {"chosen": float(len(context.chosen))}
        for key in ("improvement_rounds", "theory_checks", "sat_conflicts",
                    "candidates", "accepted", "search_nodes"):
            value = context.solver_statistics.get(key)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                counters[key] = float(value)
        return counters


class ApplyPass(Pass):
    """Apply chosen substitutions; other gates take the reference translation."""

    name = "apply"

    def __init__(self, reference_when_empty: bool = False) -> None:
        self.reference_when_empty = reference_when_empty

    def run(self, context: PassContext) -> None:
        from repro.core.adapter import apply_substitutions

        if self.reference_when_empty and not context.chosen:
            context.adapted = context.preprocessed.reference_circuit()
        else:
            context.adapted = apply_substitutions(context.preprocessed, context.chosen)

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {"gates_out": float(len(context.adapted))}


class MergeSingleQubitPass(Pass):
    """Merge adjacent single-qubit gates (no-op unless the option is set)."""

    name = "merge_1q"

    def run(self, context: PassContext) -> None:
        if context.option("merge_single_qubit_gates", False):
            context.adapted = merge_single_qubit_runs(context.adapted)

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {
            "enabled": float(bool(context.option("merge_single_qubit_gates", False))),
            "gates_out": float(len(context.adapted)),
        }


class VerifyPass(Pass):
    """Check unitary equivalence against the routed input (small circuits)."""

    name = "verify"

    def run(self, context: PassContext) -> None:
        self._checked = False
        if not context.option("verify", False):
            return
        if context.routed.num_qubits > VERIFY_MAX_QUBITS:
            return
        self._checked = True
        if not allclose_up_to_global_phase(
            circuit_unitary(context.adapted), circuit_unitary(context.routed), atol=1e-6
        ):
            raise RuntimeError("adapted circuit is not equivalent to the input circuit")

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {"checked": float(getattr(self, "_checked", False))}


class AnalyzeCostPass(Pass):
    """Cost the adapted circuit and the reference baseline on the target.

    ``baseline_is_self`` marks the technique that *is* the reference
    (direct translation): its baseline cost is its own cost, keeping the
    invariant that direct's fidelity/idle deltas are exactly zero even
    when single-qubit merging changed the circuit.
    """

    name = "analyze_cost"

    def __init__(self, baseline_is_self: bool = False) -> None:
        self.baseline_is_self = baseline_is_self

    def run(self, context: PassContext) -> None:
        context.cost = analyze_cost(context.adapted, context.target)
        if self.baseline_is_self:
            context.baseline_cost = context.cost
        else:
            context.baseline_cost = analyze_cost(
                context.preprocessed.reference_circuit(), context.target
            )

    def counters(self, context: PassContext) -> Dict[str, float]:
        return {
            "two_qubit_gates": float(context.cost.two_qubit_gate_count),
            "gates": float(context.cost.gate_count),
        }
