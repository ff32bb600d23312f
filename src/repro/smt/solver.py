"""Lazy DPLL(T) SMT solver for linear real arithmetic.

The solver uses the classic lazy (offline) SMT architecture:

1. the Boolean structure of all assertions is Tseitin-encoded and handed to
   the CDCL SAT solver (:class:`repro.sat.Solver`);
2. each complete propositional model induces a conjunction of theory
   literals (bounds on linear forms) which is checked by the simplex-based
   theory solver (:class:`repro.smt.simplex.Simplex`);
3. theory conflicts are returned as small sets of inconsistent literals and
   added back to the SAT solver as blocking clauses;
4. the loop repeats until a theory-consistent propositional model is found
   (SAT) or the SAT solver reports unsatisfiability (UNSAT).

Problem sizes in the circuit-adaptation model are modest (tens of Boolean
selection variables, a few hundred scheduling atoms), for which this simple
architecture is entirely adequate.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.resilience.budget import current_budget
from repro.sat import Solver as SatSolver
from repro.smt.cnf import CnfConverter
from repro.smt.rational import DeltaRational
from repro.smt.simplex import Simplex
from repro.smt.terms import BoolVar, Comparison, Expr, LinearExpr
from repro.trace.tracer import event, hooks_active

#: Sampling schedule of the ``smt.check`` trace events: the first this
#: many theory checks are all traced, later ones only every
#: :data:`TRACE_CHECK_STRIDE`-th — bounded traces on check-heavy runs.
TRACE_CHECK_HEAD = 32
TRACE_CHECK_STRIDE = 8


class CheckResult(Enum):
    """Result of an SMT ``check`` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Model:
    """A satisfying assignment: Boolean values plus rational real values."""

    def __init__(
        self,
        bool_values: Mapping[str, bool],
        real_values: Mapping[str, Fraction],
    ) -> None:
        self._bool_values = dict(bool_values)
        self._real_values = dict(real_values)

    def __getitem__(self, key):
        """Evaluate a :class:`BoolVar`, :class:`LinearExpr` or variable name."""
        if isinstance(key, BoolVar):
            return self._bool_values.get(key.name, False)
        if isinstance(key, LinearExpr):
            return self.eval_linear(key)
        if isinstance(key, str):
            if key in self._bool_values:
                return self._bool_values[key]
            return self._real_values.get(key, Fraction(0))
        raise TypeError(f"cannot evaluate {key!r} in a model")

    def eval_linear(self, expression: LinearExpr) -> Fraction:
        """Evaluate a linear expression under the model."""
        total = expression.constant
        for name, coeff in expression.coeffs.items():
            total += coeff * self._real_values.get(name, Fraction(0))
        return total

    def eval_bool(self, name: str) -> bool:
        """Return the value of a Boolean variable (False when unconstrained)."""
        return self._bool_values.get(name, False)

    def bool_values(self) -> Dict[str, bool]:
        """Return all Boolean variable values."""
        return dict(self._bool_values)

    def real_values(self) -> Dict[str, Fraction]:
        """Return all real variable values."""
        return dict(self._real_values)

    def __repr__(self) -> str:
        bools = ", ".join(f"{k}={v}" for k, v in sorted(self._bool_values.items()))
        reals = ", ".join(f"{k}={v}" for k, v in sorted(self._real_values.items()))
        return f"Model({bools}; {reals})"


class SmtSolver:
    """Lazy DPLL(T) solver for Boolean combinations of linear real atoms.

    By default the theory solver is *incremental*: one simplex instance
    persists across all theory checks (and across the OMT layer's
    objective-strengthening rounds).  Between checks only the asserted
    bounds are retracted (:meth:`Simplex.undo_to`); the tableau rows, the
    slack variables of the atoms' linear forms and the current assignment
    are kept and warm-started, so repeated checks avoid rebuilding the
    tableau from scratch.  The learned clauses of the Boolean skeleton are
    likewise kept by the persistent CDCL core.  ``incremental_theory=False``
    restores the legacy rebuild-per-check behaviour (kept as the perf
    baseline and as a differential-testing oracle).
    """

    def __init__(
        self,
        max_theory_iterations: int = 100000,
        incremental_theory: bool = True,
    ) -> None:
        self._converter = CnfConverter()
        self._assertions: List[Expr] = []
        self._clauses_dispatched = 0
        self._sat = SatSolver()
        self._max_theory_iterations = max_theory_iterations
        self._incremental_theory = incremental_theory
        self._simplex: Optional[Simplex] = None
        # Atom SAT-var -> slack-variable index in the persistent simplex;
        # valid only in incremental mode (fresh instances renumber slacks).
        self._atom_slack: Dict[int, int] = {}
        self._model: Optional[Model] = None
        self._last_simplex: Optional[Simplex] = None
        self._stats: Dict[str, int] = {
            "theory_checks": 0,
            "theory_conflicts": 0,
            "theory_pivots": 0,
        }

    # ------------------------------------------------------------------
    def add(self, *expressions: Expr) -> None:
        """Assert one or more Boolean expressions."""
        for expression in expressions:
            self._assertions.append(expression)
            self._converter.add_assertion(expression)

    def assertions(self) -> List[Expr]:
        """Return the asserted expressions."""
        return list(self._assertions)

    # ------------------------------------------------------------------
    def _sync_clauses(self) -> None:
        clauses = self._converter.clauses
        while self._clauses_dispatched < len(clauses):
            self._sat.add_clause(clauses[self._clauses_dispatched])
            self._clauses_dispatched += 1

    def check(self, assumptions: Tuple[Expr, ...] = ()) -> CheckResult:
        """Check satisfiability of the asserted formulas."""
        assumption_literals = [self._converter.encode(expr) for expr in assumptions]
        self._sync_clauses()
        hooked = hooks_active()
        budget = current_budget()
        pivots_charged = self._stats["theory_pivots"]
        entry = (self._stats["theory_checks"], self._stats["theory_pivots"],
                 self._stats["theory_conflicts"])
        try:
            for _ in range(self._max_theory_iterations):
                if budget is not None:
                    # Charge the pivots of the previous iteration and enforce
                    # the deadline once per theory check (the SAT sub-solve
                    # below has its own per-conflict checkpoint).
                    budget.charge(
                        "smt.check",
                        pivots=self._stats["theory_pivots"] - pivots_charged,
                    )
                    pivots_charged = self._stats["theory_pivots"]
                self._stats["theory_checks"] += 1
                pivots_before = self._stats["theory_pivots"] if hooked else 0
                if not self._sat.solve(assumption_literals):
                    self._model = None
                    return CheckResult.UNSAT
                sat_model = self._sat.model()
                simplex, conflict = self._theory_check(sat_model)
                if hooked:
                    index = self._stats["theory_checks"]
                    if index <= TRACE_CHECK_HEAD or index % TRACE_CHECK_STRIDE == 0:
                        event(
                            "smt.check", "solver",
                            check=index,
                            consistent=conflict is None,
                            d_pivots=self._stats["theory_pivots"] - pivots_before,
                            theory_conflicts=self._stats["theory_conflicts"],
                        )
                if conflict is None:
                    self._store_model(sat_model, simplex)
                    self._last_simplex = simplex
                    return CheckResult.SAT
                self._stats["theory_conflicts"] += 1
                blocking = [-literal for literal in conflict]
                self._converter.clauses.append(blocking)
                self._sync_clauses()
            return CheckResult.UNKNOWN
        finally:
            # The check's theory deltas go out once, including aborts
            # (budget.charge raises CompileInterrupted mid-loop).
            if hooked:
                event("smt.theory", "solver",
                      d_checks=self._stats["theory_checks"] - entry[0],
                      d_pivots=self._stats["theory_pivots"] - entry[1],
                      d_conflicts=self._stats["theory_conflicts"] - entry[2])

    # ------------------------------------------------------------------
    def _working_simplex(self) -> Simplex:
        """Return the theory solver for the next check.

        Incremental mode reuses one instance, retracting every bound
        asserted by the previous check while keeping tableau and
        assignment; legacy mode builds a fresh instance every time.
        """
        if not self._incremental_theory:
            return Simplex()
        if self._simplex is None:
            self._simplex = Simplex()
        else:
            self._simplex.undo_to(0)
        return self._simplex

    def _theory_check(
        self, sat_model: Mapping[int, bool]
    ) -> Tuple[Simplex, Optional[List[int]]]:
        """Check the theory literals implied by a propositional model.

        Returns the simplex instance and either ``None`` (consistent) or the
        conflicting subset of SAT literals.
        """
        simplex = self._working_simplex()
        # Accumulate only the pivots of this check, so the counter means
        # the same thing in incremental mode (shared instance, also
        # pivoted by OMT maximize calls) and legacy mode (fresh instance
        # per check).
        pivots_before = simplex.pivots
        try:
            for var, atom in self._converter.atom_by_var.items():
                if var not in sat_model:
                    continue
                literal = var if sat_model[var] else -var
                slack = self._slack_for_atom(simplex, var, atom)
                conflict = self._assert_atom(simplex, slack, atom, sat_model[var], literal)
                if conflict is not None:
                    return simplex, conflict
            conflict = simplex.check()
            if conflict is not None:
                return simplex, list(conflict)
            return simplex, None
        finally:
            self._stats["theory_pivots"] += simplex.pivots - pivots_before

    def _slack_for_atom(self, simplex: Simplex, var: int, atom: Comparison) -> int:
        """Resolve (and in incremental mode memoize) the atom's slack variable."""
        if not self._incremental_theory:
            return simplex.slack_for(atom.poly.coeffs)
        slack = self._atom_slack.get(var)
        if slack is None:
            slack = simplex.slack_for(atom.poly.coeffs)
            self._atom_slack[var] = slack
        return slack

    @staticmethod
    def _assert_atom(
        simplex: Simplex, slack: int, atom: Comparison, value: bool, literal: int
    ) -> Optional[List[int]]:
        """Assert a (possibly negated) atom into the simplex solver."""
        if value:
            if atom.op == "<=":
                bound = DeltaRational.of(atom.bound)
                conflict = simplex.assert_upper(slack, bound, literal)
            else:  # "<"
                bound = DeltaRational.of(atom.bound, -1)
                conflict = simplex.assert_upper(slack, bound, literal)
        else:
            if atom.op == "<=":
                # not (p <= b)  <=>  p > b
                bound = DeltaRational.of(atom.bound, 1)
                conflict = simplex.assert_lower(slack, bound, literal)
            else:  # not (p < b)  <=>  p >= b
                bound = DeltaRational.of(atom.bound)
                conflict = simplex.assert_lower(slack, bound, literal)
        if conflict is None:
            return None
        return list(conflict)

    def _store_model(self, sat_model: Mapping[int, bool], simplex: Simplex) -> None:
        bool_values = {
            name: sat_model.get(var, False)
            for name, var in self._converter.bool_vars.items()
        }
        real_values = simplex.model()
        self._model = Model(bool_values, real_values)

    # ------------------------------------------------------------------
    def model(self) -> Model:
        """Return the model of the last successful :meth:`check` call."""
        if self._model is None:
            raise RuntimeError("no model available; call check() first and get SAT")
        return self._model

    def last_simplex(self) -> Optional[Simplex]:
        """Return the theory solver state of the last SAT answer (for OMT).

        In incremental mode the returned instance still holds the bounds of
        the satisfying Boolean skeleton, so the OMT layer can maximize over
        it directly; the bounds are retracted at the start of the next
        :meth:`check` call.
        """
        return self._last_simplex

    def statistics(self) -> Dict[str, int]:
        """Aggregate solver statistics: theory counters plus SAT counters.

        SAT-core counters (conflicts, decisions, propagations, ...) are
        included with a ``sat_`` prefix, so callers never need to reach
        into the private SAT solver.
        """
        stats = dict(self._stats)
        for key, value in self._sat.statistics.as_dict().items():
            stats[f"sat_{key}"] = value
        return stats
