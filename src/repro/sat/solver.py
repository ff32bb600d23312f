"""A conflict-driven clause-learning (CDCL) SAT solver.

The solver follows the architecture of MiniSat:

* two-watched-literal unit propagation,
* first unique implication point (1UIP) conflict analysis,
* VSIDS-style exponential variable activity with phase saving,
* Luby-sequence restarts,
* incremental solving under assumptions with final-conflict (unsat core)
  extraction,
* optional learned-clause garbage collection driven by clause activity.

Variables are positive integers assigned by the caller (gaps are allowed),
literals are non-zero signed integers.  The solver is deliberately written in
plain Python with flat data structures (lists indexed by variable number) so
that the hot propagation loop stays reasonably fast without any native
extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.resilience.budget import current_budget
from repro.resilience.faults import active_fault_plan
from repro.trace.tracer import event, hooks_active

#: Conflict-count granularity of the ``sat.conflicts`` progress events:
#: one milestone event per this many conflicts (plus one on exit) keeps
#: traces bounded on conflict-heavy instances.
TRACE_CONFLICT_MILESTONE = 512


class SolverResult(Enum):
    """Tri-state result of a :meth:`Solver.solve` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStatistics:
    """Counters describing the work performed by the solver."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    max_decision_level: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the statistics as a plain dictionary."""
        return {
            "decisions": self.decisions,
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "deleted_clauses": self.deleted_clauses,
            "max_decision_level": self.max_decision_level,
        }


@dataclass
class _Clause:
    """Internal clause representation.

    Literals are stored in the solver's internal encoding (see
    :meth:`Solver._lit_to_internal`).  The first two literals are the watched
    literals.
    """

    literals: List[int]
    learned: bool = False
    activity: float = 0.0

    def __len__(self) -> int:
        return len(self.literals)


# Truth values for the internal assignment array.
_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1


def luby(index: int) -> int:
    """Return the ``index``-th element (1-based) of the Luby sequence.

    The Luby sequence (1, 1, 2, 1, 1, 2, 4, ...) is the standard universal
    restart schedule; restart intervals are obtained by scaling it with a
    base conflict budget.
    """
    if index <= 0:
        raise ValueError("Luby index must be positive")
    # MiniSat-style computation on the 0-based index.
    position = index - 1
    size, sequence = 1, 0
    while size < position + 1:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != position:
        size = (size - 1) // 2
        sequence -= 1
        position = position % size
    return 1 << sequence


class Solver:
    """Incremental CDCL SAT solver.

    Parameters
    ----------
    restart_base:
        Base number of conflicts between restarts; multiplied by the Luby
        sequence.
    var_decay:
        Multiplicative decay applied to VSIDS activities after each conflict.
    clause_decay:
        Multiplicative decay applied to learned clause activities.
    max_conflicts:
        Optional global conflict budget; :meth:`solve` returns
        :data:`SolverResult.UNKNOWN` when exceeded.
    """

    def __init__(
        self,
        restart_base: int = 100,
        var_decay: float = 0.95,
        clause_decay: float = 0.999,
        max_conflicts: Optional[int] = None,
    ) -> None:
        self._restart_base = restart_base
        self._var_decay = var_decay
        self._clause_decay = clause_decay
        self._max_conflicts = max_conflicts

        # Mapping between external variable numbers and internal indices.
        self._ext_to_int: Dict[int, int] = {}
        self._int_to_ext: List[int] = [0]  # index 0 unused

        # Per-variable state, indexed by internal variable index.
        self._assignment: List[int] = [_UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]

        # Watch lists indexed by internal literal encoding (2*v or 2*v+1).
        self._watches: List[List[_Clause]] = [[], []]

        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._propagation_head = 0

        self._var_inc = 1.0
        self._clause_inc = 1.0

        self._ok = True  # False once the clause database is trivially unsat.
        self._model: Dict[int, bool] = {}
        self._failed_assumptions: List[int] = []
        self._assumption_levels_storage: List[int] = []

        self.statistics = SolverStatistics()

    # ------------------------------------------------------------------
    # Variable and literal bookkeeping
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate and return a fresh external variable number."""
        candidate = len(self._int_to_ext)
        while candidate in self._ext_to_int:
            candidate += 1
        self._ensure_var(candidate)
        return candidate

    def num_vars(self) -> int:
        """Return the number of registered variables."""
        return len(self._int_to_ext) - 1

    def num_clauses(self) -> int:
        """Return the number of problem (non-learned) clauses."""
        return len(self._clauses)

    def _ensure_var(self, ext_var: int) -> int:
        if ext_var <= 0:
            raise ValueError(f"variables must be positive integers, got {ext_var}")
        existing = self._ext_to_int.get(ext_var)
        if existing is not None:
            return existing
        index = len(self._int_to_ext)
        self._ext_to_int[ext_var] = index
        self._int_to_ext.append(ext_var)
        self._assignment.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._watches.append([])
        self._watches.append([])
        return index

    def _lit_to_internal(self, lit: int) -> int:
        """Convert an external signed literal to the internal encoding."""
        if lit == 0:
            raise ValueError("0 is not a valid literal")
        var = self._ensure_var(abs(lit))
        return 2 * var + (1 if lit < 0 else 0)

    def _lit_to_external(self, internal: int) -> int:
        var = internal >> 1
        ext = self._int_to_ext[var]
        return -ext if internal & 1 else ext

    @staticmethod
    def _negate(internal: int) -> int:
        return internal ^ 1

    def _value_of_lit(self, internal: int) -> int:
        value = self._assignment[internal >> 1]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return -value if internal & 1 else value

    # ------------------------------------------------------------------
    # Clause management
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause given as an iterable of signed external literals.

        Returns ``False`` when the clause database has become trivially
        unsatisfiable (empty clause or conflicting units at level 0).
        """
        if not self._ok:
            return False
        if self._trail_lim:
            raise RuntimeError("clauses may only be added at decision level 0")

        seen = set()
        internal: List[int] = []
        tautology = False
        for lit in literals:
            ilit = self._lit_to_internal(lit)
            if self._negate(ilit) in seen:
                tautology = True
                break
            if ilit in seen:
                continue
            value = self._value_of_lit(ilit)
            if value == _TRUE:
                tautology = True
                break
            if value == _FALSE:
                continue  # falsified at level 0: drop the literal
            seen.add(ilit)
            internal.append(ilit)
        if tautology:
            return True

        if not internal:
            self._ok = False
            return False
        if len(internal) == 1:
            if not self._enqueue(internal[0], None):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True

        clause = _Clause(internal)
        self._attach_clause(clause)
        self._clauses.append(clause)
        return True

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> bool:
        """Add several clauses; returns ``False`` if the database is unsat."""
        result = True
        for clause in clauses:
            result = self.add_clause(clause) and result
        return result

    def _attach_clause(self, clause: _Clause) -> None:
        self._watches[self._negate(clause.literals[0])].append(clause)
        self._watches[self._negate(clause.literals[1])].append(clause)

    # ------------------------------------------------------------------
    # Assignment trail
    # ------------------------------------------------------------------
    def _enqueue(self, internal: int, reason: Optional[_Clause]) -> bool:
        value = self._value_of_lit(internal)
        if value == _FALSE:
            return False
        if value == _TRUE:
            return True
        var = internal >> 1
        self._assignment[var] = _FALSE if internal & 1 else _TRUE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = not (internal & 1)
        self._trail.append(internal)
        return True

    def _propagate(self) -> Optional[_Clause]:
        """Perform unit propagation; return a conflicting clause or ``None``."""
        while self._propagation_head < len(self._trail):
            lit = self._trail[self._propagation_head]
            self._propagation_head += 1
            self.statistics.propagations += 1

            watch_list = self._watches[lit]
            new_watch_list: List[_Clause] = []
            index = 0
            size = len(watch_list)
            while index < size:
                clause = watch_list[index]
                index += 1
                lits = clause.literals
                # Ensure the falsified literal is at position 1.
                false_lit = self._negate(lit)
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self._value_of_lit(first) == _TRUE:
                    new_watch_list.append(clause)
                    continue
                # Look for a new literal to watch.
                found = False
                for position in range(2, len(lits)):
                    if self._value_of_lit(lits[position]) != _FALSE:
                        lits[1], lits[position] = lits[position], lits[1]
                        self._watches[self._negate(lits[1])].append(clause)
                        found = True
                        break
                if found:
                    continue
                new_watch_list.append(clause)
                if not self._enqueue(first, clause):
                    # Conflict: keep the remaining watchers and report.
                    new_watch_list.extend(watch_list[index:])
                    self._watches[lit] = new_watch_list
                    return clause
            self._watches[lit] = new_watch_list
        return None

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for internal in reversed(self._trail[limit:]):
            var = internal >> 1
            self._assignment[var] = _UNASSIGNED
            self._reason[var] = None
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._propagation_head = min(self._propagation_head, len(self._trail))

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for index in range(1, len(self._activity)):
                self._activity[index] *= 1e-100
            self._var_inc *= 1e-100

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, clause: _Clause) -> None:
        clause.activity += self._clause_inc
        if clause.activity > 1e20:
            for learned in self._learned:
                learned.activity *= 1e-20
            self._clause_inc *= 1e-20

    def _decay_clause_activity(self) -> None:
        self._clause_inc /= self._clause_decay

    def _analyze(self, conflict: _Clause) -> tuple[List[int], int]:
        """1UIP conflict analysis.

        Returns the learned clause (internal literals, asserting literal
        first) and the backtrack level.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * len(self._int_to_ext)
        counter = 0
        current = conflict
        trail_index = len(self._trail) - 1
        asserting_lit = -1
        level = self._decision_level()

        while True:
            self._bump_clause(current) if current.learned else None
            for lit in current.literals:
                if lit == asserting_lit:
                    continue
                var = lit >> 1
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump_var(var)
                if self._level[var] == level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next literal on the trail that participates.
            while not seen[self._trail[trail_index] >> 1]:
                trail_index -= 1
            asserting_internal = self._trail[trail_index]
            var = asserting_internal >> 1
            seen[var] = False
            trail_index -= 1
            counter -= 1
            if counter == 0:
                asserting_lit = self._negate(asserting_internal)
                learned[0] = asserting_lit
                break
            reason = self._reason[var]
            assert reason is not None, "decision literal reached before 1UIP"
            current = reason
            asserting_lit = asserting_internal

        # Clause minimization: drop literals implied by the rest of the clause.
        learned = self._minimize_learned(learned, seen)

        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Find the literal with the second highest decision level.
            max_index = 1
            for position in range(2, len(learned)):
                if self._level[learned[position] >> 1] > self._level[learned[max_index] >> 1]:
                    max_index = position
            learned[1], learned[max_index] = learned[max_index], learned[1]
            backtrack_level = self._level[learned[1] >> 1]
        return learned, backtrack_level

    def _minimize_learned(self, learned: List[int], seen: List[bool]) -> List[int]:
        """Cheap recursive clause minimization (local form)."""
        for lit in learned[1:]:
            seen[lit >> 1] = True
        minimized = [learned[0]]
        for lit in learned[1:]:
            var = lit >> 1
            reason = self._reason[var]
            if reason is None:
                minimized.append(lit)
                continue
            redundant = True
            for other in reason.literals:
                other_var = other >> 1
                if other_var == var:
                    continue
                if not seen[other_var] and self._level[other_var] > 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(lit)
        for lit in learned[1:]:
            seen[lit >> 1] = False
        return minimized

    # ------------------------------------------------------------------
    # Learned clause database reduction
    # ------------------------------------------------------------------
    def _reduce_learned(self) -> None:
        """Remove roughly half of the inactive learned clauses."""
        self._learned.sort(key=lambda clause: clause.activity)
        keep_from = len(self._learned) // 2
        removed: List[_Clause] = []
        kept: List[_Clause] = []
        for index, clause in enumerate(self._learned):
            locked = any(self._reason[lit >> 1] is clause for lit in clause.literals[:1])
            if index < keep_from and len(clause) > 2 and not locked:
                removed.append(clause)
            else:
                kept.append(clause)
        for clause in removed:
            self._detach_clause(clause)
        self.statistics.deleted_clauses += len(removed)
        self._learned = kept

    def _detach_clause(self, clause: _Clause) -> None:
        for watched in (clause.literals[0], clause.literals[1]):
            watch_list = self._watches[self._negate(watched)]
            try:
                watch_list.remove(clause)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Branching
    # ------------------------------------------------------------------
    def _pick_branch_literal(self) -> Optional[int]:
        best_var = -1
        best_activity = -1.0
        for var in range(1, len(self._int_to_ext)):
            if self._assignment[var] == _UNASSIGNED and self._activity[var] > best_activity:
                best_activity = self._activity[var]
                best_var = var
        if best_var < 0:
            return None
        phase = self._phase[best_var]
        return 2 * best_var + (0 if phase else 1)

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve the current formula under the given assumptions.

        Returns ``True`` for satisfiable, ``False`` for unsatisfiable.  Use
        :meth:`solve_limited` to obtain a tri-state result honouring conflict
        budgets.
        """
        result = self.solve_limited(assumptions)
        if result == SolverResult.UNKNOWN:
            raise RuntimeError("conflict budget exhausted before a result was reached")
        return result == SolverResult.SAT

    def solve_limited(self, assumptions: Sequence[int] = ()) -> SolverResult:
        """Solve and return a :class:`SolverResult` (may be ``UNKNOWN``)."""
        self._model = {}
        self._failed_assumptions = []
        if not self._ok:
            return SolverResult.UNSAT

        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SolverResult.UNSAT

        # The hook switch, the ambient compile budget (deadline and
        # cancellation) and the fault plan are fetched once per solve;
        # the per-conflict cost in the common case is one test each.
        hooked = hooks_active()
        budget = current_budget()
        fault_plan = active_fault_plan()
        stats = self.statistics
        mark = (stats.conflicts, stats.propagations, stats.decisions,
                stats.restarts)

        internal_assumptions = [self._lit_to_internal(lit) for lit in assumptions]
        conflicts_since_restart = 0
        restart_index = 1
        restart_limit = self._restart_base * luby(restart_index)
        learned_limit = max(100, len(self._clauses) // 3)

        try:
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    self.statistics.conflicts += 1
                    conflicts_since_restart += 1
                    if self._decision_level() == 0:
                        self._ok = False
                        return SolverResult.UNSAT
                    if self._decision_level() <= len(self._assumption_levels):
                        # Conflict within the assumption prefix: extract the core.
                        self._failed_assumptions = self._analyze_final(conflict, internal_assumptions)
                        self._backtrack(0)
                        return SolverResult.UNSAT
                    learned, backtrack_level = self._analyze(conflict)
                    backtrack_level = max(backtrack_level, len(self._assumption_levels))
                    self._backtrack(backtrack_level)
                    self._install_learned(learned)
                    self._decay_var_activity()
                    self._decay_clause_activity()
                    if (
                        self._max_conflicts is not None
                        and self.statistics.conflicts >= self._max_conflicts
                    ):
                        self._backtrack(0)
                        return SolverResult.UNKNOWN
                    if budget is not None:
                        budget.charge("sat.conflict", conflicts=1)
                    if fault_plan is not None:
                        fault_plan.delay("sat.conflict")
                    if hooked and stats.conflicts % TRACE_CONFLICT_MILESTONE == 0:
                        mark = self._report_progress(mark)
                    if conflicts_since_restart >= restart_limit:
                        self.statistics.restarts += 1
                        restart_index += 1
                        restart_limit = self._restart_base * luby(restart_index)
                        conflicts_since_restart = 0
                        self._backtrack(len(self._assumption_levels))
                        if hooked:
                            event(
                                "sat.restart", "solver",
                                d_restarts=1,
                                restarts=self.statistics.restarts,
                                conflicts=self.statistics.conflicts,
                                next_limit=restart_limit,
                            )
                    if len(self._learned) > learned_limit:
                        learned_before = len(self._learned)
                        self._reduce_learned()
                        learned_limit = int(learned_limit * 1.3) + 10
                        if hooked:
                            event(
                                "sat.reduce_db", "solver",
                                d_deleted=learned_before - len(self._learned),
                                learned=len(self._learned),
                                next_limit=learned_limit,
                            )
                    continue

                # No conflict: extend assumptions first, then decide.
                if len(self._assumption_levels) < len(internal_assumptions):
                    next_assumption = internal_assumptions[len(self._assumption_levels)]
                    value = self._value_of_lit(next_assumption)
                    if value == _FALSE:
                        self._failed_assumptions = self._analyze_final_assigned(
                            next_assumption, internal_assumptions
                        )
                        self._backtrack(0)
                        return SolverResult.UNSAT
                    self._new_decision_level()
                    self._assumption_levels.append(self._decision_level())
                    if value == _UNASSIGNED:
                        self._enqueue(next_assumption, None)
                    continue

                decision = self._pick_branch_literal()
                if decision is None:
                    self._store_model()
                    self._backtrack(0)
                    return SolverResult.SAT
                self.statistics.decisions += 1
                self._new_decision_level()
                self.statistics.max_decision_level = max(
                    self.statistics.max_decision_level, self._decision_level()
                )
                self._enqueue(decision, None)
        finally:
            # Report the unreported progress exactly once per solve, even
            # when the budget aborts mid-search with CompileInterrupted.
            if hooked:
                self._report_progress(mark)

    def _report_progress(
        self, mark: Tuple[int, int, int, int],
    ) -> Tuple[int, int, int, int]:
        """Emit one ``sat.conflicts`` event: search deltas since ``mark``.

        Returns the new mark.  The event feeds the trace and the
        ``repro_solver_*`` metric families alike.
        """
        stats = self.statistics
        now = (stats.conflicts, stats.propagations, stats.decisions,
               stats.restarts)
        event("sat.conflicts", "solver",
              d_conflicts=now[0] - mark[0], d_propagations=now[1] - mark[1],
              d_decisions=now[2] - mark[2], d_restarts=now[3] - mark[3],
              conflicts=now[0], learned=len(self._learned))
        return now

    def _install_learned(self, learned: List[int]) -> None:
        self.statistics.learned_clauses += 1
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        clause = _Clause(list(learned), learned=True)
        self._attach_clause(clause)
        self._learned.append(clause)
        self._bump_clause(clause)
        self._enqueue(learned[0], clause)

    # The assumption handling keeps one decision level per assumption.
    @property
    def _assumption_levels(self) -> List[int]:
        # Reset the bookkeeping whenever the trail has been rewound below it.
        while (
            self._assumption_levels_storage
            and self._assumption_levels_storage[-1] > self._decision_level()
        ):
            self._assumption_levels_storage.pop()
        return self._assumption_levels_storage

    def _analyze_final(
        self, conflict: _Clause, assumptions: Sequence[int]
    ) -> List[int]:
        """Collect the subset of assumptions responsible for a conflict."""
        assumption_vars = {lit >> 1 for lit in assumptions}
        involved: set[int] = set()
        seen: set[int] = set()
        queue = [lit >> 1 for lit in conflict.literals]
        while queue:
            var = queue.pop()
            if var in seen or self._level[var] == 0:
                continue
            seen.add(var)
            reason = self._reason[var]
            if reason is None:
                if var in assumption_vars:
                    involved.add(var)
                continue
            queue.extend(other >> 1 for other in reason.literals if (other >> 1) != var)
        return [
            self._lit_to_external(lit)
            for lit in assumptions
            if (lit >> 1) in involved
        ]

    def _analyze_final_assigned(
        self, failed: int, assumptions: Sequence[int]
    ) -> List[int]:
        """Assumption ``failed`` is already false; trace back its reasons."""
        assumption_vars = {lit >> 1 for lit in assumptions}
        involved = {failed >> 1} if (failed >> 1) in assumption_vars else set()
        seen: set[int] = set()
        queue = [failed >> 1]
        while queue:
            var = queue.pop()
            if var in seen or self._level[var] == 0:
                continue
            seen.add(var)
            reason = self._reason[var]
            if reason is None:
                if var in assumption_vars:
                    involved.add(var)
                continue
            queue.extend(other >> 1 for other in reason.literals if (other >> 1) != var)
        result = [
            self._lit_to_external(lit)
            for lit in assumptions
            if (lit >> 1) in involved
        ]
        failed_ext = self._lit_to_external(failed)
        if failed_ext not in result and -failed_ext not in result:
            result.append(failed_ext)
        return result

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------
    def _store_model(self) -> None:
        self._model = {}
        for var in range(1, len(self._int_to_ext)):
            value = self._assignment[var]
            if value != _UNASSIGNED:
                self._model[self._int_to_ext[var]] = value == _TRUE
            else:
                # Unconstrained variable: default to the saved phase.
                self._model[self._int_to_ext[var]] = self._phase[var]

    def model(self) -> Dict[int, bool]:
        """Return the last satisfying assignment as ``{variable: bool}``."""
        return dict(self._model)

    def model_value(self, variable: int) -> bool:
        """Return the truth value of ``variable`` in the last model."""
        if variable <= 0:
            raise ValueError("variables are positive integers")
        if variable not in self._model:
            raise KeyError(f"variable {variable} not present in the model")
        return self._model[variable]

    def failed_assumptions(self) -> List[int]:
        """Return the subset of assumptions proven inconsistent (unsat core)."""
        return list(self._failed_assumptions)
