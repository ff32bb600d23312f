"""SAT/SMT-based quantum circuit adaptation (the paper's contribution).

.. note::
   The public entry point is the unified facade :func:`repro.compile`
   (with :func:`repro.compile_many` for batches): techniques are
   addressed by registry keys (``"sat_p"``, ``"direct"``, ``"kak_cz"``,
   ...) and run as the instrumented pass pipeline of
   :mod:`repro.pipeline`.

The adaptation flow follows Fig. 2 of the paper:

1. **Preprocessing** (:mod:`repro.core.preprocessing`): the routed input
   circuit is partitioned into two-qubit blocks, each block is translated
   to the target basis to obtain a reference cost (duration = critical
   path, fidelity = product of gate fidelities), and the block dependency
   graph is built.
2. **Substitution-rule evaluation** (:mod:`repro.core.rules`): every rule of
   Fig. 3 (conditional-rotation, direct and composite swap, KAK
   decomposition) is matched against the circuit, producing candidate
   substitutions with their duration / fidelity deltas (Eqs. 4 and 6).
3. **SMT model construction and solving** (:mod:`repro.core.model`): Boolean
   selection variables, block start/duration/fidelity variables and the
   constraints of Eqs. (1)-(6) are handed to the OMT solver with one of the
   objectives SAT_F (Eq. 8), SAT_R (Eq. 9) or SAT_P (Eq. 10).
4. **Adaptation extraction** (:mod:`repro.core.adapter`): chosen
   substitutions are applied, remaining foreign gates fall back to the
   reference translation, and the resulting circuit is verified to be
   unitarily equivalent to the input.

Baseline techniques (direct basis translation, KAK-only decomposition with
CZ or diabatic CZ, template optimization with fidelity or idle-time
objective) are registry keys of :func:`repro.compile` (``"direct"``,
``"kak_cz"``/``"kak_dcz"``, ``"template_f"``/``"template_r"``).
"""

from repro.core.rules import Substitution, SubstitutionRule, standard_rules, evaluate_rules
from repro.core.preprocessing import PreprocessedBlock, PreprocessedCircuit, preprocess
from repro.core.model import AdaptationModel, ModelSolution, OBJECTIVE_FIDELITY, OBJECTIVE_IDLE, OBJECTIVE_COMBINED
from repro.core.adapter import AdaptationResult

__all__ = [
    "Substitution",
    "SubstitutionRule",
    "standard_rules",
    "evaluate_rules",
    "PreprocessedBlock",
    "PreprocessedCircuit",
    "preprocess",
    "AdaptationModel",
    "ModelSolution",
    "OBJECTIVE_FIDELITY",
    "OBJECTIVE_IDLE",
    "OBJECTIVE_COMBINED",
    "AdaptationResult",
]
