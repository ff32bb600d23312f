"""Output checks run outside the timed region.

Every output circuit must implement its input up to a global phase.  The
reference is the routed input when the router rewrote the circuit, which
is what the pipeline itself compares against.  Identical outputs of the
same input get the same verdict, so each distinct output is checked once.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

#: Which cost figure each technique optimises (the objective metric).
OBJECTIVE_FIGURE = {
    "sat_f": "gate_fidelity_product",
    "template_f": "gate_fidelity_product",
    "direct": "gate_fidelity_product",
    "kak_cz": "gate_fidelity_product",
    "kak_dcz": "gate_fidelity_product",
    "sat_r": "idle_survival_probability",
    "template_r": "idle_survival_probability",
    "sat_p": "combined_score",
}


def objective_nats(technique: str, cost) -> float:
    """-ln of the figure ``technique`` optimises, read from the final cost."""
    return -math.log(getattr(cost, OBJECTIVE_FIGURE[technique]))


class Oracle:
    """Unitary-equivalence verdicts, memoised per (input, output) pair."""

    def __init__(self) -> None:
        self._references: Dict[str, object] = {}
        self._verdicts: Dict[Tuple[str, str], Optional[str]] = {}

    def check(self, key: str, circuit, target, output) -> Optional[str]:
        """``None`` when ``output`` implements ``circuit``, else the reason."""
        from repro.api.fingerprints import circuit_hash

        verdict_key = (key, circuit_hash(output))
        if verdict_key not in self._verdicts:
            self._verdicts[verdict_key] = self._compare(key, circuit, target, output)
        return self._verdicts[verdict_key]

    def _compare(self, key, circuit, target, output) -> Optional[str]:
        from repro.circuits.unitary import allclose_up_to_global_phase, circuit_unitary
        from repro.pipeline.passes import route_if_needed

        try:
            if key not in self._references:
                self._references[key] = circuit_unitary(route_if_needed(circuit, target))
            if allclose_up_to_global_phase(circuit_unitary(output),
                                           self._references[key], atol=1e-6):
                return None
            return "output is not unitary-equivalent to its input"
        except Exception as error:  # noqa: BLE001 - a failed check is a failed op
            return f"{type(error).__name__}: {error}"
