"""String-keyed registry of adaptation techniques.

Every technique the evaluation section compares is addressable by a stable
key (the names used in the paper's figures):

========== ================================================== ============
key        description                                        objective
========== ================================================== ============
sat_f      exact adaptation maximizing circuit fidelity       Eq. (8)
sat_r      SMT adaptation minimizing qubit idle time          Eq. (9)
sat_p      SMT adaptation, combined objective                 Eq. (10)
direct     direct basis translation (the reference baseline)  --
kak_cz     per-block KAK resynthesis with adiabatic CZ        --
kak_dcz    per-block KAK resynthesis with diabatic CZ         --
template_f greedy template optimization, fidelity objective   local Eq. (8)
template_r greedy template optimization, idle-time objective  local Eq. (9)
========== ================================================== ============

New techniques plug in through :func:`register_technique`; the registry
hands :func:`repro.compile` a fresh :class:`repro.pipeline.Pipeline` per
compilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.pipeline.manager import Pipeline
from repro.pipeline.passes import (
    AnalyzeCostPass,
    ApplyPass,
    EvaluateRulesPass,
    GreedySelection,
    KakRules,
    MergeSingleQubitPass,
    PreprocessPass,
    RoutePass,
    SelectAll,
    SelectNone,
    SmtSelection,
    SolvePass,
    VerifyPass,
    no_rules,
    sat_rules,
    template_rules,
)


class UnknownTechniqueError(KeyError):
    """Raised when a technique key is not in the registry."""

    def __init__(self, key: str, known: Sequence[str]) -> None:
        super().__init__(key)
        self.key = key
        self.known = list(known)

    def __str__(self) -> str:
        known = ", ".join(sorted(self.known))
        return f"unknown technique {self.key!r}; registered techniques: {known}"


#: Options every built-in technique understands.
COMMON_OPTIONS: FrozenSet[str] = frozenset(
    {"merge_single_qubit_gates", "verify"}
)


@dataclass(frozen=True)
class TechniqueSpec:
    """One registered technique: key, docs and a pipeline factory."""

    key: str
    description: str
    pipeline_factory: Callable[[], Pipeline]
    option_names: FrozenSet[str] = COMMON_OPTIONS

    def build_pipeline(self) -> Pipeline:
        """Construct a fresh pipeline for one compilation."""
        return self.pipeline_factory()

    def validate_options(self, options: Dict[str, object]) -> None:
        """Reject option names this technique does not understand."""
        unknown = set(options) - set(self.option_names)
        if unknown:
            allowed = ", ".join(sorted(self.option_names)) or "(none)"
            raise TypeError(
                f"technique {self.key!r} got unexpected option(s) "
                f"{sorted(unknown)}; allowed options: {allowed}"
            )


_REGISTRY: Dict[str, TechniqueSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_technique(
    key: str,
    pipeline_factory: Callable[[], Pipeline],
    *,
    description: str = "",
    aliases: Sequence[str] = (),
    extra_options: Sequence[str] = (),
    overwrite: bool = False,
) -> TechniqueSpec:
    """Register a technique under ``key`` (the plugin hook).

    Parameters
    ----------
    key:
        Canonical registry key (e.g. ``"sat_p"``).
    pipeline_factory:
        Zero-argument callable returning a fresh
        :class:`repro.pipeline.Pipeline` per compilation.
    description:
        One-line description shown by :func:`available_techniques`.
    aliases:
        Alternative keys resolving to the same technique.
    extra_options:
        Option names (beyond the common ``merge_single_qubit_gates`` /
        ``verify``) this technique's passes read from the context.
    overwrite:
        Allow replacing what ``key`` resolves to.  ``overwrite`` applies
        to ``key`` only — an alias can never silently hijack another
        technique's name.
    """
    if not overwrite and (key in _REGISTRY or key in _ALIASES):
        raise ValueError(f"technique {key!r} is already registered "
                         "(pass overwrite=True to replace it)")
    for alias in aliases:
        points_elsewhere = _ALIASES.get(alias) not in (None, key)
        if alias in _REGISTRY or points_elsewhere:
            raise ValueError(
                f"alias {alias!r} would shadow an existing technique; "
                "register under that key explicitly instead"
            )
    if overwrite:
        if key in _ALIASES:
            # Re-registering an alias key detaches it: it becomes a
            # canonical key of its own, leaving its old target untouched.
            del _ALIASES[key]
        # Results compiled by a replaced registration must not be served.
        from repro.api.cache import GLOBAL_CACHE

        GLOBAL_CACHE.invalidate_technique(key)
    spec = TechniqueSpec(
        key=key,
        description=description,
        pipeline_factory=pipeline_factory,
        option_names=COMMON_OPTIONS | frozenset(extra_options),
    )
    _REGISTRY[key] = spec
    for alias in aliases:
        _ALIASES[alias] = key
    return spec


def unregister_technique(key: str) -> None:
    """Remove a technique (and its aliases) from the registry."""
    from repro.api.cache import GLOBAL_CACHE

    canonical = _ALIASES.get(key, key)
    _REGISTRY.pop(canonical, None)
    for alias in [a for a, k in _ALIASES.items() if k == canonical]:
        del _ALIASES[alias]
    GLOBAL_CACHE.invalidate_technique(canonical)


def resolve_technique(key: str) -> TechniqueSpec:
    """Resolve a key or alias to its :class:`TechniqueSpec`."""
    canonical = _ALIASES.get(key, key)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise UnknownTechniqueError(key, list(_REGISTRY)) from None


def available_techniques() -> Dict[str, str]:
    """Mapping of every canonical technique key to its description."""
    return {key: spec.description for key, spec in _REGISTRY.items()}


# ---------------------------------------------------------------------------
# Built-in techniques
# ---------------------------------------------------------------------------
def _standard_pipeline(
    name: str,
    rules_factory,
    selection,
    reference_when_empty: bool = False,
    baseline_is_self: bool = False,
) -> Pipeline:
    """The Fig. 2 flow as the canonical eight-pass pipeline."""
    return Pipeline(
        [
            RoutePass(),
            PreprocessPass(),
            EvaluateRulesPass(rules_factory),
            SolvePass(selection),
            ApplyPass(reference_when_empty=reference_when_empty),
            MergeSingleQubitPass(),
            VerifyPass(),
            AnalyzeCostPass(baseline_is_self=baseline_is_self),
        ],
        name=name,
    )


def _register_builtins() -> None:
    sat_options = ("rules", "max_improvement_rounds", "incremental_theory")
    register_technique(
        "sat_f",
        lambda: _standard_pipeline("sat_f", sat_rules, SmtSelection("fidelity")),
        description="exact per-block adaptation maximizing circuit fidelity (SAT_F, Eq. 8)",
        aliases=("sat_fidelity",),
        extra_options=sat_options,
    )
    register_technique(
        "sat_r",
        lambda: _standard_pipeline("sat_r", sat_rules, SmtSelection("idle")),
        description="SMT adaptation minimizing qubit idle time (SAT_R, Eq. 9)",
        aliases=("sat_idle",),
        extra_options=sat_options,
    )
    register_technique(
        "sat_p",
        lambda: _standard_pipeline("sat_p", sat_rules, SmtSelection("combined")),
        description="SMT adaptation with the combined objective (SAT_P, Eq. 10)",
        aliases=("sat", "sat_combined"),
        extra_options=sat_options,
    )
    register_technique(
        "direct",
        lambda: _standard_pipeline("direct", no_rules, SelectNone(),
                                   reference_when_empty=True,
                                   baseline_is_self=True),
        description="direct basis translation through the CZ library (baseline)",
    )
    register_technique(
        "kak_cz",
        lambda: _standard_pipeline("kak_cz", KakRules("cz"), SelectAll()),
        description="per-block KAK resynthesis with the adiabatic CZ",
        aliases=("kak",),
    )
    register_technique(
        "kak_dcz",
        lambda: _standard_pipeline("kak_dcz", KakRules("cz_d"), SelectAll()),
        description="per-block KAK resynthesis with the diabatic CZ",
        aliases=("kak_czd",),
    )
    register_technique(
        "template_f",
        lambda: _standard_pipeline("template_f", template_rules,
                                   GreedySelection("fidelity")),
        description="greedy template optimization, fidelity objective",
        aliases=("template_fidelity",),
        extra_options=("rules",),
    )
    register_technique(
        "template_r",
        lambda: _standard_pipeline("template_r", template_rules,
                                   GreedySelection("idle")),
        description="greedy template optimization, idle-time objective",
        aliases=("template_idle",),
        extra_options=("rules",),
    )


_register_builtins()

#: The import-time registrations, captured so batch drivers can tell
#: whether a key still resolves to the spec every process re-creates on
#: import.  Runtime registrations (or overwritten built-ins) exist only
#: in the registering process and must not be shipped to process-pool
#: workers, which re-import a fresh registry.
_BUILTIN_SPECS: Dict[str, TechniqueSpec] = dict(_REGISTRY)

#: Technique keys registered at import time in every process.
BUILTIN_TECHNIQUES = frozenset(_BUILTIN_SPECS)


def is_builtin_spec(spec: TechniqueSpec) -> bool:
    """True when ``spec`` is the unmodified import-time registration."""
    return _BUILTIN_SPECS.get(spec.key) is spec

#: The canonical technique keys of the paper's evaluation, in figure order.
PAPER_TECHNIQUES: Tuple[str, ...] = (
    "direct",
    "kak_cz",
    "kak_dcz",
    "template_f",
    "template_r",
    "sat_f",
    "sat_r",
    "sat_p",
)
