"""Delay injection for the sensitivity check.

``install("solve:1.0")`` makes every ``SolvePass.run`` call spin for 1.0
times its own duration after it returns, i.e. the layer becomes twice as
slow.  The delay is a busy wait, so it holds the interpreter lock like the
computation it stands for.  This is applied by monkeypatching from the
benchmark's side only; the program has no such setting.
"""

from __future__ import annotations

import functools
import importlib
import time

TARGETS = {
    "solve": ("repro.pipeline.passes", "SolvePass", "run"),
    "evaluate_rules": ("repro.pipeline.passes", "EvaluateRulesPass", "run"),
    "merge_1q": ("repro.pipeline.passes", "MergeSingleQubitPass", "run"),
    "to_dict": ("repro.core.adapter", "AdaptationResult", "to_dict"),
}


def install(spec: str) -> None:
    """Slow one layer down; ``spec`` is ``<target>:<extra share>``."""
    name, _, factor = spec.partition(":")
    if name not in TARGETS:
        raise SystemExit(f"unknown injection target {name!r}; choose from {sorted(TARGETS)}")
    extra = float(factor or 1.0)
    module_name, class_name, attribute = TARGETS[name]
    owner = getattr(importlib.import_module(module_name), class_name)
    original = getattr(owner, attribute)

    @functools.wraps(original)
    def slowed(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        until = time.perf_counter() + extra * (time.perf_counter() - started)
        while time.perf_counter() < until:
            pass
        return result

    setattr(owner, attribute, slowed)
