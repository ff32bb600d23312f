"""``repro.trace``: opt-in structured event tracing across the stack.

Instrumented code makes one hook call per site, :func:`span` or
:func:`event`; each feeds the JSONL tracer and, while
:mod:`repro.telemetry` is enabled, the metric registry.  Enable tracing
globally with :func:`start_tracing` (or the ``REPRO_TRACE`` environment
variable, honoured automatically on import — including in spawned worker
processes, which inherit the environment), per call with
``compile(..., trace="run.jsonl")``, or per component (service/server
constructors take ``trace=``).  With both sinks off, a hook costs one
module-global flag read.

Analyze traces with :mod:`repro.trace.reader` or the
``python -m repro.trace`` CLI.
"""

from __future__ import annotations

import os

from repro.trace.reader import (
    build_spans,
    diff_summaries,
    load_events,
    parse_remote_parent,
    pass_totals,
    resolve_parent,
    summarize,
    trace_forest,
)
from repro.trace.schema import TraceValidationError, validate_event, validate_trace
from repro.trace.tracer import (
    NULL_TRACER,
    TRACE_ENV_VAR,
    TRACE_HEADER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    capture_context,
    current_tracer,
    event,
    global_tracer,
    hooks_active,
    resume_context,
    scoped_tracer,
    span,
    start_tracing,
    stop_tracing,
    tracing_active,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TRACE_ENV_VAR",
    "TRACE_HEADER",
    "TraceContext",
    "TraceValidationError",
    "Tracer",
    "build_spans",
    "capture_context",
    "current_tracer",
    "diff_summaries",
    "event",
    "global_tracer",
    "hooks_active",
    "load_events",
    "parse_remote_parent",
    "pass_totals",
    "resolve_parent",
    "resume_context",
    "scoped_tracer",
    "span",
    "start_tracing",
    "stop_tracing",
    "summarize",
    "trace_forest",
    "tracing_active",
    "validate_event",
    "validate_trace",
]

# REPRO_TRACE in the environment turns tracing on for this process the
# moment the package is imported — the mechanism by which spawned/forked
# service workers and sharded server processes join the parent's trace.
if os.environ.get(TRACE_ENV_VAR):
    try:
        start_tracing()
    except OSError:  # unwritable path: tracing silently stays off
        pass
