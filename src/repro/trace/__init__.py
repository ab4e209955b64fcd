"""Unified tracing/observability for the toolflow (``repro.trace``).

One :class:`Tracer` threads through the whole edit-compile-run loop —
build steps, cluster jobs, flow phases, worker processes, incremental
sessions, the NoC watchdog and card configuration — and exports the
result as Chrome trace-event JSON (``pld ... --trace FILE``, loadable
in ``chrome://tracing`` / Perfetto) or a compact text tree (``pld
trace FILE``).  See :mod:`repro.trace.tracer` for the span model and
:mod:`repro.trace.export` for the formats.
"""

from repro.trace.tracer import (
    MODELED,
    NULL_TRACER,
    TraceEvent,
    Tracer,
    WALL,
)
from repro.trace.export import (
    chrome_trace,
    format_trace_tree,
    load_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "MODELED",
    "NULL_TRACER",
    "TraceEvent",
    "Tracer",
    "WALL",
    "chrome_trace",
    "format_trace_tree",
    "load_chrome_trace",
    "write_chrome_trace",
]
