"""Cross-process span tracing for the execution fabric.

Where :mod:`repro.telemetry` answers *what did the simulation decide*
(tick-keyed metrics and decision events, digest-safe by construction),
this package answers *where did the wall clock go*: spans covering the
supervisor, fleet pool workers, shard gangs (barrier publish / collect /
timeout epochs), SupervisedRunner phases (checkpoint save / load /
salvage, watchdog retries), chaos campaign jobs, and — measured by
the :class:`~repro.trace.profiler.TickProfiler` that :meth:`Tracer.phases`
installs for the span they ran in — the per-tick engine/fluid phases.

Layout::

    clock.py     the only wall-clock reads in the package (FLC001 exempt)
    profiler.py  TickProfiler: per-subsystem tick-phase laps
    spans.py     Tracer / NullTracer / SpanHandle / TraceContext,
                 per-process JSONL span sinks, current_tracer()/use_tracer()
    merge.py     deterministic canonical-order merge + torn-file salvage
    analysis.py  critical path, self/total rollups, phase attribution,
                 barrier-wait straggler report
    export.py    Chrome trace-event / Perfetto JSON + ASCII reports

The cardinal rule, enforced by flocheck (FLC001 scope + FLC012 span
hygiene): wall-clock data flows *one way*, out to JSONL span files —
never into run digests, checkpoint pickles, or simulated quantities.
Run digests are byte-identical with tracing on or off (regression-locked
in ``tests/trace``).
"""

from __future__ import annotations

from .analysis import TraceAnalysis, analyze, critical_path
from .export import ascii_timeline, chrome_trace, render_report, write_chrome_trace
from .merge import MergedTrace, Span, merge_trace
from .spans import (
    NULL_TRACER,
    NullTracer,
    SpanHandle,
    TraceContext,
    Tracer,
    current_tracer,
    use_tracer,
)
from .profiler import TickProfiler

__all__ = [
    "MergedTrace",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanHandle",
    "TickProfiler",
    "TraceAnalysis",
    "TraceContext",
    "Tracer",
    "analyze",
    "ascii_timeline",
    "chrome_trace",
    "critical_path",
    "current_tracer",
    "merge_trace",
    "render_report",
    "use_tracer",
    "write_chrome_trace",
]
