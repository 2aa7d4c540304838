"""Where did the wall clock go: rollups, critical path, stragglers.

Works on a :class:`~repro.trace.merge.MergedTrace` and never re-reads
the host clock — everything here is arithmetic over already-recorded
timestamps, so the module stays out of the FLC001 wall-clock allowlist.

Three views:

* **Rollups** — per ``(cat, name)`` total time, *self* time (total minus
  time covered by child spans), and count.  Self time is what makes a
  phase table honest: a ``unit`` span that spends 95% of its life inside
  ``checkpoint.save`` children has almost no self time.
* **Critical path** — the last-finisher walk through the span DAG: from
  the latest-ending root, repeatedly descend into the child that ends
  last.  Across the fleet/gang DAG this surfaces the chain of spans that
  actually bounded the run's wall clock (the straggler shard's barrier
  epoch, the retry that pushed a unit past the others, ...).
* **Phase attribution** — buckets span time into the named phases the
  roadmap cares about (queueing / barrier-wait / checkpoint / salvage /
  ...), using each span's *self* time so a second is never attributed
  twice.  A span's ``phases`` event (its measured tick-phase laps, see
  :meth:`repro.trace.Tracer.phases`) is charged against that span's
  self time, and the remainder goes to the span's own phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .merge import MergedTrace, Span, TraceEventRecord

__all__ = [
    "PhaseRollup",
    "TraceAnalysis",
    "analyze",
    "attribute_phase",
    "critical_path",
    "self_times",
]

#: span cat -> report phase.  Tick phases (``queueing``, ``policy``, ...)
#: come from ``phases`` events instead, under their subsystem names.
_PHASE_BY_CAT: Dict[str, str] = {
    "barrier": "barrier-wait",
    "checkpoint": "checkpoint",
    "salvage": "salvage",
    "retry": "retry-wait",
    "queue": "queueing-delay",
}


def attribute_phase(span: Span) -> str:
    """The report phase a span's unmeasured self time is charged to."""
    if span.cat in _PHASE_BY_CAT:
        return _PHASE_BY_CAT[span.cat]
    if span.name.startswith("checkpoint"):
        return "checkpoint"
    if span.name.startswith("salvage"):
        return "salvage"
    if span.name.startswith("barrier"):
        return "barrier-wait"
    return span.cat


def _uncovered(
    span: Span, children: List[Span]
) -> List[Tuple[float, float]]:
    """The parts of ``span`` no child interval covers (children clipped
    to the span; overlapping children merged)."""
    pieces: List[Tuple[float, float]] = []
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(cursor, child.start)
        if lo > cursor:
            pieces.append((cursor, min(lo, span.end)))
        cursor = max(cursor, min(child.end, span.end))
        if cursor >= span.end:
            break
    if span.end > cursor:
        pieces.append((cursor, span.end))
    return [(lo, hi) for lo, hi in pieces if hi > lo]


def self_times(trace: MergedTrace) -> Dict[str, float]:
    """Per-span self time: the span's life not covered by its children,
    each second of a process lane charged once.

    Children may overlap each other (concurrent children, or a
    truncated child that overshoots), so the covered time is their
    merged interval union, clipped to the parent — never letting self
    time go negative.  Sibling spans of one process can be open at the
    same time too (the fleet supervisor's per-task spans while workers
    boot); an instant of a lane uncovered in several spans at once is
    split evenly between them, so a lane's self times sum to at most its
    wall extent.
    """
    children = trace.children()
    out: Dict[str, float] = {}
    edges_by_proc: Dict[str, List[Tuple[float, int, str]]] = {}
    for span in trace.spans:
        out[span.span_id] = 0.0
        edges = edges_by_proc.setdefault(span.proc, [])
        for lo, hi in _uncovered(span, children.get(span.span_id, [])):
            edges.append((lo, 1, span.span_id))
            edges.append((hi, -1, span.span_id))
    for edges in edges_by_proc.values():
        # ends sort before starts at one instant: touching pieces never
        # share the boundary
        edges.sort()
        active: List[str] = []
        prev = 0.0
        for ts, kind, span_id in edges:
            if active and ts > prev:
                share = (ts - prev) / len(active)
                for open_id in active:
                    out[open_id] += share
            prev = ts
            if kind > 0:
                active.append(span_id)
            else:
                active.remove(span_id)
    return out


@dataclass
class PhaseRollup:
    """Aggregate for one ``(cat, name)`` pair."""

    cat: str
    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0
    truncated: int = 0


@dataclass
class TraceAnalysis:
    """Everything ``repro trace report`` prints."""

    trace_id: str
    wall_seconds: float
    rollups: List[PhaseRollup] = field(default_factory=list)
    #: report phase -> attributed self seconds (sums to <= wall across procs)
    phases: Dict[str, float] = field(default_factory=dict)
    critical_path: List[Span] = field(default_factory=list)
    #: proc -> seconds that proc spent inside barrier.collect spans; the
    #: proc with the *least* wait is the likely straggler (everyone else
    #: was waiting for it).
    barrier_wait_by_proc: Dict[str, float] = field(default_factory=dict)
    straggler: Optional[str] = None
    torn_lines: int = 0
    truncated_spans: int = 0


def critical_path(trace: MergedTrace) -> List[Span]:
    """The last-finisher chain from the latest-ending root downwards."""
    if not trace.spans:
        return []
    children = trace.children()
    ids = {s.span_id for s in trace.spans}
    roots = [s for s in trace.spans if s.parent is None or s.parent not in ids]
    if not roots:
        return []
    path: List[Span] = []
    # deterministic tie-break mirrors the merge's canonical sort
    node = max(roots, key=lambda s: (s.end, s.proc, s.seq))
    while node is not None:
        path.append(node)
        kids = children.get(node.span_id, [])
        node = max(kids, key=lambda s: (s.end, s.proc, s.seq)) if kids else None
    return path


def _measured_phases(
    events: List[TraceEventRecord],
) -> Dict[Optional[str], Dict[str, float]]:
    """Span id -> tick-phase seconds from its ``phases`` events."""
    out: Dict[Optional[str], Dict[str, float]] = {}
    for event in events:
        if event.cat != "phase" or event.name != "phases":
            continue
        laps = out.setdefault(event.parent, {})
        for name, seconds in (event.args.get("seconds") or {}).items():
            laps[name] = laps.get(name, 0.0) + float(seconds)
    return out


def _charge_self_time(
    span: Span, self_seconds: float, laps: Dict[str, float]
) -> Dict[str, float]:
    """Split one span's self time into report phases.

    The measured ``laps`` are charged first — scaled down pro rata if
    clock granularity makes them exceed the self time — and whatever
    remains goes to :func:`attribute_phase` of the span itself.
    """
    measured = sum(laps.values())
    scale = min(1.0, self_seconds / measured) if measured > 0.0 else 0.0
    out = {name: seconds * scale for name, seconds in laps.items()}
    own = attribute_phase(span)
    out[own] = out.get(own, 0.0) + max(0.0, self_seconds - measured * scale)
    return out


def analyze(trace: MergedTrace) -> TraceAnalysis:
    """Run every analysis over a merged timeline."""
    selfs = self_times(trace)
    laps_by_span = _measured_phases(trace.events)
    rollups: Dict[Tuple[str, str], PhaseRollup] = {}
    phases: Dict[str, float] = {}
    barrier_wait: Dict[str, float] = {}
    for span in trace.spans:
        key = (span.cat, span.name)
        roll = rollups.get(key)
        if roll is None:
            roll = rollups[key] = PhaseRollup(cat=span.cat, name=span.name)
        roll.count += 1
        roll.total_seconds += span.duration
        roll.self_seconds += selfs[span.span_id]
        if span.truncated:
            roll.truncated += 1
        for phase, seconds in _charge_self_time(
            span, selfs[span.span_id], laps_by_span.get(span.span_id, {})
        ).items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        if span.cat == "barrier" and span.name == "barrier.collect":
            barrier_wait[span.proc] = barrier_wait.get(span.proc, 0.0) + span.duration
    straggler: Optional[str] = None
    if len(barrier_wait) >= 2:
        straggler = min(barrier_wait.items(), key=lambda kv: (kv[1], kv[0]))[0]
    return TraceAnalysis(
        trace_id=trace.trace_id,
        wall_seconds=trace.duration,
        rollups=sorted(
            rollups.values(),
            key=lambda r: (-r.total_seconds, r.cat, r.name),
        ),
        phases=phases,
        critical_path=critical_path(trace),
        barrier_wait_by_proc=barrier_wait,
        straggler=straggler,
        torn_lines=trace.torn_lines,
        truncated_spans=trace.truncated_spans,
    )
