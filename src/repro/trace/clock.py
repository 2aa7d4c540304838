"""The only wall clock in :mod:`repro.trace`.

Every timestamp the tracer emits and every tick-phase lap the
:class:`~repro.trace.profiler.TickProfiler` takes comes from this
module, and this module is the *only* place in the package allowed to
read the host clock — a
containment boundary enforced by flocheck (FLC001 allowlists exactly
``repro.trace.clock``; FLC012 flags wall-clock reads anywhere else under
``repro.trace``).  Keeping the reads in one ~40-line file makes the
observation-only invariant auditable: spans carry wall-clock data, so
nothing a span touches may ever flow into a run digest or a checkpoint,
and the easiest way to prove that is to make every clock read pass
through here on its way to a JSONL sink and nowhere else.

Span timestamps use ``time.time`` (not ``perf_counter``) on purpose:
span files from different *processes* must land on one shared timeline,
and ``perf_counter``'s epoch is per-process.  Sub-millisecond
monotonicity is not required there — merge order is canonicalized by
(start, proc, seq), not by trusting the clock.  Tick-phase laps are the
opposite case: microsecond intervals inside one process, so they read
the monotonic high-resolution :func:`lap_now`.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Current unix time in seconds (cross-process comparable)."""
    return time.time()


def since(epoch: float) -> float:
    """Seconds elapsed since ``epoch`` (a :func:`wall_now` reading).

    Clock steps can make this negative on NTP adjustment; clamp so span
    math downstream never sees time running backwards across processes.
    """
    return max(0.0, time.time() - epoch)


def lap_now() -> float:
    """Monotonic high-resolution seconds, for intervals inside one
    process (tick-phase laps); never comparable across processes."""
    return time.perf_counter()
