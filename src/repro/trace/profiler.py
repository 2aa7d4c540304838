"""Wall-time attribution per simulation subsystem, inside one trace span.

The tracer owns every profiler: :meth:`repro.trace.Tracer.phases`
installs a fresh :class:`TickProfiler` for one span's block, the tick
loops (``Engine._step``, ``FluidSimulator.step_run``) lap into
``current_tracer().profiler`` when one is installed, and on exit the
totals become that span's ``phases`` event.  All clock reads go through
:mod:`repro.trace.clock`.  Profiler output is *diagnostic only* — it
never feeds run digests, checkpoints, or any simulated quantity, and
:meth:`__getstate__` drops all timings so a pickled profiler can never
carry host speed into persisted state.

Usage inside a tick loop::

    t0 = profiler.start()
    ...arrivals phase...
    t0 = profiler.lap("arrivals", t0)
    ...policy phase...
    t0 = profiler.lap("policy", t0)
    profiler.tick_done()

Time spent in :meth:`exclude` blocks (the shard barrier, which has real
spans of its own) is kept out of the lap it falls in, so no second is
attributed twice.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from .clock import lap_now

__all__ = ["TickProfiler"]


class TickProfiler:
    """Accumulates wall seconds per named subsystem across ticks."""

    def __init__(self) -> None:
        self.totals_seconds: Dict[str, float] = {}
        self.ticks_profiled: int = 0
        self._excluded = 0.0

    def start(self) -> float:
        """Timestamp the start of a profiled region."""
        self._excluded = 0.0
        return lap_now()

    def lap(self, subsystem: str, since: float) -> float:
        """Charge the time since ``since`` to ``subsystem``; returns *now*.

        Returning the new timestamp lets call sites chain laps without a
        second clock read per boundary.
        """
        now = lap_now()
        self.totals_seconds[subsystem] = (
            self.totals_seconds.get(subsystem, 0.0)
            + (now - since - self._excluded)
        )
        self._excluded = 0.0
        return now

    @contextmanager
    def exclude(self) -> Iterator[None]:
        """Keep this block's wall time out of the lap it runs in."""
        began = lap_now()
        try:
            yield
        finally:
            self._excluded += lap_now() - began

    def tick_done(self) -> None:
        self.ticks_profiled += 1

    @property
    def total_seconds(self) -> float:
        return sum(self.totals_seconds.values())

    def breakdown(self) -> Dict[str, float]:
        """Fraction of profiled wall time per subsystem (sums to ~1)."""
        total = self.total_seconds
        if total <= 0.0:
            return {name: 0.0 for name in sorted(self.totals_seconds)}
        return {
            name: self.totals_seconds[name] / total
            for name in sorted(self.totals_seconds)
        }

    # Wall-clock data must never reach a checkpoint or digest: pickling a
    # profiler yields an empty one.
    def __getstate__(self) -> Tuple[()]:
        return ()

    def __setstate__(self, state: Tuple[()]) -> None:
        TickProfiler.__init__(self)
