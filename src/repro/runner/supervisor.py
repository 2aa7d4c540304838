"""Job supervision: watchdogs, retries, graceful shutdown, unit loop.

The :class:`SupervisedRunner` drives a list of named *units* (independent
callables, typically the cells of a figure sweep) under a shared
discipline:

* units whose results are already checkpointed are skipped on resume;
* each unit gets a bounded number of retries with seed-derived jittered
  backoff (deterministic errors — bad config, invariant violations — are
  never retried: re-running cannot fix them);
* a cooperative watchdog enforces a wall-clock deadline, checked between
  units and inside resumable tick loops, so cancellation is clean (no
  half-written checkpoints);
* SIGTERM/SIGINT request a graceful stop: the current unit checkpoints
  its mid-run state, completed results stay in the store, and the job
  reports ``interrupted`` so a later ``--resume`` continues bit-identically;
* whatever completed when a job dies is salvaged: the per-unit outcome
  table records exactly which results are trustworthy.
"""

from __future__ import annotations

import hashlib
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    ConfigError,
    DeadlineExceeded,
    Interrupted,
    InvariantViolation,
)
from ..telemetry import NullTelemetry, current
from ..trace import current_tracer
from .checkpoint import CheckpointStore

#: Errors retrying cannot fix: same inputs -> same failure.
NON_RETRYABLE = (ConfigError, InvariantViolation, DeadlineExceeded, Interrupted)

#: Job statuses, from best to worst; a multi-job run reports its worst.
#: ``quarantined`` (a poison task was isolated) only arises on the fleet.
JOB_STATUSES = (
    "ok", "partial", "failed", "quarantined", "deadline", "interrupted",
)


def worst_status(statuses) -> str:
    """The worst of ``statuses`` in :data:`JOB_STATUSES` order."""
    return max(statuses, key=JOB_STATUSES.index, default="ok")


def _null_log(message: str) -> None:
    """Default no-op log sink.

    Module-level (not a lambda) so a runner instance holding it stays
    picklable for checkpoint/salvage paths.
    """


class Watchdog:
    """Cooperative wall-clock deadline.

    ``check()`` raises :class:`~repro.errors.DeadlineExceeded` once
    ``deadline_seconds`` have elapsed since construction.  Cooperative by
    design: the supervised code polls at safe points (between units,
    between checkpoint segments), so cancellation never interrupts a
    checkpoint write halfway.
    """

    def __init__(
        self,
        deadline_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if deadline_seconds <= 0:
            raise ConfigError(
                f"deadline must be positive, got {deadline_seconds}"
            )
        self.deadline_seconds = deadline_seconds
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> float:
        return self.deadline_seconds - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self) -> None:
        if self.expired:
            raise DeadlineExceeded(
                f"job exceeded its {self.deadline_seconds:.1f}s deadline "
                f"(elapsed {self.elapsed():.1f}s)"
            )


class RetryPolicy:
    """Bounded retries with deterministic seed-derived jittered backoff.

    The backoff for (unit, attempt) is ``base * 2**attempt`` scaled by a
    jitter factor in [0.5, 1.5) derived from sha256(seed, unit, attempt) —
    reproducible across runs (no wall-clock randomness), yet decorrelated
    across units so a fleet of retrying jobs does not thundering-herd.
    """

    def __init__(
        self,
        max_retries: int = 2,
        base_delay: float = 0.5,
        max_delay: float = 30.0,
        seed: int = 0,
    ) -> None:
        if max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.max_retries = max_retries
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.seed = seed

    def retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, Exception) and not isinstance(
            exc, NON_RETRYABLE
        )

    def backoff(self, unit: str, attempt: int) -> float:
        """Delay in seconds before retry number ``attempt`` (1-based)."""
        digest = hashlib.sha256(
            f"{self.seed}:{unit}:{attempt}".encode()
        ).digest()
        jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
        return min(self.max_delay, self.base_delay * 2 ** (attempt - 1)) * jitter


class GracefulShutdown:
    """SIGTERM/SIGINT -> a cooperative stop flag.

    Used as a context manager around a supervised job.  The first signal
    sets :attr:`requested`; supervised loops poll it at checkpoint-safe
    points and raise :class:`~repro.errors.Interrupted` after saving
    state.  Previous handlers are restored on exit.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGTERM, signal.SIGINT)) -> None:
        self.signals = tuple(signals)
        self.requested = False
        self.signum: Optional[int] = None
        self._previous: Dict[int, Any] = {}

    def _handler(self, signum, frame) -> None:
        self.requested = True
        self.signum = signum

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handler)
            except ValueError:
                # not the main thread: fall back to never-signalled
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        self._previous.clear()

    def raise_if_requested(self, context: str = "") -> None:
        if self.requested:
            where = f" during {context}" if context else ""
            raise Interrupted(
                f"shutdown signal {self.signum} received{where}; progress "
                f"checkpointed"
            )


@dataclass
class UnitContext:
    """Everything a unit callable may use from its supervisor."""

    name: str
    store: Optional[CheckpointStore] = None
    shutdown: Optional[GracefulShutdown] = None
    watchdog: Optional[Watchdog] = None
    sanitize: Optional[str] = None
    checkpoint_interval: int = 200
    #: span id of the supervisor's unit/task span, so spans opened deeper
    #: in the stack (checkpoint save, salvage, barrier epochs) parent
    #: under it on the merged timeline
    trace_parent: Optional[str] = None

    def checkpointed(self, build, finalize):
        """Run a tick-level resumable simulation for this unit (see
        :func:`repro.runner.resumable.run_checkpointed`)."""
        from .resumable import run_checkpointed

        return run_checkpointed(
            self.store,
            self.name,
            build,
            finalize,
            checkpoint_interval=self.checkpoint_interval,
            shutdown=self.shutdown,
            watchdog=self.watchdog,
            trace_parent=self.trace_parent,
        )


@dataclass
class UnitOutcome:
    """What happened to one unit."""

    name: str
    status: str  # "done" | "resumed" | "failed" | "quarantined"
    attempts: int = 0
    error: Optional[str] = None
    seconds: float = 0.0
    #: distinct fleet workers that died holding this unit
    worker_deaths: int = 0


@dataclass
class JobReport:
    """Outcome of one job, run in-process or on the fleet."""

    status: str  # one of JOB_STATUSES
    outcomes: List[UnitOutcome] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    #: the job's telemetry, ready to export (disabled when it was off)
    telemetry: NullTelemetry = field(default_factory=NullTelemetry)
    workers_spawned: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def quarantined(self) -> List[str]:
        return [o.name for o in self.outcomes if o.status == "quarantined"]

    def completed(self) -> List[str]:
        return [o.name for o in self.outcomes if o.status in ("done", "resumed")]

    def failed(self) -> List[str]:
        return [
            o.name for o in self.outcomes
            if o.status in ("failed", "quarantined")
        ]

    def settle(self, override: Optional[str] = None) -> None:
        """Set the final status: ``override`` (a job-level stop such as
        ``deadline``) if given, else derived from the unit outcomes."""
        if override is not None:
            self.status = override
        elif self.quarantined:
            self.status = "quarantined"
        elif self.failed():
            self.status = "partial" if self.completed() else "failed"
        else:
            self.status = "ok"

    def summary_rows(self) -> List[Tuple[str, str, int, str]]:
        return [
            (o.name, o.status, o.attempts, o.error or "")
            for o in self.outcomes
        ]


class SupervisedRunner:
    """Runs named units under checkpointing, retry, deadline and signal
    supervision."""

    def __init__(
        self,
        store: Optional[CheckpointStore] = None,
        deadline_seconds: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        sanitize: Optional[str] = None,
        checkpoint_interval: int = 200,
        sleep: Callable[[float], None] = time.sleep,
        log: Optional[Callable[[str], None]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.store = store
        self.deadline_seconds = deadline_seconds
        self.retry = retry if retry is not None else RetryPolicy()
        self.sanitize = sanitize
        self.checkpoint_interval = checkpoint_interval
        self._sleep = sleep
        self._log = log if log is not None else _null_log
        self._clock = clock

    def run_units(
        self,
        units: Sequence[Tuple[str, Callable[[UnitContext], Any]]],
        job_fingerprint: Optional[Dict[str, Any]] = None,
    ) -> JobReport:
        """Run every unit; returns the :class:`JobReport`.

        Results of units already in the store are loaded, not re-run —
        that, plus per-unit determinism (fresh simulators seeded from the
        unit's settings), is what makes a killed job resumable with
        bit-identical output.
        """
        if self.store is not None and job_fingerprint is not None:
            self.store.check_job(job_fingerprint)
        # resume the telemetry stream: a killed job's registry (series,
        # counters) continues instead of restarting, so exported series
        # from a resumed job match an uninterrupted run
        telemetry = current()
        if (
            self.store is not None
            and telemetry.enabled
            and self.store.has("telemetry", "registry")
        ):
            telemetry.adopt_state(self.store.load("telemetry", "registry"))
        watchdog = (
            Watchdog(self.deadline_seconds, clock=self._clock)
            if self.deadline_seconds is not None
            else None
        )
        report = JobReport(status="ok")
        stopped: Optional[str] = None
        job_span = current_tracer().span("job", cat="job", units=len(units))
        try:
            with GracefulShutdown() as shutdown:
                try:
                    for name, fn in units:
                        if watchdog is not None:
                            watchdog.check()
                        shutdown.raise_if_requested(context=name)
                        self._run_one(
                            name, fn, report, shutdown, watchdog,
                            parent_span=job_span.span_id,
                        )
                except DeadlineExceeded as exc:
                    self._log(f"deadline: {exc}")
                    stopped = "deadline"
                except Interrupted as exc:
                    self._log(f"interrupted: {exc}")
                    stopped = "interrupted"
            report.settle(stopped)
            job_span.end(status=report.status)
        finally:
            job_span.end()
        return report

    # ------------------------------------------------------------------
    def _run_one(
        self,
        name: str,
        fn: Callable[[UnitContext], Any],
        report: JobReport,
        shutdown: GracefulShutdown,
        watchdog: Optional[Watchdog],
        parent_span: Optional[str] = None,
    ) -> None:
        tracer = current_tracer()
        if self.store is not None and self.store.has("unit", name):
            report.results[name] = self.store.load("unit", name)
            report.outcomes.append(UnitOutcome(name=name, status="resumed"))
            tracer.event("unit.resumed", cat="unit", parent=parent_span, unit=name)
            self._log(f"{name}: resumed from checkpoint")
            return
        span = tracer.span(f"unit:{name}", cat="unit", parent=parent_span)
        ctx = UnitContext(
            name=name,
            store=self.store,
            shutdown=shutdown,
            watchdog=watchdog,
            sanitize=self.sanitize,
            checkpoint_interval=self.checkpoint_interval,
            trace_parent=span.span_id,
        )
        attempts = 0
        started = self._clock()
        try:
            while True:
                attempts += 1
                try:
                    # the unit's own tick phases, timed under its span
                    with tracer.phases(span):
                        result = fn(ctx)
                except (DeadlineExceeded, Interrupted):
                    # job-level conditions: unwind to run_units, which stamps
                    # the report status (completed units stay salvageable)
                    raise
                except Exception as exc:
                    if (
                        self.retry.retryable(exc)
                        and attempts <= self.retry.max_retries
                        and not shutdown.requested
                    ):
                        delay = self.retry.backoff(name, attempts)
                        self._log(
                            f"{name}: attempt {attempts} failed ({exc}); "
                            f"retrying in {delay:.2f}s"
                        )
                        with tracer.span(
                            "retry.wait", cat="retry",
                            parent=span.span_id, attempt=attempts,
                        ):
                            self._sleep(delay)
                        continue
                    report.outcomes.append(
                        UnitOutcome(
                            name=name,
                            status="failed",
                            attempts=attempts,
                            error=f"{type(exc).__name__}: {exc}",
                            seconds=self._clock() - started,
                        )
                    )
                    self._log(
                        f"{name}: failed after {attempts} attempt(s): {exc}"
                    )
                    span.end(
                        status="failed", attempts=attempts,
                        error=type(exc).__name__,
                    )
                    return
                break
            if self.store is not None:
                self.store.save("unit", name, result)
                telemetry = current()
                if telemetry.enabled:
                    # snapshot after every completed unit: at most one unit's
                    # worth of telemetry is lost to a crash
                    self.store.save("telemetry", "registry", telemetry)
            report.results[name] = result
            report.outcomes.append(
                UnitOutcome(
                    name=name,
                    status="done",
                    attempts=attempts,
                    seconds=self._clock() - started,
                )
            )
            span.end(status="done", attempts=attempts)
            self._log(f"{name}: done ({attempts} attempt(s))")
        finally:
            span.end()
