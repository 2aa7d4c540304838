"""The fleet supervisor: spawn pool, liveness watchdog, salvage, merge.

The pool owns a set of spawn-started workers, each with a private task
queue, all reporting into one result queue.  The supervision loop:

1. drain worker reports (``done``/``fail``);
2. convict dead or hung workers — a worker is *dead* when its process
   has an exit code, *hung* when its heartbeat file has not changed for
   ``heartbeat_timeout_seconds`` or its task has overrun
   ``task_timeout_seconds`` (hung workers are SIGKILLed, which turns
   them into dead ones);
3. for each dead worker: salvage its task (if the shared store already
   holds the completed unit, the worker died in the report window — the
   result is loaded, nothing re-runs), otherwise count the death
   against the task and either re-enqueue it (a replacement worker
   resumes from the last tick-level checkpoint) or quarantine it once
   it has killed ``max_worker_deaths`` distinct workers;
4. replace dead workers with fresh processes (worker ids are never
   reused, so "distinct workers killed" is well-defined);
5. assign ready tasks — including ``RetryPolicy``-delayed retries of
   transient failures — to idle workers.  Tasks exposing a non-``None``
   ``gang`` attribute (e.g. shard tasks of one simulation unit) launch
   atomically: every unfinished member must be ready and seated at once,
   because gang members advance lock-step through a barrier exchange and
   a partial launch would deadlock.  After the initial launch, members
   re-enter the queue individually (a salvaged member rejoins its
   still-running peers), and the telemetry fold keeps one piece per gang
   — members record identical global telemetry by construction.

Determinism: results are keyed by task name and every task is a pure
function of its recipe, so scheduling cannot change them; telemetry
pieces are folded in canonical task order by :mod:`repro.fleet.merge`.
The fleet's report therefore matches the in-process run's byte for
byte, whatever the worker count, scheduling interleaving, or mid-run
worker deaths.  :func:`run_tasks` is the entry point that picks between
the two executors.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
import time
from queue import Empty
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigError
from ..runner.checkpoint import CheckpointStore
from ..runner.supervisor import (
    GracefulShutdown,
    JobReport,
    RetryPolicy,
    SupervisedRunner,
    UnitOutcome,
    Watchdog,
)
from ..telemetry import NullTelemetry, use
from ..trace import SpanHandle, current_tracer
from .faults import ProcessFaultPlan
from .heartbeat import HeartbeatMonitor
from .merge import merge_telemetry
from .worker import WorkerConfig, _fresh_telemetry, telemetry_key, worker_main

__all__ = ["FleetOptions", "run_fleet", "run_tasks"]


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _null_log(message: str) -> None:
    """Default no-op log sink (module-level for picklability parity)."""


@dataclass
class FleetOptions:
    """Supervision knobs for one :func:`run_tasks` call.  ``workers=None``
    runs the tasks in-process, where only the telemetry, sanitize,
    checkpoint, retry and deadline knobs apply."""

    workers: Optional[int] = 2
    telemetry_mode: str = "off"
    sanitize: Optional[str] = None
    checkpoint_interval: int = 200
    retry: Optional[RetryPolicy] = None
    deadline_seconds: Optional[float] = None
    heartbeat_interval_seconds: float = 0.1
    heartbeat_timeout_seconds: float = 30.0
    task_timeout_seconds: Optional[float] = None
    max_worker_deaths: int = 2
    poll_interval_seconds: float = 0.05
    fault_plan: Optional[ProcessFaultPlan] = None

    def validate(self) -> None:
        if self.workers is None or self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_worker_deaths < 1:
            raise ConfigError(
                f"max_worker_deaths must be >= 1, got {self.max_worker_deaths}"
            )
        if self.heartbeat_timeout_seconds <= self.heartbeat_interval_seconds:
            raise ConfigError(
                "heartbeat_timeout_seconds must exceed the beat interval"
            )


class _Worker:
    """Supervisor-side handle for one worker process."""

    def __init__(self, worker_id: int, process: Any, queue: Any) -> None:
        self.id = worker_id
        self.process = process
        self.queue = queue
        self.assigned: Optional[Tuple[int, Any, int, float]] = None
        # (seq, task, attempt, assigned_at)

    @property
    def idle(self) -> bool:
        return self.assigned is None


class _FleetRun:
    """One run's mutable supervision state (no module globals: spawn
    workers share nothing, and FLC007 enforces that stays true)."""

    def __init__(
        self,
        tasks: Sequence[Any],
        store: CheckpointStore,
        options: FleetOptions,
        log: Callable[[str], None],
    ) -> None:
        options.validate()
        self.tasks = list(tasks)
        self.order = {task.name: i for i, task in enumerate(self.tasks)}
        if len(self.order) != len(self.tasks):
            raise ConfigError("fleet task names must be unique")
        self.store = store
        self.options = options
        self.log = log
        self.retry = options.retry if options.retry is not None else RetryPolicy()
        self.fleet_dir = os.path.join(store.root, "fleet")
        os.makedirs(os.path.join(self.fleet_dir, "hb"), exist_ok=True)
        self.monitor = HeartbeatMonitor(
            os.path.join(self.fleet_dir, "hb"),
            timeout_seconds=options.heartbeat_timeout_seconds,
        )
        self.ctx = get_context("spawn")
        self.result_queue = self.ctx.Queue()
        self.workers: Dict[int, _Worker] = {}
        self.next_worker_id = 0
        self.next_seq = 0
        self.inflight: Dict[int, Tuple[Any, int]] = {}  # seq -> (task, attempt)
        self.ready: List[Tuple[float, int, Any, int]] = []  # heap
        self.outcomes: Dict[str, UnitOutcome] = {}
        self.results: Dict[str, Any] = {}
        self.pieces: Dict[str, NullTelemetry] = {}
        self.deaths: Dict[str, Set[int]] = {}
        self.started: Dict[str, float] = {}
        self.workers_spawned = 0
        # supervisor-side spans: one per task, opened at first assignment
        # and closed when the task reaches an outcome; stored here (not
        # in a `with` block) because open and close live in different
        # supervision sweeps
        self.tracer = current_tracer()
        self.fleet_span: Optional[SpanHandle] = None
        self.task_spans: Dict[str, SpanHandle] = {}
        self.gang_members: Dict[str, List[str]] = {}
        for task in self.tasks:
            gang = getattr(task, "gang", None)
            if gang is not None:
                self.gang_members.setdefault(gang, []).append(task.name)
        self.gangs_launched: Set[str] = set()
        for gang, members in self.gang_members.items():
            if len(members) > options.workers:
                raise ConfigError(
                    f"gang {gang!r} needs {len(members)} workers but the "
                    f"pool has {options.workers}; gangs launch atomically, "
                    "so workers must cover the largest gang"
                )

    # -- worker lifecycle ----------------------------------------------
    def _config(self) -> WorkerConfig:
        return WorkerConfig(
            fleet_dir=self.fleet_dir,
            store_root=self.store.root,
            telemetry_mode=self.options.telemetry_mode,
            sanitize=self.options.sanitize,
            checkpoint_interval=self.options.checkpoint_interval,
            heartbeat_interval_seconds=self.options.heartbeat_interval_seconds,
            fault_plan=self.options.fault_plan,
            trace=self.tracer.context() if self.tracer.enabled else None,
        )

    def _fleet_span_id(self) -> Optional[str]:
        return self.fleet_span.span_id if self.fleet_span is not None else None

    def spawn_worker(self) -> _Worker:
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        queue = self.ctx.Queue()
        process = self.ctx.Process(
            target=worker_main,
            args=(worker_id, self._config(), queue, self.result_queue),
            name=f"fleet-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        self.tracer.event(
            "spawn-worker", cat="fleet",
            parent=self._fleet_span_id(), worker=worker_id,
        )
        self.workers_spawned += 1
        worker = _Worker(worker_id, process, queue)
        self.workers[worker_id] = worker
        self.monitor.observe(worker_id)
        return worker

    def start_workers(self) -> None:
        for _ in range(min(self.options.workers, len(self.tasks)) or 1):
            self.spawn_worker()

    def stop_workers(self, force: bool = False) -> None:
        for worker in self.workers.values():
            if force:
                # mid-task workers won't drain their queue; SIGTERM them
                # (tick-level state snapshots make this resumable)
                worker.process.terminate()
            else:
                try:
                    worker.queue.put(("stop",))
                except (OSError, ValueError):
                    pass
        for worker in self.workers.values():
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            self.monitor.forget(worker.id)

    # -- task flow ------------------------------------------------------
    def enqueue(self, task: Any, attempt: int, at: float) -> None:
        self.next_seq += 1
        heapq.heappush(self.ready, (at, self.next_seq, task, attempt))

    def _assign(self, worker: _Worker, task: Any, attempt: int) -> None:
        now = time.monotonic()
        self.next_seq += 1
        seq = self.next_seq
        worker.assigned = (seq, task, attempt, now)
        self.inflight[seq] = (task, attempt)
        self.started.setdefault(task.name, now)
        span = self.task_spans.get(task.name)
        if span is None:
            # the task span survives worker deaths and reassignments: it
            # covers first assignment to final outcome, with the worker-
            # side execution spans parented under it
            span = self.tracer.span(
                f"task:{task.name}", cat="task", parent=self._fleet_span_id()
            )
            self.task_spans[task.name] = span
        span.event("assign", worker=worker.id, attempt=attempt)
        try:
            worker.queue.put(("task", seq, task, span.span_id))
        except (OSError, ValueError):
            # queue to a dying worker; liveness sweep will reassign
            pass

    def _end_task_span(self, name: str, status: str) -> None:
        span = self.task_spans.pop(name, None)
        if span is not None:
            span.end(status=status)

    def assign_ready(self) -> None:
        now = time.monotonic()
        idle = [w for w in self.workers.values() if w.idle]
        if not idle or not self.ready or self.ready[0][0] > now:
            return
        due: List[Tuple[float, int, Any, int]] = []
        while self.ready and self.ready[0][0] <= now:
            due.append(heapq.heappop(self.ready))
        due_by_name = {entry[2].name: entry for entry in due}
        taken: Set[str] = set()
        for entry in due:
            task, attempt = entry[2], entry[3]
            if task.name in taken:
                continue
            if not idle:
                break
            gang = getattr(task, "gang", None)
            if gang is None or gang in self.gangs_launched:
                # non-gang tasks, and gang members requeued after a
                # worker death, assign individually: the surviving
                # members are still parked in the barrier exchange
                self._assign(idle.pop(), task, attempt)
                taken.add(task.name)
                continue
            # initial gang launch is all-or-nothing: every member not
            # already finished must be due *and* seatable right now,
            # else a partial gang deadlocks at the first barrier
            pending = [
                member for member in self.gang_members[gang]
                if member not in self.outcomes
            ]
            if any(member not in due_by_name for member in pending):
                continue
            if len(pending) > len(idle):
                continue
            for member in pending:
                m_entry = due_by_name[member]
                self._assign(idle.pop(), m_entry[2], m_entry[3])
                taken.add(member)
            self.gangs_launched.add(gang)
        for entry in due:
            if entry[2].name not in taken:
                # push back under the original (at, seq) key so relative
                # order is stable across supervision sweeps
                heapq.heappush(self.ready, entry)

    def _finish(self, outcome: UnitOutcome) -> None:
        outcome.worker_deaths = len(self.deaths.get(outcome.name, ()))
        started = self.started.get(outcome.name)
        if started is not None and outcome.seconds <= 0.0:
            outcome.seconds = time.monotonic() - started
        self.outcomes[outcome.name] = outcome

    def record_done(
        self, name: str, result: Any, telemetry: NullTelemetry,
        resumed: bool, attempts: int,
    ) -> None:
        if name in self.outcomes:
            return  # duplicate report (salvaged before the message landed)
        self.results[name] = result
        self.pieces[name] = telemetry
        self._finish(
            UnitOutcome(
                name=name,
                status="resumed" if resumed else "done",
                attempts=attempts,
            )
        )
        self._end_task_span(name, "resumed" if resumed else "done")
        self.log(f"{name}: {'resumed' if resumed else 'done'}")

    def record_failed(self, name: str, attempts: int, error: str) -> None:
        if name in self.outcomes:
            return
        self._finish(
            UnitOutcome(
                name=name, status="failed", attempts=attempts, error=error
            )
        )
        self._end_task_span(name, "failed")
        self.log(f"{name}: failed after {attempts} attempt(s): {error}")

    def quarantine(self, task: Any, attempts: int) -> None:
        name = task.name
        if name in self.outcomes:
            return
        directory = os.path.join(self.fleet_dir, "quarantine")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"quarantine-{_slug(name)}.json")
        payload: Dict[str, Any] = {
            "task": name,
            "type": type(task).__name__,
            "attempts": attempts,
            "worker_deaths": sorted(self.deaths.get(name, ())),
            "recipe": _recipe_of(task),
        }
        # reproducers are read by humans and re-run tooling while the
        # supervisor may still be crashing; never expose a torn file
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, path)
        self._finish(
            UnitOutcome(
                name=name,
                status="quarantined",
                attempts=attempts,
                error=(
                    f"poison job: killed {len(self.deaths.get(name, ()))} "
                    f"workers; reproducer at {path}"
                ),
            )
        )
        self._end_task_span(name, "quarantined")
        self.log(f"{name}: quarantined (reproducer: {path})")

    def salvage_or_requeue(self, worker: _Worker) -> None:
        """A worker died holding a task: salvage, requeue, or quarantine."""
        assert worker.assigned is not None
        seq, task, attempt, _ = worker.assigned
        self.inflight.pop(seq, None)
        name = task.name
        self.store.refresh()
        if self.store.has("unit", name):
            # died after persisting the result but before reporting it
            telemetry: NullTelemetry = NullTelemetry()
            if self.store.has("telemetry", telemetry_key(name)):
                telemetry = self.store.load("telemetry", telemetry_key(name))
            self.record_done(
                name, self.store.load("unit", name), telemetry,
                resumed=False, attempts=attempt,
            )
            return
        dead = self.deaths.setdefault(name, set())
        dead.add(worker.id)
        span = self.task_spans.get(name)
        if span is not None:
            span.event("worker-died", worker=worker.id, deaths=len(dead))
        if len(dead) >= self.options.max_worker_deaths:
            self.quarantine(task, attempts=attempt)
            return
        self.log(
            f"{name}: worker {worker.id} died mid-task; requeueing "
            f"(death {len(dead)}/{self.options.max_worker_deaths})"
        )
        self.enqueue(task, attempt, at=time.monotonic())

    # -- supervision sweeps --------------------------------------------
    def drain_results(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                if remaining > 0:
                    message = self.result_queue.get(timeout=remaining)
                else:
                    message = self.result_queue.get_nowait()
            except (Empty, OSError, ValueError):
                return
            kind = message[0]
            if kind == "done":
                _, worker_id, seq, name, result, telemetry, resumed = message
                self._release(worker_id, seq)
                task_attempt = self.inflight.pop(seq, None)
                attempts = task_attempt[1] if task_attempt else 1
                self.record_done(name, result, telemetry, resumed, attempts)
            elif kind == "fail":
                _, worker_id, seq, name, error, retryable = message
                self._release(worker_id, seq)
                task_attempt = self.inflight.pop(seq, None)
                if task_attempt is None:
                    continue
                task, attempt = task_attempt
                if retryable and attempt <= self.retry.max_retries:
                    delay = self.retry.backoff(name, attempt)
                    self.log(
                        f"{name}: attempt {attempt} failed ({error}); "
                        f"retrying in {delay:.2f}s"
                    )
                    self.enqueue(task, attempt + 1, time.monotonic() + delay)
                else:
                    self.record_failed(name, attempt, error)
            if remaining <= 0:
                return

    def _release(self, worker_id: int, seq: int) -> None:
        worker = self.workers.get(worker_id)
        if worker is not None and worker.assigned is not None:
            if worker.assigned[0] == seq:
                worker.assigned = None

    def sweep_liveness(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers.values()):
            hung = False
            if worker.process.exitcode is None:
                stale = self.monitor.stale(worker.id)
                overrun = (
                    self.options.task_timeout_seconds is not None
                    and worker.assigned is not None
                    and now - worker.assigned[3]
                    > self.options.task_timeout_seconds
                )
                if not stale and not overrun:
                    continue
                hung = True
                why = "heartbeat stale" if stale else "task timeout"
                self.log(
                    f"worker {worker.id}: {why}; sending SIGKILL"
                )
                worker.process.kill()
                worker.process.join(timeout=5.0)
            # dead (either found dead, or just killed for hanging)
            exitcode = worker.process.exitcode
            self.log(
                f"worker {worker.id}: dead (exitcode {exitcode}"
                + (", hung" if hung else "")
                + ")"
            )
            if worker.assigned is not None:
                self.salvage_or_requeue(worker)
            del self.workers[worker.id]
            self.monitor.forget(worker.id)
            if self.unfinished():
                self.spawn_worker()

    def unfinished(self) -> bool:
        return len(self.outcomes) < len(self.tasks)

    # -- final assembly -------------------------------------------------
    def report(self, status_override: Optional[str]) -> JobReport:
        report = JobReport(
            status="ok",
            outcomes=[
                self.outcomes[task.name]
                for task in self.tasks
                if task.name in self.outcomes
            ],
            results=dict(self.results),
            workers_spawned=self.workers_spawned,
        )
        report.settle(status_override)
        # tasks the run abandoned (deadline/interrupt) still hold open
        # supervisor-side spans; close them so the merged timeline is
        # truncation-free even on unclean exits
        for name in sorted(self.task_spans):
            self._end_task_span(name, status_override or "abandoned")
        # one telemetry piece per gang: every member of a gang records
        # the same global stream (shard sims replicate global reductions),
        # so folding all of them would multiply every counter by the
        # gang size; the first present member in task order contributes
        fold: List[NullTelemetry] = []
        seen_gangs: Set[str] = set()
        for task in self.tasks:
            if task.name not in self.pieces:
                continue
            gang = getattr(task, "gang", None)
            if gang is not None:
                if gang in seen_gangs:
                    continue
                seen_gangs.add(gang)
            fold.append(self.pieces[task.name])
        with self.tracer.span(
            "merge.telemetry", cat="run", parent=self._fleet_span_id(),
            pieces=len(fold),
        ):
            report.telemetry = merge_telemetry(fold)
        if self.fleet_span is not None:
            self.fleet_span.end(
                status=report.status, workers=self.workers_spawned
            )
        return report


def _recipe_of(task: Any) -> Dict[str, Any]:
    import dataclasses

    if dataclasses.is_dataclass(task):
        return dataclasses.asdict(task)
    return {"repr": repr(task)}


def run_fleet(
    tasks: Sequence[Any],
    store: CheckpointStore,
    options: Optional[FleetOptions] = None,
    log: Optional[Callable[[str], None]] = None,
) -> JobReport:
    """Run ``tasks`` on a supervised spawn pool; returns a
    :class:`~repro.runner.supervisor.JobReport` equal to the in-process
    run's, whatever happens to the workers along the way."""
    options = options if options is not None else FleetOptions()
    run = _FleetRun(tasks, store, options, log if log is not None else _null_log)
    run.fleet_span = run.tracer.span(
        "fleet", cat="job", workers=options.workers, tasks=len(run.tasks)
    )
    watchdog = (
        Watchdog(options.deadline_seconds)
        if options.deadline_seconds is not None
        else None
    )
    started = time.monotonic()
    status_override: Optional[str] = None
    try:
        # pre-salvage: anything this store already completed never hits a
        # queue
        run.store.refresh()
        for task in run.tasks:
            if run.store.has("unit", task.name):
                telemetry: NullTelemetry = NullTelemetry()
                if run.store.has("telemetry", telemetry_key(task.name)):
                    telemetry = run.store.load(
                        "telemetry", telemetry_key(task.name)
                    )
                run.record_done(
                    task.name, run.store.load("unit", task.name), telemetry,
                    resumed=True, attempts=0,
                )
            else:
                run.enqueue(task, attempt=1, at=started)
        with GracefulShutdown() as shutdown:
            force = False
            try:
                if run.unfinished():
                    run.start_workers()
                while run.unfinished():
                    if shutdown.requested:
                        status_override = "interrupted"
                        run.log("shutdown requested; stopping fleet")
                        break
                    if watchdog is not None and watchdog.expired:
                        status_override = "deadline"
                        run.log("fleet deadline exceeded; stopping")
                        break
                    run.assign_ready()
                    run.drain_results(options.poll_interval_seconds)
                    run.sweep_liveness()
                if status_override is not None:
                    force = True
            finally:
                run.stop_workers(force=force)
        return run.report(status_override)
    finally:
        run.fleet_span.end()


def run_tasks(
    tasks: Sequence[Any],
    store: Optional[CheckpointStore] = None,
    options: Optional[FleetOptions] = None,
    log: Optional[Callable[[str], None]] = None,
) -> JobReport:
    """Run a task list in-process (``options.workers is None``, also the
    default) or on the fleet; one report type either way.

    In-process, a :class:`~repro.runner.supervisor.SupervisedRunner`
    runs ``(task.name, task.run)`` under one session telemetry, exported
    as recorded (never re-associated by :mod:`repro.fleet.merge`).  The
    fleet gets a scratch store when ``store`` is None: it shares results
    and mid-task salvage through one.  Either way ``deadline_seconds``
    bounds the whole task list.
    """
    options = options if options is not None else FleetOptions(workers=None)
    if options.workers is not None:
        if store is None:
            store = CheckpointStore(tempfile.mkdtemp(prefix="repro-fleet-"))
        return run_fleet(tasks, store, options, log)
    session = _fresh_telemetry(options.telemetry_mode)
    runner = SupervisedRunner(
        store=store,
        deadline_seconds=options.deadline_seconds,
        retry=options.retry,
        sanitize=options.sanitize,
        checkpoint_interval=options.checkpoint_interval,
        log=log,
    )
    with use(session):
        report = runner.run_units([(task.name, task.run) for task in tasks])
    if session.enabled:
        report.telemetry = session
    return report
