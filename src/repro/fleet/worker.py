"""The spawn-side of the fabric: one worker process, one task at a time.

Protocol (all messages are picklable tuples):

* supervisor -> worker, per-worker task queue:
  ``("task", seq, task, parent_span)`` or ``("stop",)`` —
  ``parent_span`` is the supervisor-side task span id (or ``None``), so
  the worker's spans join the cross-process trace DAG under it;
* worker -> supervisor, shared result queue:
  ``("done", worker_id, seq, name, result, telemetry, resumed)`` or
  ``("fail", worker_id, seq, name, error, retryable)``.

Crash-safety ordering: before reporting ``done`` the worker persists the
task's telemetry piece and then its result into the shared
:class:`~repro.runner.checkpoint.CheckpointStore` (telemetry first, so a
stored result implies a stored telemetry piece).  A worker SIGKILLed in
the send window therefore loses nothing — the supervisor salvages the
completed task straight from the store.  A worker killed mid-task left a
``state`` snapshot behind (tick-level checkpointing inside the task), so
the replacement worker resumes instead of restarting.

Each task runs under a **fresh** telemetry of the configured mode; the
piece ships back with the result and the supervisor folds the pieces in
canonical task order (:mod:`repro.fleet.merge`), which is what makes
``--workers N`` telemetry equal to serial regardless of scheduling.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Any, Optional

from ..runner.checkpoint import CheckpointStore
from ..runner.supervisor import NON_RETRYABLE, UnitContext
from ..telemetry import NullTelemetry, Telemetry, use
from ..trace import (
    NULL_TRACER,
    SpanHandle,
    TraceContext,
    Tracer,
    current_tracer,
    use_tracer,
)
from .faults import FaultInjector, ProcessFaultPlan
from .heartbeat import Heartbeat

__all__ = ["WorkerConfig", "worker_main", "telemetry_key"]


def telemetry_key(name: str) -> str:
    """Store key for one task's telemetry piece."""
    return f"task-{name}"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, shipped once at spawn."""

    fleet_dir: str
    store_root: str
    telemetry_mode: str = "off"  # "off" | "metrics" | "trace"
    sanitize: Optional[str] = None
    checkpoint_interval: int = 200
    heartbeat_interval_seconds: float = 0.1
    fault_plan: Optional[ProcessFaultPlan] = None
    #: run tracing context (trace id, span dir, epoch); None = no tracing
    trace: Optional[TraceContext] = None


class HeartbeatPulse:
    """Duck-typed stand-in for the cooperative ``Watchdog``.

    Installed as ``UnitContext.watchdog`` so resumable tick loops beat
    the heartbeat at every segment boundary — turning tick progress into
    liveness evidence.  Never raises: deadlines are the supervisor's
    job in the fleet.
    """

    def __init__(self, heartbeat: Heartbeat, job: str) -> None:
        self._heartbeat = heartbeat
        self._job = job

    def check(self) -> None:
        self._heartbeat.beat("run", job=self._job)


def _fresh_telemetry(mode: str) -> NullTelemetry:
    """One task's telemetry recorder (in-process: the whole run's, see
    :func:`repro.fleet.pool.run_tasks`)."""
    return NullTelemetry() if mode == "off" else Telemetry(mode=mode)


def _run_task(
    task: Any,
    store: CheckpointStore,
    config: WorkerConfig,
    heartbeat: Heartbeat,
    task_span: SpanHandle,
) -> tuple:
    """Execute (or salvage) one task; returns (result, telemetry, resumed)."""
    name = task.name
    store.refresh()
    if store.has("unit", name):
        # completed by a worker that died before reporting, or by an
        # earlier (serial or fleet) run sharing this store
        task_span.event("task.salvaged")
        result = store.load("unit", name)
        telemetry = (
            store.load("telemetry", telemetry_key(name))
            if store.has("telemetry", telemetry_key(name))
            else NullTelemetry()
        )
        return result, telemetry, True
    telemetry = _fresh_telemetry(config.telemetry_mode)
    ctx = UnitContext(
        name=name,
        store=store,
        shutdown=None,
        watchdog=HeartbeatPulse(heartbeat, name),  # type: ignore[arg-type]
        sanitize=config.sanitize,
        checkpoint_interval=config.checkpoint_interval,
        trace_parent=task_span.span_id,
    )
    with use(telemetry), current_tracer().phases(task_span):
        result = task.run(ctx)
    if telemetry.enabled:
        store.save("telemetry", telemetry_key(name), telemetry)
    store.save("unit", name, result)
    return result, telemetry, False


def worker_main(
    worker_id: int,
    config: WorkerConfig,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker process body: drain tasks until ``("stop",)``."""
    # Ctrl-C lands on the whole process group; the supervisor owns
    # worker lifecycle, so workers must not die to a stray SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    heartbeat = Heartbeat(
        os.path.join(config.fleet_dir, "hb"),
        worker_id,
        interval_seconds=config.heartbeat_interval_seconds,
    )
    heartbeat.start()
    injector = FaultInjector(
        config.fault_plan, os.path.join(config.fleet_dir, "faults")
    )
    store = CheckpointStore(config.store_root)
    tracer = (
        Tracer.from_context(config.trace, proc=f"w{worker_id}")
        if config.trace is not None
        else NULL_TRACER
    )
    with use_tracer(tracer):
        while True:
            message = task_queue.get()
            if message[0] == "stop":
                break
            _, seq, task, parent_span = message
            name = task.name
            heartbeat.beat("run", job=name)
            injector.apply(name, heartbeat)
            with tracer.span(
                f"task:{name}", cat="task",
                parent=parent_span, worker=worker_id,
            ) as span:
                try:
                    result, telemetry, resumed = _run_task(
                        task, store, config, heartbeat, span
                    )
                except Exception as exc:  # noqa: BLE001 - reported to supervisor
                    retryable = not isinstance(exc, NON_RETRYABLE)
                    span.end(status="fail", error=type(exc).__name__)
                    result_queue.put(
                        (
                            "fail",
                            worker_id,
                            seq,
                            name,
                            f"{type(exc).__name__}: {exc}",
                            retryable,
                        )
                    )
                else:
                    span.end(status="resumed" if resumed else "done")
                    result_queue.put(
                        (
                            "done",
                            worker_id, seq, name, result, telemetry, resumed,
                        )
                    )
            heartbeat.beat("idle")
    tracer.close()
    heartbeat.beat("stopped")
    heartbeat.stop()
