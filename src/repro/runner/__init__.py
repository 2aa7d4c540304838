"""Crash-safe supervised experiment runner.

Layers (bottom-up):

* :mod:`~repro.runner.checkpoint` — atomic, manifest-verified pickle
  storage (:class:`CheckpointStore`).
* :mod:`~repro.runner.resumable` — tick-level resumable simulation runs
  (:class:`EngineRun`, :class:`FluidRun`, :func:`run_checkpointed`).
* :mod:`~repro.runner.supervisor` — watchdogs, retries, graceful
  shutdown and the per-unit loop (:class:`SupervisedRunner`).
* :mod:`~repro.runner.figures` — the registry decomposing every figure
  into supervised units (:func:`build_figure_job`).
"""

from .checkpoint import KINDS, CheckpointStore
from .figures import FigureJob, FigureOutput, build_figure_job
from .resumable import EngineRun, FluidRun, run_checkpointed
from .supervisor import (
    JOB_STATUSES,
    NON_RETRYABLE,
    GracefulShutdown,
    JobReport,
    RetryPolicy,
    SupervisedRunner,
    UnitContext,
    UnitOutcome,
    Watchdog,
    worst_status,
)

__all__ = [
    "KINDS",
    "CheckpointStore",
    "FigureJob",
    "FigureOutput",
    "build_figure_job",
    "EngineRun",
    "FluidRun",
    "run_checkpointed",
    "JOB_STATUSES",
    "NON_RETRYABLE",
    "GracefulShutdown",
    "JobReport",
    "RetryPolicy",
    "SupervisedRunner",
    "UnitContext",
    "UnitOutcome",
    "Watchdog",
    "worst_status",
]
