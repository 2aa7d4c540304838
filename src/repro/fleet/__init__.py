"""One task list, two executors: in-process or a crash-isolated fleet.

``repro run`` and ``repro chaos`` each build one list of picklable tasks
(:mod:`repro.fleet.jobs`) — figure sweep cells, shard-gang members, or
chaos campaigns — and hand it to :func:`run_tasks`.  Without a worker
count it runs the list in-process under a
:class:`~repro.runner.supervisor.SupervisedRunner`; with one it runs the
same list on a spawn-based worker pool (:func:`run_fleet`) with real
fault tolerance:

* hung workers are convicted by a heartbeat liveness watchdog and
  SIGKILLed (:mod:`repro.fleet.heartbeat`);
* dead workers are replaced and their tasks salvaged from the shared
  :class:`~repro.runner.checkpoint.CheckpointStore` — finished results
  load instead of re-running, interrupted simulations resume tick-level
  on another worker (:mod:`repro.fleet.pool`);
* tasks that keep killing workers are quarantined with a reproducer
  artifact instead of retried forever;
* per-task telemetry merges deterministically in canonical task order
  (:mod:`repro.fleet.merge`), so ``--workers N`` output is byte-
  identical to serial for every N;
* the chaos fault space extends to the fabric itself — planned
  worker kills and stalls (:mod:`repro.fleet.faults`) make every
  ``repro chaos --process-faults`` sweep a supervision integration
  test.
"""

from .faults import (
    FAULT_KINDS,
    ProcessFault,
    ProcessFaultPlan,
    sample_process_faults,
)
from .heartbeat import Heartbeat, HeartbeatMonitor
from .jobs import (
    ChaosCampaignTask,
    FigureUnitTask,
    ShardUnitTask,
    chaos_tasks,
    figure_tasks,
    shard_figure_tasks,
)
from .merge import merge_registries, merge_telemetry
from .pool import FleetOptions, run_fleet, run_tasks
from .worker import WorkerConfig, worker_main

__all__ = [
    "FAULT_KINDS",
    "ChaosCampaignTask",
    "FigureUnitTask",
    "FleetOptions",
    "Heartbeat",
    "HeartbeatMonitor",
    "ProcessFault",
    "ProcessFaultPlan",
    "ShardUnitTask",
    "WorkerConfig",
    "chaos_tasks",
    "figure_tasks",
    "shard_figure_tasks",
    "merge_registries",
    "merge_telemetry",
    "run_fleet",
    "run_tasks",
    "sample_process_faults",
    "worker_main",
]
