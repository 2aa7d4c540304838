"""Per-layer tracing for the benchmark's traced run.

:class:`LayerProbe` wraps the public calls into each layer of the
simulators -- from here, without editing the package -- and records, per
wrapped call site, the call count, busy (inclusive) time, self time
(busy time minus the wrapped calls it made) and, where the call returns
a verdict, how many calls succeeded.  The wrappers are installed on the
classes and modules for the traced run only and removed afterwards.

Layer names follow the package layout: ``net`` (engine and topology),
``core`` (FLoc admission), ``traffic`` (sources), ``sketch`` (bounded
router state) and ``inet`` (the fluid step).  ``shard`` and ``fleet``
numbers come from the spans the package's own ``repro.trace`` tooling
writes; see :func:`span_metrics`.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.sketch
import repro.sketch.bounded
import repro.sketch.cms
from repro.core.capability import CapabilityIssuer
from repro.core.mtd import FlowDropTracker
from repro.core.router import FLocPolicy
from repro.core.tokenbucket import PathTokenBucket
from repro.inet.shard import BarrierExchange
from repro.inet.simulator import FluidSimulator
from repro.net.engine import Engine
from repro.net.source import TrafficSource
from repro.net.topology import Topology
from repro.sketch import BoundedPathState
from repro.tcp.source import TcpSource
from repro.trace import MergedTrace, analyze
from repro.traffic import CbrSource, PathChurnFloodSource

from workloads import PacedShardTask

Verdict = Optional[Callable[[Any], bool]]


def _is_true(result: Any) -> bool:
    return result is True


def _is_found(result: Any) -> bool:
    return result is not None


#: (owner, attribute, probe name, verdict) for the packet workloads.
PACKET_TARGETS: List[Tuple[Any, str, str, Verdict]] = [
    (Engine, "run", "net.run", None),
    (Topology, "link", "net.link_lookup", None),
    (FLocPolicy, "admit", "core.admit", _is_true),
    (FLocPolicy, "on_tick", "core.on_tick", None),
    (FLocPolicy, "on_drop", "core.on_drop", None),
    (CapabilityIssuer, "issue", "core.cap_issue", None),
    (CapabilityIssuer, "verify", "core.cap_verify", None),
    (CapabilityIssuer, "fanout_bucket", "core.fanout", None),
    (FlowDropTracker, "drops_in_window", "core.mtd_window", None),
    (PathTokenBucket, "request", "core.bucket", _is_true),
    (BoundedPathState, "fold_path", "sketch.fold", None),
    (BoundedPathState, "fold_bucket", "sketch.fold", None),
    (BoundedPathState, "seed_path", "sketch.seed", _is_found),
    (BoundedPathState, "seed_bucket", "sketch.seed", _is_found),
    # every module that imported sketch_indices by name
    (repro.sketch, "sketch_indices", "sketch.index", None),
    (repro.sketch.cms, "sketch_indices", "sketch.index", None),
    (repro.sketch.bounded, "sketch_indices", "sketch.index", None),
] + [
    (cls, method, f"traffic.{method}", None)
    for cls in (TrafficSource, TcpSource, CbrSource, PathChurnFloodSource)
    for method in ("on_tick", "on_ack")
    if method in cls.__dict__
]

#: The pieces ``FluidSimulator.step_run`` calls, and step_run itself.
FLUID_TARGETS: List[Tuple[Any, str, str, Verdict]] = [
    (FluidSimulator, "step_run", "inet.step", None),
    (FluidSimulator, "_send_rates", "inet.sources", None),
    (FluidSimulator, "_loads_by_as", "inet.loads", None),
    (FluidSimulator, "_survival_from_loads", "inet.survival", None),
    (FluidSimulator, "_admit_floc", "inet.admit", None),
    (FluidSimulator, "_update_conformance", "inet.conformance", None),
    # shard mode: keeps barrier waits out of the pieces' self time
    (BarrierExchange, "allreduce", "shard.allreduce", None),
]


class LayerProbe:
    """Counts and times wrapped calls; use as a context manager."""

    def __init__(self, targets: List[Tuple[Any, str, str, Verdict]]) -> None:
        self.targets = targets
        self.calls: Counter = Counter()
        self.hits: Counter = Counter()
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        # one [child seconds] cell per wrapped call in progress
        self._stack: List[List[float]] = []
        # a probe name already on the stack (a subclass method calling
        # its wrapped parent) is timed once, at the outer call
        self._active: Counter = Counter()
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerProbe":
        for owner, attr, name, verdict in self.targets:
            original = (
                getattr(owner, attr)
                if isinstance(owner, ModuleType)
                else owner.__dict__[attr]
            )
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, verdict))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str, verdict: Verdict) -> Callable:
        stack, active = self._stack, self._active
        calls, hits, busy, self_s = self.calls, self.hits, self.busy, self.self_s
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if active[name]:
                return original(*args, **kwargs)
            active[name] += 1
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                self_s[name] += elapsed - cell[0]
            if verdict is not None and verdict(result):
                hits[name] += 1
            return result

        return wrapper

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def packet_metrics(probe: Dict[str, Dict[str, float]], outcome: Any) -> Dict[str, float]:
    """net / core / traffic / sketch numbers of one traced packet run."""
    calls, hits = probe["calls"], probe["hits"]
    busy, self_s = probe["busy"], probe["self_s"]
    ledger, policy = outcome.ledger, outcome.policy_counts
    out = {
        "net.ticks": outcome.result.ticks,
        "net.pkts_emitted": ledger["emitted"],
        "net.pkts_delivered": ledger["delivered"],
        "net.pkts_dropped": ledger["dropped"],
        "net.link_lookups": calls.get("net.link_lookup", 0),
        "net.link_lookup_s": busy.get("net.link_lookup", 0.0),
        "net.self_s": self_s.get("net.run", 0.0) + self_s.get("net.link_lookup", 0.0),
        "core.admit_calls": calls.get("core.admit", 0),
        "core.admit_s": busy.get("core.admit", 0.0),
        "core.admit_accept_ratio": _ratio(hits.get("core.admit", 0), calls.get("core.admit", 0)),
        "core.on_tick_s": busy.get("core.on_tick", 0.0),
        "core.on_drop_calls": calls.get("core.on_drop", 0),
        "core.on_drop_s": busy.get("core.on_drop", 0.0),
        "core.cap_issue_calls": calls.get("core.cap_issue", 0),
        "core.cap_verify_calls": calls.get("core.cap_verify", 0),
        "core.cap_verify_s": busy.get("core.cap_verify", 0.0),
        "core.fanout_hashes": calls.get("core.fanout", 0),
        "core.mtd_window_calls": calls.get("core.mtd_window", 0),
        "core.mtd_window_s": busy.get("core.mtd_window", 0.0),
        "core.bucket_requests": calls.get("core.bucket", 0),
        "core.bucket_grant_ratio": _ratio(hits.get("core.bucket", 0), calls.get("core.bucket", 0)),
        "core.paths_tracked_peak": policy["paths_tracked_peak"],
        "core.path_evictions": policy["path_evictions"],
        "traffic.on_tick_calls": calls.get("traffic.on_tick", 0),
        "traffic.on_tick_s": busy.get("traffic.on_tick", 0.0),
        "traffic.on_ack_calls": calls.get("traffic.on_ack", 0),
        "traffic.on_ack_s": busy.get("traffic.on_ack", 0.0),
        "sketch.fold_calls": calls.get("sketch.fold", 0),
        "sketch.fold_s": busy.get("sketch.fold", 0.0),
        "sketch.seed_calls": calls.get("sketch.seed", 0),
        "sketch.seed_s": busy.get("sketch.seed", 0.0),
        "sketch.seed_hit_ratio": _ratio(hits.get("sketch.seed", 0), calls.get("sketch.seed", 0)),
        "sketch.index_hashes": calls.get("sketch.index", 0),
        "sketch.index_s": busy.get("sketch.index", 0.0),
    }
    for cause, count in policy["drop_stats"].items():
        out[f"core.drops.{cause}"] = count
    return out


def fluid_metrics(probes: List[Dict[str, Dict[str, float]]]) -> Dict[str, float]:
    """inet numbers, summed over the processes that stepped the model."""
    def total(kind: str, name: str) -> float:
        return sum(p[kind].get(name, 0) for p in probes)

    # self times: a shard's barrier exchange is not the piece's work
    return {
        "inet.steps": total("calls", "inet.step"),
        "inet.sources_s": total("self_s", "inet.sources"),
        "inet.loads_s": total("self_s", "inet.loads"),
        "inet.survival_s": total("self_s", "inet.survival"),
        "inet.admit_s": total("self_s", "inet.admit"),
        "inet.conformance_s": total("self_s", "inet.conformance"),
        # what step_run does itself: the AIMD window update and glue
        "inet.aimd_s": total("self_s", "inet.step"),
    }


def span_metrics(trace: MergedTrace, n_shards: int, worker_deaths: int) -> Dict[str, float]:
    """shard / fleet numbers from a merged ``repro.trace`` timeline."""
    analysis = analyze(trace)
    rollup = {(r.cat, r.name): r for r in analysis.rollups}
    collect = rollup.get(("barrier", "barrier.collect"))
    publish = rollup.get(("barrier", "barrier.publish"))
    saves = rollup.get(("checkpoint", "checkpoint.save"))
    wait = sum(analysis.barrier_wait_by_proc.values())
    # worker-side task spans: the shards' whole time in the workers
    busy = sum(
        s.duration for s in trace.spans if s.cat == "task" and s.proc != "main"
    )
    # spawn: from the fleet span's start until the last worker's first span
    fleet_start = min(
        (s.start for s in trace.spans if s.name == "fleet" and s.proc == "main"),
        default=None,
    )
    first_by_proc: Dict[str, float] = {}
    for span in trace.spans:
        if span.proc != "main":
            first_by_proc[span.proc] = min(
                first_by_proc.get(span.proc, span.start), span.start
            )
    spawn = (
        max(first_by_proc.values()) - fleet_start
        if fleet_start is not None and first_by_proc
        else 0.0
    )
    return {
        "shard.rounds": collect.count / n_shards if collect else 0,
        "shard.barrier_wait_s": wait,
        "shard.publish_s": publish.total_seconds if publish else 0.0,
        "shard.wait_share": _ratio(wait, busy),
        "fleet.spawn_s": spawn,
        "fleet.checkpoint_saves": saves.count if saves else 0,
        "fleet.checkpoint_save_s": saves.total_seconds if saves else 0.0,
        "fleet.worker_deaths": worker_deaths,
    }


@dataclass(frozen=True)
class ProbedShardTask(PacedShardTask):
    """A :class:`~workloads.PacedShardTask` that runs under a fluid
    :class:`LayerProbe` in its worker and leaves the probe's numbers in
    ``probe_dir``."""

    probe_dir: str = ""

    def run(self, ctx: Any) -> Any:
        with LayerProbe(FLUID_TARGETS) as probe:
            result = super().run(ctx)
        path = os.path.join(self.probe_dir, f"shard{self.shard}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(probe.as_dict(), fh)
        return result


def load_shard_probes(probe_dir: str) -> List[Dict[str, Dict[str, float]]]:
    probes = []
    for name in sorted(os.listdir(probe_dir)):
        with open(os.path.join(probe_dir, name), encoding="utf-8") as fh:
            probes.append(json.load(fh))
    return probes
