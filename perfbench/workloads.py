"""The benchmark's four workloads: scenario set-up, one run, result digest.

Each workload is a closed-loop batch run: :func:`run_packet`,
:func:`run_fluid` and :func:`run_sharded` build a fresh scenario from the
seed (timed as set-up), advance it tick by tick (each tick timed on its
own, with the reference kernel of ``pace.py`` timed every few ticks
outside the tick timers), and return an :class:`Outcome` carrying the
timings and their host-speed scales, the result digest, the conservation
ledger and the measured legitimate share.  Nothing here decides pass or
fail; ``run.py`` checks outcomes against the pinned digests in
``digests.json``.

* ``packet-cbr-flood`` -- the Section VI tree (degree 3, height 3) at
  scale 0.08 with 4 Mbps CBR bots and a default ``FLocPolicy`` on the
  target link: 4 s warm-up + 8 s measured = 1,200 ticks, 84 flows.
* ``packet-path-churn`` -- the same tree without CBR bots, plus 24
  ``PathChurnFloodSource`` bots at 2 Mbps rotating to a fresh path id
  every 5 ticks; FLoc with sketch state and a 64-path budget, 1,500 ticks.
* ``fluid-internet`` -- the paper-scale Section VII fluid scenario
  (f-root, localized, 2,000 ASes, 10k legitimate sources, 100k bots,
  16,000 pkts/tick target), FLoc with aggregation ``s_max=100``,
  400 ticks (200 warm-up), serial and in-process.
* ``fluid-sharded`` -- ``fluid-internet`` as a 2-shard ``ShardUnitTask``
  gang on 2 fleet workers with the CLI's default epoch and barrier
  timeout; the merged result must be byte-identical to the serial one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import signal
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.fleet import FleetOptions, ShardUnitTask, run_fleet
from repro.inet.scenarios import build_internet_scenario
from repro.inet.shard import merge_shard_results
from repro.inet.simulator import FluidResult, FluidSimulator
from repro.runner import CheckpointStore
from repro.traffic import PathChurnFloodSource
from repro.traffic.scenarios import TreeScenario, build_tree_scenario

from pace import Pacer

WORKLOADS = (
    "packet-cbr-flood",
    "packet-path-churn",
    "fluid-internet",
    "fluid-sharded",
)

# -- packet workloads ------------------------------------------------------
PACKET_SCALE = 0.08
WARMUP_SECONDS = 4.0
CBR_MEASURE_SECONDS = 8.0  # 1,200 ticks in all at 10 ms per tick
CBR_RATE_MBPS = 4.0  # fig07's strongest CBR rate
CHURN_TICKS = 1_500
CHURN_BOTS = 24
CHURN_RATE_MBPS = 2.0
CHURN_INTERVAL = 5
CHURN_PATH_BUDGET = 64

# -- fluid workloads -------------------------------------------------------
#: ``InternetRunSettings`` fields at the paper's full size (Section VII-A).
FLUID_SETTINGS: Dict[str, Any] = {
    "n_as": 2_000,
    "n_legit_sources": 10_000,
    "n_legit_ases": 200,
    "n_bots": 100_000,
    "target_capacity": 16_000.0,
    "ticks": 400,
    "warmup": 200,
}
FLUID_STRATEGY = "floc"
FLUID_S_MAX = 100
N_SHARDS = 2
#: ``repro run --shards`` defaults (``--epoch-ticks``, ``--barrier-timeout``).
EPOCH_TICKS = 50
BARRIER_TIMEOUT_SECONDS = 120.0
SHARD_UNIT = "fig13:f-root:A-100"

# -- pacing (pace.py): kernel samples cost ~3-7% of a run's host time -------
PACKET_PACE_TICKS = 20
FLUID_PACE_TICKS = 5
#: kernel samples just before and just after a set-up
SETUP_PACE_SAMPLES = 3


@dataclass
class Outcome:
    """What one closed-loop run produced."""

    kind: str  # "packet" or "fluid"
    #: host seconds; multiply by the matching ``*_scale`` for seconds at
    #: the nominal host speed (see pace.py)
    setup_s: float
    run_s: float
    tick_s: List[float]
    setup_scale: float
    run_scale: float
    digest: str
    legit_share: float
    #: packets simulated: emitted by the packet engine, or admitted at
    #: the fluid model's target link in the measured window
    pkts: float
    flow_ticks: int
    ledger: Dict[str, Any] = field(default_factory=dict)
    #: packet runs: the policy's counters as the measured span left them
    policy_counts: Dict[str, Any] = field(default_factory=dict)
    #: the PacketRun (packet) or FluidResult (fluid)
    result: Any = None
    worker_deaths: int = 0

    @property
    def ledger_ok(self) -> bool:
        if self.kind == "packet":
            return ledger_balances(self.ledger)
        return fluid_ledger_ok(self.ledger)


def _sha256_json(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# packet engine
# ---------------------------------------------------------------------------
@dataclass
class PacketRun:
    scenario: TreeScenario
    policy: FLocPolicy
    monitor: Any
    ticks: int


def build_cbr_flood(seed: int, measure_seconds: float = CBR_MEASURE_SECONDS) -> PacketRun:
    scenario = build_tree_scenario(
        scale_factor=PACKET_SCALE,
        attack_kind="cbr",
        attack_rate_mbps=CBR_RATE_MBPS,
        seed=seed,
        start_spread_seconds=1.0,
    )
    return _attach(scenario, FLocPolicy(), WARMUP_SECONDS + measure_seconds)


def build_path_churn(seed: int, ticks: int = CHURN_TICKS) -> PacketRun:
    scenario = build_tree_scenario(
        scale_factor=PACKET_SCALE,
        attack_kind="none",
        seed=seed,
        start_spread_seconds=1.0,
    )
    engine = scenario.engine
    rate = scenario.units.mbps_to_pkts_per_tick(CHURN_RATE_MBPS)
    # bots sit on the scenario's attack leaves (a path id starts at its leaf)
    leaf_of_as = {asn: leaf for leaf, asn in scenario.as_of_leaf.items()}
    homes = [(leaf_of_as[pid[0]], pid) for pid in scenario.attack_path_ids]
    rng = engine.spawn_rng("perfbench-churn")
    for b in range(CHURN_BOTS):
        leaf, pid = homes[b % len(homes)]
        host = f"churn_{b}"
        scenario.topology.add_duplex_link(host, leaf, capacity=None)
        flow = engine.open_flow(host, scenario.servers[0], pid, is_attack=True)
        source = PathChurnFloodSource(
            flow,
            rate=rate,
            churn_interval=CHURN_INTERVAL,
            start_tick=rng.randrange(100),
        )
        engine.add_source(source)
        scenario.attack_flows.append(flow)
        scenario.attack_sources.append(source)
    policy = FLocPolicy(
        FLocConfig(
            state_backend="sketch",
            max_tracked_paths=CHURN_PATH_BUDGET,
            sketch_hot_paths=CHURN_PATH_BUDGET,
        )
    )
    return _attach(scenario, policy, ticks * scenario.units.tick_seconds)


PACKET_BUILDS: Dict[str, Callable[[int], PacketRun]] = {
    "packet-cbr-flood": build_cbr_flood,
    "packet-path-churn": build_path_churn,
}


def timed_setup(build: Callable[[int], Any], seed: int) -> Tuple[Any, float, float]:
    """``build(seed)`` between kernel samples: (what it built, host
    seconds it took, their scale to the nominal speed)."""
    pacer = Pacer()
    pacer.sample(SETUP_PACE_SAMPLES)
    start = time.perf_counter()
    built = build(seed)
    setup_s = time.perf_counter() - start
    pacer.sample(SETUP_PACE_SAMPLES)
    return built, setup_s, pacer.factor()


def _attach(scenario: TreeScenario, policy: FLocPolicy, seconds: float) -> PacketRun:
    scenario.attach_policy(policy)
    monitor = scenario.add_target_monitor(start_seconds=WARMUP_SECONDS)
    ticks = scenario.units.seconds_to_ticks(seconds)
    # run(0) attaches the policies, the last step before the first tick
    scenario.engine.run(0)
    return PacketRun(scenario, policy, monitor, ticks)


def packet_digest(run: PacketRun) -> str:
    """sha256 of the target link's per-flow service and drop counts,
    the policy's drop causes, and packets emitted and delivered."""
    engine = run.scenario.engine
    return _sha256_json(
        {
            "service": sorted(run.monitor.service_counts.items()),
            "drops": sorted(run.monitor.drop_counts.items()),
            "drop_stats": run.policy.drop_stats,
            "emitted": engine.packets_emitted,
            "delivered": engine.packets_delivered,
        }
    )


def packet_ledger(run: PacketRun) -> Dict[str, int]:
    engine = run.scenario.engine
    return {
        "emitted": engine.packets_emitted,
        "delivered": engine.packets_delivered,
        "dropped": engine.total_link_drops(),
        "in_flight": engine.in_flight_count(),
    }


def ledger_balances(ledger: Dict[str, int]) -> bool:
    """``packets_emitted == delivered + link drops + in flight``."""
    return ledger["emitted"] == (
        ledger["delivered"] + ledger["dropped"] + ledger["in_flight"]
    )


def packet_legit_share(run: PacketRun) -> float:
    legit = {flow.flow_id for flow in run.scenario.legit_flows}
    counts = run.monitor.service_counts
    total = sum(counts.values())
    return sum(n for fid, n in counts.items() if fid in legit) / max(1, total)


def run_packet(
    build: Callable[[int], PacketRun],
    seed: int,
    per_tick: bool = True,
    probe: Optional[ContextManager] = None,
) -> Outcome:
    """Set up and run one packet scenario; ``probe`` (a context manager)
    is held over set-up and the measured ticks only."""
    clock = time.perf_counter
    tick_s: List[float] = []
    pacer = Pacer()
    with probe if probe is not None else nullcontext():
        run, setup_s, setup_scale = timed_setup(build, seed)
        engine = run.scenario.engine
        if per_tick:
            for tick in range(run.ticks):
                if tick % PACKET_PACE_TICKS == 0:
                    pacer.sample()
                t0 = clock()
                engine.run(1)
                tick_s.append(clock() - t0)
            run_s = sum(tick_s)
        else:
            pacer.sample()
            start = clock()
            engine.run(run.ticks)
            run_s = clock() - start
    digest = packet_digest(run)
    legit_share = packet_legit_share(run)
    pkts = float(engine.packets_emitted)
    policy = run.policy
    policy_counts = {
        "drop_stats": dict(policy.drop_stats),
        "paths_tracked_peak": policy.tracked_paths_peak,
        "path_evictions": policy.eviction_stats["memory-pressure"],
    }
    # Between ticks the engine still lists the packets it delivered during
    # the tick, so in_flight_count() counts them twice; the ledger holds at
    # the start of a tick, where repro.sanitize checks it.  One more tick,
    # after the digest, reaches that point.
    ledger: Dict[str, int] = {}
    engine.add_tick_hook(lambda eng, tick: ledger.update(packet_ledger(run)))
    engine.run(1)
    return Outcome(
        kind="packet",
        setup_s=setup_s,
        run_s=run_s,
        tick_s=tick_s,
        setup_scale=setup_scale,
        run_scale=pacer.factor(),
        digest=digest,
        legit_share=legit_share,
        pkts=pkts,
        flow_ticks=len(engine.flows) * run.ticks,
        ledger=ledger,
        policy_counts=policy_counts,
        result=run,
    )


# ---------------------------------------------------------------------------
# fluid model
# ---------------------------------------------------------------------------
def build_fluid(seed: int, settings: Dict[str, Any] = FLUID_SETTINGS) -> FluidSimulator:
    s = settings
    scenario = build_internet_scenario(
        variant="f-root",
        placement="localized",
        n_as=s["n_as"],
        n_legit_sources=s["n_legit_sources"],
        n_legit_ases=s["n_legit_ases"],
        n_bots=s["n_bots"],
        target_capacity=s["target_capacity"],
        seed=seed,
    )
    sim = FluidSimulator(scenario, strategy=FLUID_STRATEGY, s_max=FLUID_S_MAX, seed=seed)
    sim.begin_run(s["ticks"], s["warmup"])
    return sim


def fluid_digest(result: FluidResult) -> str:
    """sha256 of the whole ``FluidResult`` (floats by exact repr)."""
    return _sha256_json(asdict(result))


def fluid_ledger(result: FluidResult) -> Dict[str, Any]:
    """The fluid model's conservation: the categories' shares add up to
    the utilisation, which cannot exceed the target capacity."""
    total = sum(result.shares.values())
    return {"shares_total": total, "utilization": result.utilization}


def fluid_ledger_ok(ledger: Dict[str, Any]) -> bool:
    util = ledger["utilization"]
    return (
        bool(np.isfinite(util))
        and abs(ledger["shares_total"] - util) <= 1e-9 * max(1.0, util)
        and util <= 1.0 + 1e-9
    )


def fluid_legit_share(result: FluidResult) -> float:
    return result.legit_total / result.utilization if result.utilization else 0.0


def _fluid_outcome(
    result: FluidResult, settings: Dict[str, Any], setup_s: float,
    run_s: float, tick_s: List[float], setup_scale: float, pacer: Pacer,
) -> Outcome:
    ledger = fluid_ledger(result)
    n_flows = sum(result.n_flows.values())
    ticks = settings["ticks"]
    measured_ticks = max(1, ticks - settings["warmup"])
    return Outcome(
        kind="fluid",
        setup_s=setup_s,
        run_s=run_s,
        tick_s=tick_s,
        setup_scale=setup_scale,
        run_scale=pacer.factor(),
        digest=fluid_digest(result),
        legit_share=fluid_legit_share(result),
        pkts=result.utilization * settings["target_capacity"] * measured_ticks,
        flow_ticks=n_flows * ticks,
        ledger=ledger,
        result=result,
    )


def run_fluid(
    seed: int,
    per_tick: bool = True,
    settings: Dict[str, Any] = FLUID_SETTINGS,
    probe: Optional[ContextManager] = None,
) -> Outcome:
    """Set up and run the serial fluid scenario, like :func:`run_packet`."""
    clock = time.perf_counter
    tick_s: List[float] = []
    pacer = Pacer()
    with probe if probe is not None else nullcontext():
        sim, setup_s, setup_scale = timed_setup(
            lambda s: build_fluid(s, settings), seed
        )
        if per_tick:
            more = True
            while more:
                if len(tick_s) % FLUID_PACE_TICKS == 0:
                    pacer.sample()
                t0 = clock()
                more = sim.step_run()
                tick_s.append(clock() - t0)
            start = clock()
            result = sim.finish_run()
            run_s = sum(tick_s) + clock() - start
        else:
            pacer.sample()
            start = clock()
            while sim.step_run():
                pass
            result = sim.finish_run()
            run_s = clock() - start
    return _fluid_outcome(result, settings, setup_s, run_s, tick_s, setup_scale, pacer)


@dataclass(frozen=True)
class PacedShardTask(ShardUnitTask):
    """A ``ShardUnitTask`` that times its own ticks in the worker.

    Every ``step_run`` call -- one tick, barrier exchange included -- is
    timed, and the reference kernel is timed before every
    ``FLUID_PACE_TICKS``-th one, outside the tick.  Both lists of
    ``(start, end)`` pairs on ``time.perf_counter`` (``CLOCK_MONOTONIC``,
    shared by the processes of one host) go to
    ``<timing_dir>/shard<k>.json``.
    """

    timing_dir: str = ""

    def run(self, ctx: Any) -> Any:
        clock = time.perf_counter
        ticks: List[Any] = []
        paces: List[Any] = []
        pacer = Pacer()
        original = FluidSimulator.__dict__["step_run"]

        def step_run(*args: Any, **kwargs: Any) -> Any:
            if len(ticks) % FLUID_PACE_TICKS == 0:
                start = clock()
                pacer.sample()
                paces.append((start, clock()))
            start = clock()
            more = original(*args, **kwargs)
            ticks.append((start, clock()))
            return more

        FluidSimulator.step_run = step_run  # type: ignore[method-assign]
        try:
            result = super().run(ctx)
        finally:
            FluidSimulator.step_run = original  # type: ignore[method-assign]
        path = os.path.join(self.timing_dir, f"shard{self.shard}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ticks": ticks, "paces": paces}, fh)
        return result


def shard_tasks(
    seed: int,
    settings: Dict[str, Any] = FLUID_SETTINGS,
    task_type: type = PacedShardTask,
    **extra: Any,
) -> List[ShardUnitTask]:
    recipe = dict(settings, seed=seed)
    return [
        task_type(
            figure="fig13",
            unit=SHARD_UNIT,
            variant="f-root",
            placement="localized",
            label="A-100",
            strategy=FLUID_STRATEGY,
            s_max=FLUID_S_MAX,
            shard=shard,
            n_shards=N_SHARDS,
            epoch_ticks=EPOCH_TICKS,
            barrier_timeout_seconds=BARRIER_TIMEOUT_SECONDS,
            settings=recipe,
            **extra,
        )
        for shard in range(N_SHARDS)
    ]


def run_sharded(
    seed: int,
    work_dir: str,
    settings: Dict[str, Any] = FLUID_SETTINGS,
    task_type: type = PacedShardTask,
    **extra: Any,
) -> Outcome:
    """One 2-shard gang run on a fresh 2-worker fleet.

    Set-up runs from the fleet's start until both shards are ready to
    tick; the run from there until the merged result, less the kernel
    samples (the gang waits for the slower shard's).  The run's scale
    comes from the kernel samples of both workers, where its work is
    done.
    """
    ticks = settings["ticks"]
    store_dir = tempfile.mkdtemp(prefix="fleet-", dir=work_dir)
    timing_dir = os.path.join(store_dir, "timing")
    os.makedirs(timing_dir)
    tasks = shard_tasks(seed, settings, task_type, timing_dir=timing_dir, **extra)
    try:
        store = CheckpointStore(store_dir)
        setup_pacer = Pacer()
        setup_pacer.sample(SETUP_PACE_SAMPLES)
        start = time.perf_counter()
        report = run_fleet(tasks, store, FleetOptions(workers=N_SHARDS))
        if report.status == "interrupted":
            # the fleet turned a SIGTERM or SIGINT into a graceful stop;
            # pass it on now that the caller's handler is back
            signal.raise_signal(signal.SIGTERM)
        if report.status != "ok":
            raise RuntimeError(f"sharded run ended {report.status!r}: {report.summary_rows()}")
        result = merge_shard_results([report.results[t.name] for t in tasks])
        end = time.perf_counter()
        shards = []
        for task in tasks:
            with open(os.path.join(timing_dir, f"shard{task.shard}.json"), encoding="utf-8") as fh:
                shards.append(json.load(fh))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    for timing in shards:
        if len(timing["ticks"]) != ticks:
            raise RuntimeError(f"a shard timed {len(timing['ticks'])} of {ticks} ticks")
    # the shards sample the kernel side by side before the same ticks
    paces = [[b - a for a, b in at] for at in zip(*(t["paces"] for t in shards))]
    pace_s = sum(max(at) for at in paces)
    gang_start = max(timing["paces"][0][0] for timing in shards)
    # a tick runs from the later shard's start to the later shard's end,
    # so a shard's wait for the other's kernel sample or checkpoint
    # between ticks is not part of it
    tick_s = [
        max(b for _, b in at) - max(a for a, _ in at)
        for at in zip(*(t["ticks"] for t in shards))
    ]
    setup_pacer.samples.extend(
        timing["paces"][0][1] - timing["paces"][0][0] for timing in shards
    )
    run_pacer = Pacer()
    run_pacer.samples = [sum(at) / len(at) for at in paces]
    outcome = _fluid_outcome(
        result,
        settings,
        gang_start - start,
        end - gang_start - pace_s,
        tick_s,
        setup_pacer.factor(),
        run_pacer,
    )
    outcome.worker_deaths = sum(o.worker_deaths for o in report.outcomes)
    return outcome


def same_bytes(a: FluidResult, b: FluidResult) -> bool:
    """The shard merge's contract: pickled results are byte-identical."""
    return pickle.dumps(a) == pickle.dumps(b)
