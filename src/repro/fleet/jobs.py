"""Picklable task descriptors: the one task list both executors run.

``repro run`` and ``repro chaos`` each build one list of these tasks and
hand it to :func:`repro.fleet.run_tasks`, which runs it in-process or
on the fleet.  A spawn-started worker shares nothing with the
supervisor, so tasks must pickle — but the unit callables in
:mod:`repro.runner.figures` are closures over settings and sweep cells,
which do not.  The fix is to ship the *recipe* instead of the closure: a
frozen dataclass carrying only primitives (figure name, unit name,
settings fields, campaign spec dict).  ``task.run`` rebuilds the closure
table from the recipe — unit construction is cheap; the expensive part
is running the simulation — and selects its unit by name, in a worker
or in-process alike.

Task ``name``s double as checkpoint keys in the shared
:class:`~repro.runner.checkpoint.CheckpointStore`, so the in-process and
fleet executors resume each other's progress.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..chaos.engine import ChaosOptions, run_sweep_campaign
from ..chaos.spec import CampaignSpec, exhaustion_campaign, sample_campaign
from ..errors import ConfigError
from ..experiments.common import FunctionalSettings
from ..runner.figures import build_figure_job
from ..runner.supervisor import UnitContext

__all__ = [
    "ChaosCampaignTask",
    "FigureUnitTask",
    "FleetTask",
    "ShardUnitTask",
    "chaos_tasks",
    "figure_tasks",
    "shard_figure_tasks",
]

#: figure -> bot placement for the internet-scale figures (the only
#: figures the fluid simulator — and therefore sharding — applies to)
INTERNET_PLACEMENTS = {
    "fig13": "localized",
    "fig14": "dispersed",
    "fig15": "separated",
}


@dataclass(frozen=True)
class FigureUnitTask:
    """One cell of a figure sweep, by recipe."""

    figure: str
    unit: str
    settings: Dict[str, Any]
    variants: Tuple[str, ...] = ("f-root",)

    @property
    def name(self) -> str:
        return self.unit

    def run(self, ctx: UnitContext) -> Any:
        job = build_figure_job(
            self.figure,
            FunctionalSettings(**self.settings),
            variants=self.variants,
        )
        for name, fn in job.units:
            if name == self.unit:
                return fn(ctx)
        raise ConfigError(
            f"figure {self.figure!r} has no unit {self.unit!r}"
        )


@dataclass(frozen=True)
class ChaosCampaignTask:
    """One chaos campaign, by spec dict."""

    campaign: str
    spec: Dict[str, Any]
    shrink: bool = True
    max_shrink_trials: int = 64
    artifact_dir: Optional[str] = None

    @property
    def name(self) -> str:
        return self.campaign

    def run(self, ctx: UnitContext) -> Any:
        return run_sweep_campaign(
            CampaignSpec.from_dict(self.spec),
            ctx,
            shrink=self.shrink,
            max_shrink_trials=self.max_shrink_trials,
            artifact_dir=self.artifact_dir,
        )


@dataclass(frozen=True)
class ShardUnitTask:
    """One shard of one internet-figure unit, by recipe.

    All shards of a unit form a *gang* (``gang`` = the unit name): the
    pool launches them together — they advance lock-step through the
    barrier exchange and none can finish without the others — and the
    unit's merged result is assembled by the caller from the per-shard
    pieces via :func:`repro.inet.shard.merge_shard_results`.
    """

    figure: str
    unit: str  # e.g. "fig13:f-root:ND" — matches the serial unit name
    variant: str
    placement: str
    label: str
    strategy: str
    s_max: Optional[int]
    shard: int
    n_shards: int
    epoch_ticks: int
    barrier_timeout_seconds: float
    settings: Dict[str, Any]  # InternetRunSettings scalar fields

    @property
    def name(self) -> str:
        return f"{self.unit}#s{self.shard}of{self.n_shards}"

    @property
    def gang(self) -> Optional[str]:
        return self.unit if self.n_shards > 1 else None

    def run(self, ctx: UnitContext) -> Any:
        from ..inet.shard import BarrierExchange, ShardSpec, partition_scenario
        from ..runner.resumable import FluidRun, run_checkpointed

        task = self

        def build() -> FluidRun:
            from ..inet.simulator import FluidSimulator
            from ..sanitize import install_sanitizer

            scenario = _build_internet_scenario_for(task)
            spec = ShardSpec(
                shard=task.shard,
                n_shards=task.n_shards,
                shard_of_as=partition_scenario(
                    scenario, task.n_shards, int(task.settings["seed"])
                ),
            )
            sim = FluidSimulator(
                scenario,
                strategy=task.strategy,
                s_max=task.s_max,
                seed=int(task.settings["seed"]),
                shard=spec,
            )
            install_sanitizer(sim, ctx.sanitize)
            return FluidRun(
                sim,
                ticks=int(task.settings["ticks"]),
                warmup=int(task.settings["warmup"]),
                payload=task.unit,
            )

        def prepare(run: FluidRun) -> None:
            # fresh exchange on every (re)start: checkpoints deliberately
            # drop it, and the poll hook (heartbeat pulse) is live state
            exchange = BarrierExchange(
                ctx.store.exchange_dir(task.unit),
                run.sim._shard,
                epoch_ticks=task.epoch_ticks,
                timeout_seconds=task.barrier_timeout_seconds,
            )
            if ctx.watchdog is not None:
                exchange.poll_hook = ctx.watchdog.check
            run.sim.attach_exchange(exchange)

        if ctx.store is None:
            raise ConfigError(
                f"shard task {self.name} needs a checkpoint store: the "
                "barrier exchange and salvage protocol live in it"
            )
        # checkpoint every barrier epoch (not ctx.checkpoint_interval):
        # the salvage guarantee is "a dead shard resumes from the last
        # barrier", so snapshot cadence and epoch cadence must agree
        return run_checkpointed(
            ctx.store,
            self.name,
            build,
            _finish_shard_run,
            checkpoint_interval=self.epoch_ticks,
            shutdown=ctx.shutdown,
            watchdog=ctx.watchdog,
            prepare=prepare,
            trace_parent=ctx.trace_parent,
        )


def _build_internet_scenario_for(task: ShardUnitTask) -> Any:
    from ..inet.scenarios import build_internet_scenario

    s = task.settings
    return build_internet_scenario(
        variant=task.variant,
        placement=task.placement,
        n_as=int(s["n_as"]),
        n_legit_sources=int(s["n_legit_sources"]),
        n_legit_ases=int(s["n_legit_ases"]),
        n_bots=int(s["n_bots"]),
        target_capacity=float(s["target_capacity"]),
        seed=int(s["seed"]),
        # the fluid simulator never reads per-flow link chains; 10^6-flow
        # benches skip building them (see build_internet_scenario)
        build_flow_links=bool(s.get("build_flow_links", True)),
    )


def _finish_shard_run(run: Any) -> Any:
    from ..inet.shard import shard_result

    return shard_result(run.sim, run.payload)


# Any task descriptor; all expose `.name` and `.run(ctx)`.
FleetTask = Any


def figure_tasks(
    figure: str,
    settings: FunctionalSettings,
    variants: Tuple[str, ...] = ("f-root",),
) -> List[FigureUnitTask]:
    """Tasks for one figure, in the serial runner's canonical order."""
    job = build_figure_job(figure, settings, variants=variants)
    recipe = asdict(settings)
    return [
        FigureUnitTask(
            figure=figure,
            unit=name,
            settings=recipe,
            variants=tuple(variants),
        )
        for name, _ in job.units
    ]


def shard_figure_tasks(
    figure: str,
    n_shards: int,
    variants: Tuple[str, ...] = ("f-root",),
    epoch_ticks: int = 50,
    barrier_timeout_seconds: float = 120.0,
) -> List[ShardUnitTask]:
    """Shard tasks for one internet figure, unit-major in the serial
    runner's canonical order (all shards of a unit adjacent)."""
    if figure not in INTERNET_PLACEMENTS:
        raise ConfigError(
            f"--shards applies only to the internet-scale figures "
            f"{tuple(sorted(INTERNET_PLACEMENTS))}, not {figure!r}"
        )
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    from ..experiments.fig13 import InternetRunSettings

    iset = InternetRunSettings()
    settings = {
        "n_as": iset.n_as,
        "n_legit_sources": iset.n_legit_sources,
        "n_legit_ases": iset.n_legit_ases,
        "n_bots": iset.n_bots,
        "target_capacity": iset.target_capacity,
        "ticks": iset.ticks,
        "warmup": iset.warmup,
        "seed": iset.seed,
    }
    placement = INTERNET_PLACEMENTS[figure]
    return [
        ShardUnitTask(
            figure=figure,
            unit=f"{figure}:{variant}:{label}",
            variant=variant,
            placement=placement,
            label=label,
            strategy=strategy,
            s_max=s_max,
            shard=shard,
            n_shards=n_shards,
            epoch_ticks=epoch_ticks,
            barrier_timeout_seconds=barrier_timeout_seconds,
            settings=settings,
        )
        for variant in variants
        for label, strategy, s_max in iset.strategies
        for shard in range(n_shards)
    ]


def chaos_tasks(options: ChaosOptions) -> List[ChaosCampaignTask]:
    """Tasks for one chaos sweep, deterministic in ``options``: the
    sampled campaigns, then the state-exhaustion ones."""
    options.validate()
    specs = [
        (
            f"campaign-{index:03d}",
            sample_campaign(
                options.seed,
                index,
                simulator=options.simulator,
                slo=options.slo,
                include_silent=options.include_silent,
            ),
        )
        for index in range(options.campaigns)
    ] + [
        (
            f"exhaustion-{index:03d}",
            exhaustion_campaign(
                options.seed,
                index,
                slo=options.slo,
                state_backend=options.state_backend,
                max_tracked_paths=options.max_tracked_paths,
            ),
        )
        for index in range(options.exhaustion)
    ]
    return [
        ChaosCampaignTask(
            campaign=name,
            spec=spec.to_dict(),
            shrink=options.shrink,
            max_shrink_trials=options.max_shrink_trials,
            artifact_dir=options.artifact_dir,
        )
        for name, spec in specs
    ]
