"""Robustness experiment: FLoc vs baselines under injected faults.

Not a paper figure — a reliability study the paper's deployment story
implies but never measures: what happens to legitimate bandwidth when the
defending router itself fails mid-attack?  Three measurement phases of
equal length bracket the fault window:

* **pre** — steady state under the flood, defense converged;
* **during** — the defending policy is crash-restarted (volatile state
  wiped, FLoc in its warm-up fallback) and one ingress uplink flaps
  (packet level: ``root.0 -> root`` goes down and flows reroute over a
  backup cross-link; fluid level: the busiest legitimate AS uplink is
  degraded to 30 % capacity);
* **post** — all faults cleared; measures how much of the pre-fault
  legitimate bandwidth the defense wins back.

The headline number is ``recovery_ratio = post / pre`` for legitimate
traffic: a dependable defense should sit near 1.0 (state regenerates from
live traffic), and during the fault it should degrade no worse than the
no-defense baseline rather than locking legitimate flows out on cold
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import FLocConfig
from ..faults import FaultSchedule, FluidLinkDegrade, fluid_restart
from ..inet.scenarios import InternetScenario, build_internet_scenario
from ..inet.simulator import FluidSimulator
from ..net.engine import LinkMonitor
from ..sanitize import install_sanitizer
from ..traffic.scenarios import ROOT, build_tree_scenario
from .common import FunctionalSettings, make_policy

#: Packet-level schemes compared (a stateful defense vs stateless bases).
PACKET_SCHEMES = ("floc", "fairshare", "droptail")
#: Fluid-level strategies compared.
FLUID_STRATEGIES = ("floc", "nd")


@dataclass
class PhaseBandwidth:
    """Legitimate bandwidth share across the three fault phases."""

    simulator: str  # "packet" or "fluid"
    scheme: str
    pre: float  # legit share of target capacity, pre-fault phase
    during: float  # ... while the faults are active
    post: float  # ... after all faults cleared
    fault_log: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def recovery_ratio(self) -> float:
        """``post / pre``; 1.0 when there was nothing to recover."""
        if self.pre <= 1e-12:
            return 1.0
        return self.post / self.pre


@dataclass
class RobustnessFaultsResult:
    """Outcome of the combined packet-level + fluid-level study."""

    packet: List[PhaseBandwidth]
    fluid: List[PhaseBandwidth]

    def rows(self) -> List[List]:
        rows = []
        for entry in self.packet + self.fluid:
            rows.append(
                [
                    entry.simulator,
                    entry.scheme,
                    round(entry.pre, 4),
                    round(entry.during, 4),
                    round(entry.post, 4),
                    round(entry.recovery_ratio, 3),
                ]
            )
        return rows


def _phase_ticks(settings: FunctionalSettings, units) -> Tuple[int, int]:
    warmup = units.seconds_to_ticks(settings.warmup_seconds)
    phase = max(1, units.seconds_to_ticks(settings.measure_seconds) // 3)
    return warmup, phase


def run_packet_faults(
    settings: FunctionalSettings,
    schemes: Sequence[str] = PACKET_SCHEMES,
) -> List[PhaseBandwidth]:
    """Packet-level study: restart the target policy and flap an uplink."""
    results = []
    for scheme in schemes:
        scenario = build_tree_scenario(
            scale_factor=settings.scale,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=settings.seed,
        )
        # Backup cross-link between the root's first two subtrees.  Added
        # after flow setup so initial shortest routes are unchanged; it
        # only carries traffic while the root.0 uplink is down.
        scenario.topology.add_duplex_link("root.0", "root.1", capacity=None)

        warmup, phase = _phase_ticks(settings, scenario.units)
        t1 = warmup + phase  # faults begin
        t2 = t1 + phase  # faults cleared
        t3 = t2 + phase  # end of post-fault phase

        cfg = FLocConfig(
            s_max=settings.s_max,
            restart_warmup_ticks=max(1, phase // 2),
        )
        scenario.attach_policy(make_policy(scheme, settings, cfg))
        monitors = [
            scenario.engine.add_monitor(
                *scenario.target, LinkMonitor(start_tick=a, stop_tick=b)
            )
            for a, b in ((warmup, t1), (t1, t2), (t2, t3))
        ]

        faults = FaultSchedule()
        faults.router_restart(*scenario.target, tick=t1)
        faults.link_flap(
            "root.0", ROOT,
            down_tick=t1 + phase // 4,
            up_tick=t1 + (3 * phase) // 4,
        )
        faults.install(scenario.engine)
        install_sanitizer(scenario.engine, settings.sanitize)
        scenario.engine.run(t3)

        legit_ids = {f.flow_id for f in scenario.legit_flows}
        budget = scenario.capacity * phase

        def legit_share(monitor: LinkMonitor) -> float:
            serviced = sum(
                count
                for flow_id, count in monitor.service_counts.items()
                if flow_id in legit_ids
            )
            return serviced / budget

        pre, during, post = (legit_share(m) for m in monitors)
        results.append(
            PhaseBandwidth(
                simulator="packet",
                scheme=scheme,
                pre=pre,
                during=during,
                post=post,
                fault_log=list(faults.log),
            )
        )
    return results


def busiest_legit_as(scn: InternetScenario) -> int:
    """The non-attack AS hosting the most legitimate flows (the uplink a
    degrade fault hits, so legitimate traffic feels it most)."""
    counts = np.bincount(
        scn.flow_origin_as[~scn.flow_is_attack], minlength=scn.n_links
    )
    counts[0] = 0  # the target itself hosts no sources
    for asn in scn.attack_ases:
        counts[asn] = 0
    return int(counts.argmax())


def run_fluid_faults(
    settings: FunctionalSettings,
    strategies: Sequence[str] = FLUID_STRATEGIES,
    warmup: int = 100,
    phase: int = 100,
    scenario_kwargs: Optional[dict] = None,
) -> List[PhaseBandwidth]:
    """Fluid-level study: defense restart + legit-uplink degradation."""
    kwargs = dict(
        n_as=300,
        n_legit_sources=800,
        n_legit_ases=60,
        n_bots=8_000,
        target_capacity=400.0,
        seed=settings.seed,
    )
    if scenario_kwargs:
        kwargs.update(scenario_kwargs)

    results = []
    for strategy in strategies:
        scn = build_internet_scenario(**kwargs)
        sim = FluidSimulator(
            scn, strategy=strategy, s_max=settings.s_max, seed=settings.seed
        )
        t1 = warmup + phase
        t2 = t1 + phase
        t3 = t2 + phase

        faults = FaultSchedule()
        faults.at(
            t1, fluid_restart(warmup_ticks=max(1, phase // 2)),
            name="defense-restart",
        )
        degrade = FluidLinkDegrade(busiest_legit_as(scn), factor=0.3)
        faults.at(t1, degrade.down, name="uplink-degrade")
        faults.at(t2, degrade.up, name="uplink-restore")
        faults.install(sim)
        install_sanitizer(sim, settings.sanitize)

        result = sim.run(ticks=t3, warmup=warmup, record_series=True)

        def legit_share(a: int, b: int) -> float:
            window = [
                ll + la for tick, ll, la, _ in result.series if a <= tick < b
            ]
            return sum(window) / len(window) if window else 0.0

        results.append(
            PhaseBandwidth(
                simulator="fluid",
                scheme=strategy,
                pre=legit_share(warmup, t1),
                during=legit_share(t1, t2),
                post=legit_share(t2, t3),
                fault_log=list(faults.log),
            )
        )
    return results


def run_robustness_faults(
    settings: FunctionalSettings,
    packet_schemes: Sequence[str] = PACKET_SCHEMES,
    fluid_strategies: Sequence[str] = FLUID_STRATEGIES,
) -> RobustnessFaultsResult:
    """Run both halves of the robustness study."""
    return RobustnessFaultsResult(
        packet=run_packet_faults(settings, packet_schemes),
        fluid=run_fluid_faults(settings, fluid_strategies),
    )
