"""Telemetry and tick-phase timing are observation-only: results are
byte-identical on or off."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.chaos import AttackerSpec, CampaignSpec, FaultSpec, SloSpec
from repro.chaos.campaign import execute_campaign
from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.inet.scenarios import build_internet_scenario
from repro.inet.simulator import FluidSimulator
from repro.telemetry import NULL_TELEMETRY, Telemetry, use
from repro.trace import Tracer, use_tracer
from repro.traffic.scenarios import build_tree_scenario


@contextmanager
def _phase_scope(trace_dir):
    """Time every tick of the block, as a traced run's phases scope does."""
    tracer = Tracer(str(trace_dir), proc="main")
    with use_tracer(tracer), tracer.span("run") as span:
        with tracer.phases(span) as profiler:
            yield profiler
    tracer.close()
    assert profiler.ticks_profiled > 0


def _run_packet(tel):
    with use(tel):
        scenario = build_tree_scenario(
            scale_factor=0.05,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=3,
            start_spread_seconds=0.5,
        )
        policy = FLocPolicy(FLocConfig(s_max=25))
        scenario.attach_policy(policy)
        monitor = scenario.add_target_monitor(start_seconds=2.0)
        scenario.run_seconds(5.0)
    return monitor, policy


def _run_fluid(tel):
    scn = build_internet_scenario(
        n_as=100, n_legit_sources=250, n_legit_ases=25, n_bots=1500,
        target_capacity=150.0, seed=13,
    )
    with use(tel):
        sim = FluidSimulator(scn, strategy="floc", seed=3)
        return sim.run(ticks=120, warmup=50)


class TestPacketEngine:
    def test_monitor_output_bit_identical(self, tmp_path):
        base_mon, base_pol = _run_packet(NULL_TELEMETRY)
        with _phase_scope(tmp_path):
            traced_mon, traced_pol = _run_packet(Telemetry(mode="trace"))
        assert traced_mon.service_counts == base_mon.service_counts
        assert traced_mon.drop_counts == base_mon.drop_counts
        assert list(traced_mon.series) == list(base_mon.series)
        assert traced_pol.drop_stats == base_pol.drop_stats


class TestFluidSimulator:
    def test_shares_bit_identical(self, tmp_path):
        base = _run_fluid(NULL_TELEMETRY)
        with _phase_scope(tmp_path):
            traced = _run_fluid(Telemetry(mode="trace"))
        assert np.array_equal(
            np.asarray(base.shares), np.asarray(traced.shares)
        )


class TestChaosDigest:
    @pytest.fixture(scope="class")
    def spec(self):
        return CampaignSpec(
            seed=5,
            simulator="packet",
            warmup_ticks=150,
            window_ticks=100,
            n_windows=3,
            scale=0.05,
            faults=(FaultSpec(kind="router_restart", tick=300),),
            attackers=(
                AttackerSpec(
                    kind="cbr", bots=2, rate_mbps=2.0,
                    mutations=("rerandomize",),
                ),
            ),
            slo=SloSpec(),
        )

    def test_digest_identical_with_full_tracing(self, spec, tmp_path):
        base = execute_campaign(spec)
        with _phase_scope(tmp_path), use(Telemetry(mode="trace")):
            traced = execute_campaign(spec)
        assert traced.digest == base.digest
        assert traced.windows == base.windows

    def test_provenance_is_deterministic(self, spec):
        a = execute_campaign(spec)
        b = execute_campaign(spec)
        assert a.drop_provenance == b.drop_provenance
        assert a.drop_provenance  # the flood produced attributed drops
