"""Live spans from the instrumented fabric + digest identity with tracing.

These tests run the real supervisor / fleet / chaos layers with a real
tracer attached and assert (a) the span DAG they emit is the documented
taxonomy and joins across processes, (b) tick-phase time is attributed
once — the phases measured inside a span never push the report past
the wall clock — and (c) results and digests are byte-identical with
tracing on or off — the regression lock for the observation-only
contract.
"""

import pickle
from dataclasses import dataclass

from repro.chaos import ChaosOptions, ChaosReport
from repro.experiments.common import FunctionalSettings
from repro.fleet import (
    FleetOptions,
    ShardUnitTask,
    chaos_tasks,
    figure_tasks,
    run_fleet,
    run_tasks,
)
import numpy as np

from repro.inet.scenarios import build_internet_scenario
from repro.inet.shard import BarrierExchange, ShardSpec
from repro.inet.simulator import FluidSimulator
from repro.runner import CheckpointStore, FluidRun, SupervisedRunner
from repro.telemetry import current
from repro.trace import NullTracer, Tracer, analyze, merge_trace, use_tracer
from repro.traffic.scenarios import build_tree_scenario


def _settings():
    return FunctionalSettings(
        scale=0.05, warmup_seconds=0.5, measure_seconds=1.0, seed=3
    )


def _quick_unit(ctx):
    return {"name": ctx.name}


def _lane_wall_seconds(trace):
    """Sum over process lanes of each lane's wall extent."""
    lanes = {}
    for span in trace.spans:
        lo, hi = lanes.get(span.proc, (span.start, span.end))
        lanes[span.proc] = (min(lo, span.start), max(hi, span.end))
    return sum(hi - lo for lo, hi in lanes.values())


def _assert_attributed_once(trace, *phases):
    analysis = analyze(trace)
    ratio = sum(analysis.phases.values()) / _lane_wall_seconds(trace)
    assert ratio <= 1.01, (ratio, analysis.phases)
    for phase in phases:
        assert analysis.phases.get(phase, 0.0) > 0.0, (phase, analysis.phases)
    return analysis


def _traced(trace_dir, body):
    tracer = Tracer(str(trace_dir), proc="main")
    with use_tracer(tracer):
        result = body()
    tracer.close()
    return result, merge_trace(str(trace_dir))


@dataclass(frozen=True)
class FluidUnitTask:
    """A small fluid run through ``ctx.checkpointed`` (tick segments)."""

    name: str = "fluid"

    def run(self, ctx):
        def build():
            scenario = build_internet_scenario(
                n_as=100, n_legit_sources=250, n_legit_ases=25,
                n_bots=1500, target_capacity=150.0, seed=13,
            )
            sim = FluidSimulator(scenario, strategy="floc", seed=3)
            return FluidRun(sim, ticks=120, warmup=50)

        return ctx.checkpointed(build, lambda run: run.sim.finish_run())


@dataclass(frozen=True)
class TelemetryProbeTask:
    """Runs a few packet ticks and reports the telemetry it ran under."""

    name: str = "probe"

    def run(self, ctx):
        scenario = build_tree_scenario(scale_factor=0.05, seed=2)
        scenario.run_seconds(0.3)
        return current().enabled


def _gang_tasks():
    """One 2-shard fig13 gang, small enough for a 2-worker pool."""
    settings = {
        "n_as": 120, "n_legit_sources": 240, "n_legit_ases": 30,
        "n_bots": 2_000, "target_capacity": 150.0, "ticks": 60,
        "warmup": 30, "seed": 7,
    }
    return [
        ShardUnitTask(
            figure="fig13", unit="fig13:f-root:NA", variant="f-root",
            placement="localized", label="NA", strategy="floc", s_max=None,
            shard=shard, n_shards=2, epoch_ticks=20,
            barrier_timeout_seconds=90.0, settings=dict(settings),
        )
        for shard in range(2)
    ]


class TestRunnerSpans:
    def test_job_and_unit_spans_with_parenting(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        with use_tracer(tracer):
            report = SupervisedRunner().run_units(
                [("u1", _quick_unit), ("u2", _quick_unit)]
            )
        tracer.close()
        assert report.status == "ok"
        merged = merge_trace(str(tmp_path))
        by_name = {s.name: s for s in merged.spans}
        job = by_name["job"]
        assert job.cat == "job"
        assert job.args["status"] == "ok"
        for unit in ("unit:u1", "unit:u2"):
            assert by_name[unit].parent == job.span_id
            assert by_name[unit].args["status"] == "done"
        assert merged.truncated_spans == 0

    def test_no_tracer_no_files(self, tmp_path):
        report = SupervisedRunner().run_units([("u1", _quick_unit)])
        assert report.status == "ok"
        assert list(tmp_path.iterdir()) == []


class TestFleetSpans:
    def test_worker_spans_join_the_supervisor_dag(self, tmp_path):
        # fig07 (not fig03) so the tasks drive the profiled tick engine
        # and the workers synthesize per-phase spans from its totals
        trace_dir = tmp_path / "trace"
        tasks = figure_tasks("fig07", _settings())
        store = CheckpointStore(str(tmp_path / "store"))
        tracer = Tracer(str(trace_dir), proc="main")
        with use_tracer(tracer):
            freport = run_fleet(
                tasks, store, FleetOptions(workers=2)
            )
        tracer.close()
        assert freport.status == "ok"

        merged = merge_trace(str(trace_dir))
        assert "main" in merged.procs
        worker_procs = sorted(p for p in merged.procs if p != "main")
        assert worker_procs  # at least one worker wrote spans
        by_id = merged.by_id()
        fleet = next(s for s in merged.spans if s.name == "fleet")
        # every worker-side task span parents under a supervisor-side
        # task span of the same name, which parents under the fleet span
        worker_tasks = [
            s for s in merged.spans
            if s.cat == "task" and s.proc != "main"
        ]
        assert len(worker_tasks) == len(tasks)
        for span in worker_tasks:
            parent = by_id[span.parent]
            assert parent.proc == "main"
            assert parent.name == span.name
            assert parent.parent == fleet.span_id
        # per-tick engine phases were measured inside the worker spans
        worker_task_ids = {s.span_id for s in worker_tasks}
        phases = [e for e in merged.events if e.name == "phases"]
        assert phases
        assert {e.parent for e in phases} <= worker_task_ids
        assert not any(s.cat == "phase" for s in merged.spans)

    def test_shard_spans_parent_under_their_task(self, tmp_path):
        tasks = _gang_tasks()
        report, merged = _traced(
            tmp_path / "trace",
            lambda: run_fleet(
                tasks, CheckpointStore(str(tmp_path / "store")),
                FleetOptions(workers=2),
            ),
        )
        assert report.status == "ok"
        _assert_attributed_once(
            merged, "barrier-wait", "queueing", "policy", "sources",
        )
        by_id = merged.by_id()
        worker_spans = [s for s in merged.spans if s.proc != "main"]
        for span in worker_spans:
            if span.cat == "task":
                continue
            # every span in a shard worker lane has a parent in its lane
            parent = by_id[span.parent]
            assert parent.proc == span.proc
            if span.cat == "barrier":
                assert parent.name == "ticks"
            else:
                assert parent.cat == "task", span.name
        assert {s.name for s in worker_spans} >= {
            "build", "ticks", "checkpoint.save", "finalize",
            "barrier.publish", "barrier.collect",
        }
        # the ticks spans carry the measured phases, barrier time excluded
        ticks_ids = {s.span_id for s in worker_spans if s.name == "ticks"}
        phases = [e for e in merged.events if e.name == "phases"]
        assert {e.parent for e in phases} == ticks_ids

    def test_fleet_results_identical_with_tracing(self, tmp_path):
        tasks = figure_tasks("fig03", _settings())
        base = run_fleet(
            tasks,
            CheckpointStore(str(tmp_path / "s1")),
            FleetOptions(workers=2),
        )
        tracer = Tracer(str(tmp_path / "trace"), proc="main")
        with use_tracer(tracer):
            traced = run_fleet(
                figure_tasks("fig03", _settings()),
                CheckpointStore(str(tmp_path / "s2")),
                FleetOptions(workers=2),
            )
        tracer.close()
        assert base.results == traced.results


class TestPhaseAttribution:
    def test_serial_checkpointed_fluid_unit(self, tmp_path):
        report, merged = _traced(
            tmp_path / "trace",
            lambda: run_tasks(
                [FluidUnitTask()],
                CheckpointStore(str(tmp_path / "store")),
                FleetOptions(workers=None, checkpoint_interval=30),
            ),
        )
        assert report.status == "ok"
        _assert_attributed_once(
            merged, "queueing", "policy", "sources", "tcp", "checkpoint",
        )
        ticks_ids = {s.span_id for s in merged.spans if s.name == "ticks"}
        assert len(ticks_ids) == 4
        assert {
            e.parent for e in merged.events if e.name == "phases"
        } == ticks_ids

    def test_packet_chaos_campaign(self, tmp_path):
        options = ChaosOptions(
            seed=4, campaigns=1, simulator="packet", shrink=False,
            artifact_dir=None,
        )
        report, merged = _traced(
            tmp_path / "trace", lambda: run_tasks(chaos_tasks(options))
        )
        assert report.status == "ok"
        analysis = _assert_attributed_once(
            merged, "queueing", "policy", "sources", "delivery", "arrivals",
        )
        (campaign,) = [s for s in merged.spans if s.name == "campaign.run"]
        assert [
            e.parent for e in merged.events if e.name == "phases"
        ] == [campaign.span_id]
        assert "phase" not in analysis.phases


class TestTelemetryOffStaysOff:
    """With tracing on and telemetry off, units run under no recorder."""

    def test_in_process(self, tmp_path):
        report, merged = _traced(
            tmp_path / "trace", lambda: run_tasks([TelemetryProbeTask()])
        )
        assert report.results == {"probe": False}
        assert report.telemetry is None or not report.telemetry.enabled
        assert any(e.name == "phases" for e in merged.events)

    def test_on_one_worker(self, tmp_path):
        report, merged = _traced(
            tmp_path / "trace",
            lambda: run_tasks(
                [TelemetryProbeTask()], options=FleetOptions(workers=1)
            ),
        )
        assert report.results == {"probe": False}
        assert any(
            e.name == "phases" and e.proc == "w0" for e in merged.events
        )


class TestChaosDigestIdentity:
    def test_campaign_digest_identical_with_tracing(self, tmp_path):
        options = ChaosOptions(
            seed=4, campaigns=1, simulator="packet", shrink=False,
            artifact_dir=None,
        )
        base = ChaosReport(run_tasks(chaos_tasks(options)))
        tracer = Tracer(str(tmp_path), proc="main")
        with use_tracer(tracer):
            traced = ChaosReport(run_tasks(chaos_tasks(options)))
        tracer.close()
        assert base.campaigns[0]["digest"] == traced.campaigns[0]["digest"]
        assert base.campaigns[0]["verdicts"] == (
            traced.campaigns[0]["verdicts"]
        )
        # the sweep actually emitted campaign spans
        merged = merge_trace(str(tmp_path))
        assert any(s.name == "campaign.run" for s in merged.spans)


class TestCheckpointPurity:
    def test_barrier_exchange_pickles_without_its_tracer(self, tmp_path):
        tracer = Tracer(str(tmp_path / "trace"), proc="main")
        with use_tracer(tracer):
            exchange = BarrierExchange(
                str(tmp_path / "xc"),
                ShardSpec(
                    shard=0,
                    n_shards=2,
                    shard_of_as=np.zeros(4, dtype=np.int64),
                ),
            )
            assert exchange.tracer is tracer
        clone = pickle.loads(pickle.dumps(exchange))
        # the live tracer is replaced by a disabled shell on the way out
        assert type(clone.tracer) is NullTracer
        assert not clone.tracer.enabled
        tracer.close()

    def test_tracer_state_never_reaches_pickles(self, tmp_path):
        tracer = Tracer(str(tmp_path), proc="main")
        tracer.span("unit").end()
        payload = pickle.dumps(tracer)
        clone = pickle.loads(payload)
        assert not clone.enabled
        # pickling twice is stable: no hidden wall-clock state leaks in
        assert pickle.dumps(clone) == pickle.dumps(
            pickle.loads(payload)
        )
        tracer.close()
