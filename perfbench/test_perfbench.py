"""The benchmark's own tests, on scenarios small enough to run in seconds.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import probe as pr  # noqa: E402
import run as bench  # noqa: E402
import workloads as w  # noqa: E402
from repro.net.engine import Engine  # noqa: E402
from repro.trace import Tracer, merge_trace, use_tracer  # noqa: E402

#: fluid-internet's shape at ~1/5 of its flows and 60 ticks
SMALL_FLUID = dict(
    w.FLUID_SETTINGS,
    n_as=300,
    n_legit_sources=2_000,
    n_legit_ases=60,
    n_bots=20_000,
    target_capacity=1_000.0,
    ticks=60,
    warmup=30,
)


def small_cbr(seed: int) -> w.PacketRun:
    return w.build_cbr_flood(seed, measure_seconds=1.0)


def small_churn(seed: int) -> w.PacketRun:
    return w.build_path_churn(seed, ticks=600)


@pytest.fixture
def work_dir():
    path = tempfile.mkdtemp(prefix="perfbench-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("build", [small_cbr, small_churn])
def test_per_tick_packet_run_matches_one_call_run(build):
    stepped = w.run_packet(build, 3, per_tick=True)
    whole = w.run_packet(build, 3, per_tick=False)
    assert len(stepped.tick_s) == stepped.result.ticks
    assert stepped.digest == whole.digest
    assert stepped.ledger_ok and whole.ledger_ok


def test_per_tick_fluid_run_matches_one_call_run():
    stepped = w.run_fluid(3, per_tick=True, settings=SMALL_FLUID)
    whole = w.run_fluid(3, per_tick=False, settings=SMALL_FLUID)
    assert len(stepped.tick_s) == SMALL_FLUID["ticks"]
    assert stepped.digest == whole.digest
    assert w.same_bytes(stepped.result, whole.result)


@pytest.mark.parametrize("build", [small_cbr, small_churn])
def test_traced_packet_run_keeps_digest_and_unwraps(build):
    original = Engine.__dict__["run"]
    plain = w.run_packet(build, 5)
    layer = pr.LayerProbe(pr.PACKET_TARGETS)
    traced = w.run_packet(build, 5, probe=layer)
    assert traced.digest == plain.digest
    assert Engine.__dict__["run"] is original
    metrics = pr.packet_metrics(layer.as_dict(), traced)
    assert metrics["net.ticks"] == traced.result.ticks
    assert metrics["core.admit_calls"] > 0
    assert metrics["traffic.on_tick_calls"] > 0
    assert 0.0 < metrics["core.admit_accept_ratio"] <= 1.0
    if build is small_churn:
        assert metrics["core.path_evictions"] > 0
        assert metrics["sketch.fold_calls"] > 0
        assert metrics["sketch.index_hashes"] > 0
    else:
        assert metrics["sketch.fold_calls"] == 0


def test_traced_fluid_run_keeps_digest():
    plain = w.run_fluid(5, settings=SMALL_FLUID)
    layer = pr.LayerProbe(pr.FLUID_TARGETS)
    traced = w.run_fluid(5, settings=SMALL_FLUID, probe=layer)
    assert traced.digest == plain.digest
    metrics = pr.fluid_metrics([layer.as_dict()])
    assert metrics["inet.steps"] == SMALL_FLUID["ticks"]
    assert metrics["inet.survival_s"] > 0.0


def test_traced_sharded_run_matches_serial(work_dir):
    serial = w.run_fluid(5, per_tick=False, settings=SMALL_FLUID)
    probe_dir = tempfile.mkdtemp(dir=work_dir)
    trace_dir = tempfile.mkdtemp(dir=work_dir)
    tracer = Tracer(trace_dir, proc="main")
    try:
        with use_tracer(tracer):
            sharded = w.run_sharded(
                5, work_dir, SMALL_FLUID, pr.ProbedShardTask, probe_dir=probe_dir
            )
    finally:
        tracer.close()
    assert w.same_bytes(sharded.result, serial.result)
    assert sharded.digest == serial.digest
    assert len(sharded.tick_s) == SMALL_FLUID["ticks"]
    inet = pr.fluid_metrics(pr.load_shard_probes(probe_dir))
    assert inet["inet.steps"] == w.N_SHARDS * SMALL_FLUID["ticks"]
    spans = pr.span_metrics(merge_trace(trace_dir), w.N_SHARDS, sharded.worker_deaths)
    assert spans["shard.rounds"] >= SMALL_FLUID["ticks"]
    assert spans["fleet.spawn_s"] > 0.0
    assert spans["fleet.worker_deaths"] == 0


def test_perturbed_result_counts_in_error_rate():
    good = w.run_packet(small_churn, 7)
    pinned = good.digest
    assert bench.tally([good], [], pinned)[:2] == (1, 0)

    # one more serviced packet at the target link changes the digest
    bad = w.run_packet(small_churn, 7)
    flow = next(iter(bad.result.monitor.service_counts))
    bad.result.monitor.service_counts[flow] += 1
    bad.digest = w.packet_digest(bad.result)
    attempted, failed, reasons = bench.tally([good, bad], [], pinned)
    assert (attempted, failed) == (2, 1)
    assert "digest" in reasons[0]

    # a ledger that no longer balances fails even with the right digest
    leaky = w.run_packet(small_churn, 7)
    leaky.ledger["delivered"] += 1
    assert bench.tally([leaky], [], pinned)[:2] == (1, 1)

    # at an unpinned seed the first run is the reference
    assert bench.tally([good, bad], [], None)[:2] == (2, 1)

    # a run that raised is attempted and failed
    assert bench.tally([good], ["run 2 raised RuntimeError"], pinned)[:2] == (2, 1)


def test_sharded_result_must_equal_serial():
    serial = w.run_fluid(9, per_tick=False, settings=SMALL_FLUID)
    other = w.run_fluid(10, per_tick=False, settings=SMALL_FLUID)
    assert bench.check_outcome(serial, serial.digest, serial.result) == []
    problems = bench.check_outcome(serial, serial.digest, other.result)
    assert problems == ["merged shard result differs from the serial result"]


def test_metric_map_covers_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as fh:
        groups = json.load(fh)["groups"]
    mapped = [m for g in groups for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
    workloads = {wl["name"] for wl in spec["workloads"]}
    assert workloads == set(w.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for group in groups:
        assert set(group["moves"]) <= e2e
        assert set(group["on"]) | set(group["quiet_on"]) <= workloads
