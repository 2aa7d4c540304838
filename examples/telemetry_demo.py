#!/usr/bin/env python
"""Telemetry demo: metrics, decision traces, and a wall-time profile.

The telemetry layer (:mod:`repro.telemetry`) observes a run without
changing it: a metrics registry (counters, gauges, histograms, tick
series) and a tick-keyed decision-trace log.  Per-subsystem wall time
comes from the span tracer (:mod:`repro.trace`), which times the ticks
inside a ``Tracer.phases`` scope.  This demo walks the whole surface by
hand:

1. run the Section VI tree scenario under a CBR flood twice — once with
   telemetry off, once with full tracing and phase timing — and show
   the monitor output is bit-identical (both are observation-only);
2. read the registry: FLoc decision counters, the queue-depth
   histogram, and the engine's delivered-packet tick series;
3. read the drop provenance — every engine drop carries exactly one
   cause from the Section V pipeline order — and the raw trace events
   behind it;
4. print the per-subsystem wall-time breakdown of the timed run;
5. export everything (metrics.json, metrics.prom, series.csv,
   events.jsonl) the way ``repro run --telemetry trace`` does, then
   render the export back with the ``repro metrics`` loader.

Run:  python examples/telemetry_demo.py
"""

import tempfile
from pathlib import Path

from repro.core.config import FLocConfig
from repro.core.router import FLocPolicy
from repro.telemetry import DROP_CAUSES, NULL_TELEMETRY, Telemetry, use
from repro.telemetry.exporters import export_all, load_metrics_json
from repro.trace import Tracer, use_tracer
from repro.traffic.scenarios import build_tree_scenario


def run_flood(tel):
    """One seeded CBR flood against FLoc, observed by ``tel``."""
    with use(tel):
        scenario = build_tree_scenario(
            scale_factor=0.05,
            attack_kind="cbr",
            attack_rate_mbps=2.0,
            seed=3,
            start_spread_seconds=0.5,
        )
        scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
        monitor = scenario.add_target_monitor(start_seconds=1.0)
        scenario.run_seconds(5.0)
    return monitor


# -- 1. observation-only: identical results with telemetry on or off ----
baseline = run_flood(NULL_TELEMETRY)
tel = Telemetry(mode="trace")
with tempfile.TemporaryDirectory() as trace_dir:
    tracer = Tracer(trace_dir, proc="demo")
    with use_tracer(tracer), tracer.span("flood") as span:
        with tracer.phases(span) as prof:
            traced = run_flood(tel)
    tracer.close()

assert traced.service_counts == baseline.service_counts
assert traced.drop_counts == baseline.drop_counts
assert list(traced.series) == list(baseline.series)
print("monitor output bit-identical with tracing on:",
      f"{traced.total_serviced} serviced / {traced.total_dropped} dropped")

# -- 2. the metrics registry --------------------------------------------
reg = tel.registry
print("\nFLoc decision counters:")
for name in ("token_grants_count", "mtd_transitions_count",
             "mtd_blocks_count", "conformance_flips_count",
             "aggregation_moves_count"):
    print(f"  {name:28s} {reg.counter(name).value}")

depth = reg.get("floc_queue_depth_packets")
print(f"queue-depth histogram: {depth.total} observations, "
      f"counts per bound {[int(c) for c in depth.counts]}")

delivered = reg.series("engine_delivered_packets").points()
print(f"delivered-packet series: {len(delivered)} points, "
      f"last = {delivered[-1]}")

# -- 3. drop provenance: one cause per drop, Section V ordering ---------
print("\ndrop provenance (cause -> packets):")
for cause in DROP_CAUSES:
    n = tel.drop_provenance().get(cause)
    if n:
        print(f"  {cause:14s} {n:g}")

first = tel.trace.events("drop")[0]
print(f"first drop event: tick={first.tick} data={first.to_dict()}")
print(f"trace totals: {tel.trace.emitted_total} events emitted, "
      f"by kind {dict(sorted(tel.trace.counts_by_kind.items()))}")

# -- 4. where the wall time went ----------------------------------------
print("\nper-subsystem wall-time fractions:")
for name, frac in sorted(prof.breakdown().items()):
    print(f"  {name:10s} {frac:6.1%}")

# -- 5. export and reload, the CLI round trip ---------------------------
with tempfile.TemporaryDirectory() as tmp:
    paths = export_all(tel, tmp)
    for kind, path in sorted(paths.items()):
        size = Path(path).stat().st_size
        print(f"exported {kind:10s} {Path(path).name} ({size} bytes)")
    payload = load_metrics_json(paths["metrics"])
    print(f"reloaded export: mode={payload['mode']}, "
          f"{len(payload['metrics'])} metrics")
