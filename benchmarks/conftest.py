"""Shared configuration for the figure-reproduction benchmarks.

Each benchmark regenerates one paper figure: it runs the experiment once
(``benchmark.pedantic(rounds=1)``), prints the figure's rows (run pytest
with ``-s`` to see them), and asserts the paper's *shape* claims — who
wins, by roughly what factor, where crossovers fall.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 0.08 = flow counts and link capacity at 8 % of the paper's,
preserving per-flow fair shares).  Set it to 1.0 for full paper scale
(much slower).  ``REPRO_BENCH_SECONDS`` scales the measurement window.

Every benchmark session also writes ``BENCH_telemetry.json`` at the repo
root: per-figure wall-clock seconds plus a per-subsystem tick-profiler
breakdown of one profiled smoke scenario, so successive commits have a
performance trajectory to compare against.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict

import pytest

from repro.experiments.common import FunctionalSettings


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.08"))


def bench_seconds() -> float:
    return float(os.environ.get("REPRO_BENCH_SECONDS", "8.0"))


@pytest.fixture
def settings() -> FunctionalSettings:
    return FunctionalSettings(
        scale=bench_scale(),
        warmup_seconds=4.0,
        measure_seconds=bench_seconds(),
        seed=1,
    )


def emit(text: str) -> None:
    """Print a figure's rows beneath the benchmark output."""
    print()
    print(text)


# ----------------------------------------------------------------------
# BENCH_telemetry.json: the performance trajectory
# ----------------------------------------------------------------------
_BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_telemetry.json",
)

_figure_seconds: Dict[str, float] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    yield
    _figure_seconds[item.nodeid] = time.perf_counter() - start  # flocheck: disable=FLC007 -- pytest timing hook runs in the host process only; nothing ships it to a spawn worker


def _profiled_smoke() -> Dict[str, object]:
    """Per-subsystem wall-time breakdown of one profiled FLoc run.

    A small fixed scenario (independent of the bench scale knobs) so the
    subsystem fractions are comparable across commits even when the
    figure set or scale changes.  The ticks are timed the way a traced
    run times them: inside a ``Tracer.phases`` scope.
    """
    import tempfile

    from repro.core.config import FLocConfig
    from repro.core.router import FLocPolicy
    from repro.trace import Tracer, use_tracer
    from repro.traffic.scenarios import build_tree_scenario

    with tempfile.TemporaryDirectory(prefix="bench-trace-") as trace_dir:
        tracer = Tracer(trace_dir, proc="bench")
        with use_tracer(tracer), tracer.span("smoke") as span:
            with tracer.phases(span) as prof:
                scenario = build_tree_scenario(
                    scale_factor=0.05, attack_kind="cbr",
                    attack_rate_mbps=2.0, seed=1,
                )
                scenario.attach_policy(FLocPolicy(FLocConfig(s_max=25)))
                scenario.run_seconds(3.0)
        tracer.close()
    return {
        "ticks_profiled": prof.ticks_profiled,
        "total_seconds": round(prof.total_seconds, 6),
        "totals_seconds": {
            name: round(seconds, 6)
            for name, seconds in sorted(prof.totals_seconds.items())
        },
        "fractions": {
            name: round(fraction, 4)
            for name, fraction in sorted(prof.breakdown().items())
        },
    }


def pytest_sessionfinish(session, exitstatus):
    if not _figure_seconds:
        return
    payload = {
        "schema": 1,
        "bench_scale": bench_scale(),
        "bench_seconds": bench_seconds(),
        "figures_wall_seconds": {
            nodeid: round(seconds, 4)
            for nodeid, seconds in sorted(_figure_seconds.items())
        },
        "profiled_smoke": _profiled_smoke(),
    }
    with open(_BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
