"""Benchmark of the FLoc simulators: one workload per invocation.

Usage (from the repository root; needs only the sources under ``src/``)::

    python3 perfbench/run.py --workload packet-cbr-flood --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload closed-loop -- each run starts when the
previous one ends -- for ``--seconds`` and at least two runs, checks
every run's result, and reports the end-to-end metrics named in
``BENCHMARK.json``, in seconds at a nominal host speed (``pace.py``),
each a median over its repeats (see :func:`end_to_end`).
``--trace 1`` makes one plain run and one run under the per-layer probes
(``probe.py``) and reports the per-layer metrics, including
``trace_overhead``, the traced run's ``run_s`` over the plain one's.

A run fails if it raises, if its conservation ledger does not balance,
if its digest differs from the one pinned in ``digests.json`` for the
seed (or, at unpinned seeds, from the invocation's first run), or, for
``fluid-sharded``, if a worker died or the merged result is not
byte-identical to the serial run.  ``error_rate`` = failed / attempted.

Every line before the last is for people: the host block (cores, CPU
model, Python and numpy versions), the metrics by name and unit, and any
failure.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: The closed loop goes on past ``--seconds`` until this many runs ended:
#: the timings are medians over the runs (see :func:`end_to_end`).
MIN_RUNS = 2
#: In-process workloads repeat set-up alone until this many samples and
#: this many seconds (a packet set-up takes milliseconds).
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 1.0


def host_block() -> Dict[str, Any]:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set of the largest process so far (this one or a
    reaped fleet worker); Linux reports kilobytes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pinned_digest(pins: Dict[str, Dict[str, str]], workload: str, seed: int) -> Optional[str]:
    # the sharded run must reproduce the serial result byte for byte
    key = "fluid-internet" if workload == "fluid-sharded" else workload
    return pins.get(key, {}).get(str(seed))


def check_outcome(
    outcome: Any, reference: str, serial: Any = None
) -> List[str]:
    """Why this run counts as failed (empty when it is correct)."""
    from workloads import same_bytes

    problems = []
    if not outcome.ledger_ok:
        problems.append(f"ledger does not balance: {outcome.ledger}")
    if outcome.digest != reference:
        problems.append(f"digest {outcome.digest} != {reference}")
    if serial is not None and not same_bytes(outcome.result, serial):
        problems.append("merged shard result differs from the serial result")
    if outcome.worker_deaths:
        problems.append(f"{outcome.worker_deaths} fleet worker(s) died")
    return problems


def tally(
    outcomes: List[Any], errors: List[str], pinned: Optional[str], serial: Any = None
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) over one invocation's runs.

    Runs that raised are in ``errors``; the others are checked against
    the pinned digest, or against the first run's at unpinned seeds.
    """
    reasons = list(errors)
    failed = len(errors)
    reference = pinned if pinned is not None else (outcomes[0].digest if outcomes else "")
    for index, outcome in enumerate(outcomes, 1):
        problems = check_outcome(outcome, reference, serial)
        failed += bool(problems)
        reasons.extend(f"run {index}: {problem}" for problem in problems)
    return len(outcomes) + len(errors), failed, reasons


def _runner(
    workload: str,
) -> Tuple[Callable[[int], Any], Optional[Callable[[int], Tuple[float, float]]]]:
    """(one closed-loop run, one set-up alone -> its host seconds and
    their scale)."""
    import workloads as w

    def setup_only(build: Callable[[int], Any]) -> Callable[[int], Tuple[float, float]]:
        return lambda seed: w.timed_setup(build, seed)[1:]

    build = w.PACKET_BUILDS.get(workload)
    if build is not None:
        return (lambda seed: w.run_packet(build, seed)), setup_only(build)
    if workload == "fluid-internet":
        return w.run_fluid, setup_only(w.build_fluid)
    return (lambda seed: w.run_sharded(seed, WORK)), None


def measure(
    workload: str,
    seed: int,
    seconds: float,
    min_runs: int = MIN_RUNS,
    min_setups: int = MIN_SETUPS,
    min_setup_seconds: float = MIN_SETUP_SECONDS,
) -> Tuple[List[Any], List[str], List[float], float]:
    """Closed loop for ``seconds`` and ``min_runs``; returns outcomes,
    errors of runs that raised, scaled set-up samples and peak RSS."""
    run_once, setup_only = _runner(workload)
    rss = 0.0
    outcomes: List[Any] = []
    errors: List[str] = []
    start = time.perf_counter()
    while (
        not (outcomes or errors)
        or time.perf_counter() - start < seconds
        or (outcomes and len(outcomes) < min_runs)
    ):
        try:
            outcome = run_once(seed)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            errors.append(f"run {len(outcomes) + len(errors) + 1} raised {type(exc).__name__}: {exc}")
            continue
        if not outcomes:
            # one run's peak, in a process that has run nothing else
            rss = peak_rss_mb()
        if outcome.kind == "packet":
            outcome.result = None  # hold one finished scenario at a time
        outcomes.append(outcome)
    setups = [o.setup_s * o.setup_scale for o in outcomes]
    deadline = time.perf_counter() + min_setup_seconds
    while (
        setup_only is not None
        and setups
        and (len(setups) < min_setups or time.perf_counter() < deadline)
    ):
        setup_s, scale = setup_only(seed)
        setups.append(setup_s * scale)
    return outcomes, errors, setups, rss


def serial_reference(workload: str, seed: int) -> Any:
    """The serial result a sharded run must equal byte for byte."""
    if workload != "fluid-sharded":
        return None
    import workloads as w

    return w.run_fluid(seed, per_tick=False).result


def scaled_run_s(outcome: Any) -> float:
    return outcome.run_s * outcome.run_scale


def end_to_end(outcomes: List[Any], setups: List[float], rss: float) -> Dict[str, float]:
    """End-to-end metrics of one invocation's runs.

    Times are seconds at the nominal host speed (``pace.py``): a run's
    host seconds, and its ticks', times the run's scale, and a set-up's
    times its own.  ``run_s`` and ``setup_s`` are medians over the runs
    and set-ups.  Every run of a seed does the same work tick by tick
    (the simulators are deterministic), so each tick's cost is the
    median of its repeats, and the tick percentiles are over those, as
    Harrell-Davis estimates, which weigh every order statistic near the
    quantile instead of interpolating between two.
    """
    import numpy as np
    from scipy.stats.mstats import hdquantiles

    run_s = statistics.median(scaled_run_s(o) for o in outcomes)
    ticks = np.median([np.asarray(o.tick_s) * o.run_scale for o in outcomes], axis=0)
    p50, p99 = hdquantiles(ticks, prob=(0.5, 0.99))
    first = outcomes[0]
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "tick_p50_ms": float(p50) * 1e3,
        "tick_p99_ms": float(p99) * 1e3,
        "pkts_per_s": first.pkts / run_s,
        "flow_ticks_per_s": first.flow_ticks / run_s,
        "peak_rss_mb": rss,
        "legit_share": first.legit_share,
    }


def traced(workload: str, seed: int) -> Tuple[Any, Dict[str, float]]:
    """One run under the layer probes; returns it with its layer metrics."""
    import probe as pr
    import workloads as w

    build = w.PACKET_BUILDS.get(workload)
    if build is not None:
        layer = pr.LayerProbe(pr.PACKET_TARGETS)
        outcome = w.run_packet(build, seed, probe=layer)
        return outcome, pr.packet_metrics(layer.as_dict(), outcome)
    if workload == "fluid-internet":
        layer = pr.LayerProbe(pr.FLUID_TARGETS)
        outcome = w.run_fluid(seed, probe=layer)
        return outcome, pr.fluid_metrics([layer.as_dict()])
    from repro.trace import Tracer, merge_trace, use_tracer

    trace_dir = tempfile.mkdtemp(prefix="trace-", dir=WORK)
    probe_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        tracer = Tracer(trace_dir, proc="main")
        try:
            with use_tracer(tracer):
                outcome = w.run_sharded(
                    seed, WORK, task_type=pr.ProbedShardTask, probe_dir=probe_dir
                )
        finally:
            tracer.close()
        metrics = pr.fluid_metrics(pr.load_shard_probes(probe_dir))
        metrics.update(
            pr.span_metrics(merge_trace(trace_dir), w.N_SHARDS, outcome.worker_deaths)
        )
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return outcome, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"perfbench: needs {spec_path} and the repro sources under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    os.makedirs(WORK, exist_ok=True)
    # numpy asks for transparent huge pages for large arrays; whether the
    # host grants them depends on its free memory at the time, and moved
    # peak RSS by 30% between identical runs.  Set before numpy is
    # imported here, and inherited by the fleet's workers.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    adopt_orphans()
    # a SIGTERM still runs the clean-up below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return report(args, spec)
    finally:
        stop_children()
        # every run removes its own files; drop the then-empty directory
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux),
    so :func:`stop_children` can wait for every process a run started."""
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        for task in os.listdir(task_dir):
            with open(os.path.join(task_dir, task, "children"), encoding="ascii") as fh:
                pids.extend(int(pid) for pid in fh.read().split())
    except OSError:
        pass
    return pids


def stop_children(grace_seconds: float = 5.0) -> None:
    """Stop every process the benchmark started, and wait for each.

    The fleet joins its workers itself; what outlives a fleet run is the
    ``multiprocessing`` resource tracker, which would otherwise end after
    this process does, unreaped.  Closing its pipe stops it; whatever
    else is left is sent SIGTERM, then SIGKILL, and reaped.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except (OSError, AttributeError, ChildProcessError):
            pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _children()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_seconds
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            if pids:
                time.sleep(0.01)
        if not pids:
            return


def report(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    print("host " + json.dumps(host_block(), sort_keys=True))
    if args.trace:
        # one plain run, then one traced run that must match its digest
        outcomes, errors, _, _ = measure(args.workload, args.seed, 0.0, 0, 0, 0.0)
        try:
            outcome, metrics = traced(args.workload, args.seed)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            errors.append(f"traced run raised {type(exc).__name__}: {exc}")
            metrics = {}
        else:
            if outcomes:
                metrics["trace_overhead"] = scaled_run_s(outcome) / scaled_run_s(outcomes[0])
            outcomes.append(outcome)
        wanted = spec["per_layer"]
    else:
        outcomes, errors, setups, rss = measure(args.workload, args.seed, args.seconds)
        metrics = end_to_end(outcomes, setups, rss) if outcomes else {}
        wanted = spec["end_to_end"]
        ticks = len(outcomes[0].tick_s) if outcomes else 0
        print(f"runs {len(outcomes)}, each with {ticks} ticks timed, set-ups {len(setups)}")
        for index, o in enumerate(outcomes, 1):
            print(f"run {index}: host run_s {o.run_s:.4f} x scale {o.run_scale:.4f}, "
                  f"host setup_s {o.setup_s:.4f} x scale {o.setup_scale:.4f}")

    pinned = pinned_digest(load_pins(), args.workload, args.seed)
    attempted, failed, reasons = tally(
        outcomes, errors, pinned, serial_reference(args.workload, args.seed)
    )
    for reason in reasons:
        print(f"FAILED {reason}")
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} runs; digest "
          f"{'pinned' if pinned else 'unpinned'} at seed {args.seed})")
    if not outcomes:
        return 1
    result = {}
    for metric in wanted:
        value = float(metrics.get(metric["name"], 0.0))
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
        result[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
