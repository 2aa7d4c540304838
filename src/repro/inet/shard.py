"""Shard-parallel protocol for the fluid simulator.

Partitions the path-identifier space (equivalently: the origin-AS space —
the fluid model keys every per-path quantity by origin AS) into N shards
so one :class:`~repro.inet.simulator.FluidSimulator` per fleet worker can
advance a partition of the flow population in lock-step with its peers.

Three pieces:

* **Partitioner** — :func:`shard_of_path` hashes a path identifier to a
  shard with seeded SHA-256: a total, stable partition (every path id
  lands in exactly one shard, independent of iteration order,
  deterministic per ``(seed, n_shards)``).  :func:`partition_scenario`
  applies it to every AS of a scenario topology.

* **Barrier exchange** — :class:`BarrierExchange` is the on-disk
  per-tick allreduce.  Each shard atomically publishes its per-AS
  partial vectors for a ``(tick, round)`` key, then polls for its peers'
  files; the full vector is rebuilt **by assignment from the owning
  shard** (never addition), which is what keeps sharded runs
  bit-identical to serial.  A peer that never shows up (dead, stalled,
  quarantined) trips :class:`~repro.errors.ShardBarrierTimeout` — a
  *retryable* error, so the fleet's retry policy restarts the straggler
  from its last barrier checkpoint instead of deadlocking or silently
  dropping the shard.  Writes are idempotent (skip-if-exists): a
  salvaged shard deterministically replays the identical bytes, so
  re-publishing is a no-op and peers that already read the old file are
  unaffected.

* **Merge** — :func:`merge_shard_results` reassembles the per-shard
  accumulator matrices into the serial
  :class:`~repro.inet.simulator.FluidResult` through the same
  ``result_from_matrix`` code path serial ``finish_run`` uses.

Epochs: every ``epoch_ticks`` ticks each shard checkpoints (the fleet
task drives ``run_checkpointed`` with that interval) and garbage-collects
its *own* exchange files older than two epochs.  Lock-step bounds peer
skew to one tick, and a salvaged peer resumes from at most one epoch
back, so everything a resurrected shard can still need is retained; the
final epoch's files outlive run completion (collection happens only at
epoch crossings), letting a lagging salvaged shard finish solo against
the retained files of already-finished peers.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, ShardBarrierTimeout
from ..trace import NULL_TRACER, current_tracer
from .scenarios import InternetScenario
from .simulator import FluidResult, result_from_matrix


def shard_of_path(
    path_id: Sequence[int], n_shards: int, seed: int
) -> int:
    """Owning shard of one path identifier.

    Seeded SHA-256 over the path-id tuple: a pure function of
    ``(path_id, n_shards, seed)``, so the assignment is deterministic,
    independent of enumeration order, and stable across processes
    (unlike ``hash()``, which is salted per interpreter).
    """
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    key = f"{seed}:{','.join(str(hop) for hop in path_id)}"
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def partition_scenario(
    scenario: InternetScenario, n_shards: int, seed: int
) -> np.ndarray:
    """Owning shard per AS number, over the whole topology.

    Keyed by each AS's path identifier, so the partition is a statement
    about the path-id space; ASes without flows get owners too (their
    vector entries are zero everywhere — owned zeros assign as zeros).
    """
    topo = scenario.topology
    owners = np.zeros(topo.n_as, dtype=np.int64)
    for asn in range(topo.n_as):
        owners[asn] = shard_of_path(topo.path_of(asn), n_shards, seed)
    return owners


@dataclass(eq=False)
class ShardSpec:
    """One shard's identity within a partition plan."""

    shard: int
    n_shards: int
    shard_of_as: np.ndarray  # int64, owning shard per AS number

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if not 0 <= self.shard < self.n_shards:
            raise ConfigError(
                f"shard index {self.shard} outside [0, {self.n_shards})"
            )
        owners = np.asarray(self.shard_of_as)
        if owners.size and (owners.min() < 0 or owners.max() >= self.n_shards):
            raise ConfigError(
                "shard_of_as names shards outside the partition plan"
            )

    @property
    def owned_mask(self) -> np.ndarray:
        return self.shard_of_as == self.shard


class BarrierExchange:
    """On-disk per-tick allreduce between the shards of one unit.

    One file per ``(tick, round, shard)``, written atomically (tmp +
    ``os.replace``) under a directory obtained from
    ``CheckpointStore.exchange_dir(unit)``.  The clock and sleep are
    injected (defaults reference ``time.monotonic``/``time.sleep``
    without calling them here) so the straggler deadline is testable and
    the simulation packages stay free of wall-clock reads; ``poll_hook``
    (typically a heartbeat pulse or watchdog check) runs once per poll
    iteration and is excluded from pickled state.
    """

    def __init__(
        self,
        directory: str,
        spec: ShardSpec,
        epoch_ticks: int = 50,
        timeout_seconds: float = 120.0,
        poll_seconds: float = 0.005,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if epoch_ticks < 1:
            raise ConfigError(f"epoch_ticks must be >= 1, got {epoch_ticks}")
        if timeout_seconds <= 0:
            raise ConfigError(
                f"timeout_seconds must be > 0, got {timeout_seconds}"
            )
        self.directory = directory
        self.spec = spec
        self.epoch_ticks = epoch_ticks
        self.timeout_seconds = timeout_seconds
        self.poll_seconds = poll_seconds
        self._clock = clock
        self._sleep = sleep
        self.poll_hook: Optional[Callable[[], None]] = None
        # bound at construction (the owning task rebuilds the exchange in
        # prepare() on every (re)start, inside the worker's tracer scope);
        # barrier publish/collect spans are how straggler waits show up
        # on the merged timeline
        self.tracer = current_tracer()
        os.makedirs(directory, exist_ok=True)

    def __getstate__(self) -> Dict[str, Any]:
        # the poll hook is a live supervisor object (heartbeat pulse /
        # watchdog bound method) and the tracer holds an open span sink
        # with wall-clock state; neither may ride through checkpoints —
        # the owning task re-attaches both by rebuilding the exchange
        # after load
        state = dict(self.__dict__)
        state["poll_hook"] = None
        state["tracer"] = NULL_TRACER
        return state

    # -- file layout ---------------------------------------------------
    def _path(self, tick: int, round_key: str, shard: int) -> str:
        return os.path.join(
            self.directory, f"t{tick:08d}-{round_key}.s{shard}.pkl"
        )

    def _publish(self, tick: int, round_key: str, payload: Dict[str, Any]) -> None:
        path = self._path(tick, round_key, self.spec.shard)
        if os.path.exists(path):
            # salvaged replay: the run is deterministic from the loaded
            # checkpoint, so the bytes would be identical — skip
            return
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp = tempfile.mkstemp(prefix=".x-", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _collect(self, tick: int, round_key: str) -> Dict[int, Dict[str, Any]]:
        """Block until every peer's round file exists, then load them."""
        payloads: Dict[int, Dict[str, Any]] = {}
        pending = set(range(self.spec.n_shards)) - {self.spec.shard}
        deadline = self._clock() + self.timeout_seconds
        while pending:
            for shard in sorted(pending):
                path = self._path(tick, round_key, shard)
                try:
                    with open(path, "rb") as handle:
                        payloads[shard] = pickle.loads(handle.read())
                except FileNotFoundError:
                    continue
                pending.discard(shard)
            if not pending:
                break
            if self.poll_hook is not None:
                self.poll_hook()
            if self._clock() >= deadline:
                raise ShardBarrierTimeout(
                    f"shard {self.spec.shard} waited "
                    f"{self.timeout_seconds:.1f}s at tick {tick} round "
                    f"{round_key!r} for shard(s) {sorted(pending)}; peers "
                    "are dead or stalled — retrying from the last barrier "
                    "checkpoint"
                )
            self._sleep(self.poll_seconds)
        return payloads

    def _collect_garbage(self, tick: int) -> None:
        """Drop this shard's own round files older than two epochs.

        Lock-step bounds peer skew to one tick and a salvaged peer
        resumes at most ``epoch_ticks`` back, so nothing below
        ``tick - 2 * epoch_ticks`` can ever be read again.
        """
        floor = tick - 2 * self.epoch_ticks
        if floor <= 0:
            return
        suffix = f".s{self.spec.shard}.pkl"
        for fname in os.listdir(self.directory):
            if not fname.startswith("t") or not fname.endswith(suffix):
                continue
            try:
                file_tick = int(fname[1:9])
            except ValueError:
                continue
            if file_tick < floor:
                try:
                    os.unlink(os.path.join(self.directory, fname))
                except OSError:
                    pass

    # -- the allreduce itself -------------------------------------------
    def allreduce(
        self,
        tick: int,
        round_key: str,
        vectors: Dict[str, np.ndarray],
        counts: Dict[str, int],
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        """Publish local partials, await peers, rebuild global values.

        Vectors are reassembled column-by-column from the owning shard
        (assignment, never addition — bit-identical to serial).  Counts
        must be integers: they are summed across shards, which is exact
        in any order.
        """
        # barrier spans parent under the open tick-phase scope (the
        # shard's ``ticks`` span) and their time stays out of its laps
        with self.tracer.scope_span(
            "barrier.publish", cat="barrier",
            tick=tick, round=round_key, shard=self.spec.shard,
        ):
            self._publish(
                tick, round_key, {"vectors": vectors, "counts": counts}
            )
        if round_key == "load" and tick % self.epoch_ticks == 0:
            self._collect_garbage(tick)
        # the collect span *is* the barrier wait: its duration is how
        # long this shard idled for its slowest peer this round
        with self.tracer.scope_span(
            "barrier.collect", cat="barrier",
            tick=tick, round=round_key, shard=self.spec.shard,
        ):
            peers = self._collect(tick, round_key)

        spec = self.spec
        full_vectors: Dict[str, np.ndarray] = {}
        for name, mine in vectors.items():
            full = np.zeros_like(mine)
            for shard in range(spec.n_shards):
                part = (
                    mine if shard == spec.shard
                    else peers[shard]["vectors"][name]
                )
                mask = spec.shard_of_as == shard
                full[mask] = part[mask]
            full_vectors[name] = full
        full_counts: Dict[str, int] = {}
        for name, value in counts.items():
            total = int(value)
            for shard in sorted(peers):
                total += int(peers[shard]["counts"][name])
            full_counts[name] = total
        return full_vectors, full_counts


@dataclass
class ShardResult:
    """One shard's contribution to a unit's merged :class:`FluidResult`.

    ``acc_by_as_cat`` has shape ``(3, n_as)`` with only the owned
    columns populated; everything else is replicated global state, kept
    per shard so the merge can cross-check consistency.
    """

    unit: str
    shard: int
    n_shards: int
    strategy: str
    s_max: Optional[int]
    n_groups: int
    measured_ticks: int
    target_capacity: float
    n_flows_by_cat: Dict[str, int]
    owned_mask: np.ndarray
    acc_by_as_cat: np.ndarray
    series: List[Tuple[int, float, float, float]]


def shard_result(sim: Any, unit: str) -> ShardResult:
    """Snapshot a completed shard-mode simulator into its merge piece."""
    spec = sim._shard
    if spec is None:
        raise ConfigError("shard_result() on a non-sharded simulator")
    if sim.telemetry.enabled:
        sim.telemetry.scrape_fluid(sim)
    return ShardResult(
        unit=unit,
        shard=spec.shard,
        n_shards=spec.n_shards,
        strategy=sim.strategy,
        s_max=sim.s_max,
        n_groups=sim.n_groups,
        measured_ticks=sim._measured_ticks,
        target_capacity=sim.scn.target_capacity,
        n_flows_by_cat=dict(sim._n_flows_by_cat),
        owned_mask=spec.owned_mask,
        acc_by_as_cat=sim.acc_matrix(),
        series=list(sim._series),
    )


def merge_shard_results(pieces: Sequence[ShardResult]) -> FluidResult:
    """Deterministic canonical-order merge of a unit's shard results.

    Validates the set is complete and mutually consistent, reassembles
    the full accumulator matrix by assignment from each owning shard,
    and builds the result through the same ``result_from_matrix`` code
    path serial ``finish_run`` uses — so merged output is byte-identical
    to a serial run of the same unit.
    """
    if not pieces:
        raise ConfigError("merge_shard_results() needs at least one piece")
    ordered = sorted(pieces, key=lambda piece: piece.shard)
    first = ordered[0]
    seen = set()
    for piece in ordered:
        if piece.unit != first.unit:
            raise ConfigError(
                f"shard results from different units: {piece.unit!r} "
                f"vs {first.unit!r}"
            )
        if piece.n_shards != first.n_shards:
            raise ConfigError(
                f"{piece.unit}: inconsistent shard counts "
                f"({piece.n_shards} vs {first.n_shards})"
            )
        if piece.shard in seen:
            raise ConfigError(
                f"{piece.unit}: duplicate result for shard {piece.shard}"
            )
        if piece.measured_ticks != first.measured_ticks:
            raise ConfigError(
                f"{piece.unit}: shard {piece.shard} measured "
                f"{piece.measured_ticks} ticks, shard {first.shard} "
                f"measured {first.measured_ticks} — shards desynchronized"
            )
        if piece.n_groups != first.n_groups:
            raise ConfigError(
                f"{piece.unit}: shard {piece.shard} ended with "
                f"{piece.n_groups} groups, shard {first.shard} with "
                f"{first.n_groups} — replicated plans diverged"
            )
        seen.add(piece.shard)
    missing = set(range(first.n_shards)) - seen
    if missing:
        raise ConfigError(
            f"{first.unit}: missing shard result(s) {sorted(missing)} of "
            f"{first.n_shards}; refusing to merge a partial run"
        )
    matrix = np.zeros_like(first.acc_by_as_cat)
    for piece in ordered:
        matrix[:, piece.owned_mask] = piece.acc_by_as_cat[:, piece.owned_mask]
    return result_from_matrix(
        strategy=first.strategy,
        s_max=first.s_max,
        n_groups=first.n_groups,
        matrix=matrix,
        measured_ticks=first.measured_ticks,
        target_capacity=first.target_capacity,
        n_flows_by_cat=first.n_flows_by_cat,
        series=first.series,
    )


__all__ = [
    "BarrierExchange",
    "ShardResult",
    "ShardSpec",
    "merge_shard_results",
    "partition_scenario",
    "shard_of_path",
    "shard_result",
]
