"""Deterministic merge of per-process span files into one timeline.

Each process wrote its own ``spans-<proc>.jsonl`` independently, flushed
per record, and may have died mid-line.  The merge therefore has two
jobs: *salvage* (tolerate torn trailing lines and begin-records whose
end never arrived) and *canonicalization* (produce the same merged
timeline no matter in which order the files landed on disk or in which
order the OS interleaved the writers).

Canonical order is by ``(start, proc, seq)`` where ``seq`` is the
per-process span counter baked into every span id (``"w3:17"``), so the
merge is a pure function of file *contents* — re-running it over the
same directory, or over the same files copied in any order, yields an
identical span list.  This is the same canonical-order discipline the
fleet uses for telemetry registries (:mod:`repro.fleet.merge`), applied
to wall-clock spans.

Salvage rules:

* an unparseable line (torn by SIGKILL mid-write) is dropped and
  counted, never fatal;
* a ``B`` record with no matching ``E`` becomes a span *truncated* at
  the last timestamp its process was seen alive, flagged
  ``truncated=True`` so reports can call the process out;
* an ``E`` with no matching ``B`` (its begin was the torn line) is
  dropped and counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigError

__all__ = ["MergedTrace", "Span", "TraceEventRecord", "merge_trace"]


@dataclass
class Span:
    """One closed (or truncated) span on the merged timeline."""

    span_id: str
    parent: Optional[str]
    name: str
    cat: str
    proc: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)
    truncated: bool = False

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def seq(self) -> int:
        try:
            return int(self.span_id.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            return 0


@dataclass
class TraceEventRecord:
    """One instant event on the merged timeline."""

    span_id: str
    parent: Optional[str]
    name: str
    cat: str
    proc: str
    ts: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class MergedTrace:
    """The canonical merged timeline plus salvage accounting."""

    trace_id: str
    spans: List[Span] = field(default_factory=list)
    events: List[TraceEventRecord] = field(default_factory=list)
    #: proc label -> trace epoch it reported in its metadata record
    procs: Dict[str, float] = field(default_factory=dict)
    torn_lines: int = 0
    truncated_spans: int = 0
    orphan_ends: int = 0

    @property
    def duration(self) -> float:
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    def by_id(self) -> Dict[str, Span]:
        return {s.span_id: s for s in self.spans}

    def children(self) -> Dict[Optional[str], List[Span]]:
        out: Dict[Optional[str], List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.parent, []).append(span)
        return out

    def roots(self) -> List[Span]:
        """Spans whose parent is absent from the merged timeline."""
        ids = {s.span_id for s in self.spans}
        return [s for s in self.spans if s.parent is None or s.parent not in ids]


def _parse_lines(path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """All parseable JSON records in ``path``, plus the torn-line count."""
    records: List[Dict[str, Any]] = []
    torn = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                torn += 1
                continue
            if isinstance(record, dict) and "ph" in record:
                records.append(record)
            else:
                torn += 1
    return records, torn


def _merge_file(merged: MergedTrace, path: Path) -> None:
    records, torn = _parse_lines(path)
    merged.torn_lines += torn
    open_spans: Dict[str, Dict[str, Any]] = {}
    last_ts = 0.0
    proc = path.stem.replace("spans-", "", 1)
    for record in records:
        ph = record.get("ph")
        ts = float(record.get("ts", 0.0))
        last_ts = max(last_ts, ts)
        if ph == "M":
            proc = str(record.get("proc", proc))
            merged.procs[proc] = float(record.get("epoch", 0.0))
            if not merged.trace_id:
                merged.trace_id = str(record.get("trace", ""))
            continue
        span_id = str(record.get("span", ""))
        if ph == "B":
            open_spans[span_id] = record
        elif ph == "E":
            begin = open_spans.pop(span_id, None)
            if begin is None:
                merged.orphan_ends += 1
                continue
            args = dict(begin.get("args") or {})
            args.update(record.get("args") or {})
            merged.spans.append(
                Span(
                    span_id=span_id,
                    parent=begin.get("parent"),
                    name=str(begin.get("name", "")),
                    cat=str(begin.get("cat", "run")),
                    proc=str(begin.get("proc", proc)),
                    start=float(begin.get("ts", 0.0)),
                    end=ts,
                    args=args,
                )
            )
        elif ph == "i":
            merged.events.append(
                TraceEventRecord(
                    span_id=span_id,
                    parent=record.get("parent"),
                    name=str(record.get("name", "")),
                    cat=str(record.get("cat", "run")),
                    proc=str(record.get("proc", proc)),
                    ts=ts,
                    args=dict(record.get("args") or {}),
                )
            )
    # begin-records whose process died before writing the end: close them
    # at the last instant the process was provably alive
    for span_id, begin in open_spans.items():
        merged.truncated_spans += 1
        merged.spans.append(
            Span(
                span_id=span_id,
                parent=begin.get("parent"),
                name=str(begin.get("name", "")),
                cat=str(begin.get("cat", "run")),
                proc=str(begin.get("proc", proc)),
                start=float(begin.get("ts", 0.0)),
                end=max(last_ts, float(begin.get("ts", 0.0))),
                args=dict(begin.get("args") or {}),
                truncated=True,
            )
        )


def merge_trace(trace_dir: str) -> MergedTrace:
    """Merge every ``spans-*.jsonl`` under ``trace_dir`` canonically.

    Raises :class:`~repro.errors.ConfigError` when the directory does
    not exist or holds no span files at all — callers turn that into the
    CLI's documented "no trace data" exit.
    """
    directory = Path(trace_dir)
    if not directory.is_dir():
        raise ConfigError(f"trace directory not found: {directory}")
    paths = sorted(directory.glob("spans-*.jsonl"))
    if not paths:
        raise ConfigError(f"no span files (spans-*.jsonl) in {directory}")
    merged = MergedTrace(trace_id="")
    for path in paths:
        _merge_file(merged, path)
    # canonical order: a pure function of record contents, independent of
    # file arrival order and writer interleaving
    merged.spans.sort(key=lambda s: (s.start, s.proc, s.seq))
    merged.events.sort(key=lambda e: (e.ts, e.proc, e.span_id))
    return merged
