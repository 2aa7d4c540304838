"""The chaos sweep: sample N campaigns, run each as a supervised unit.

:func:`repro.fleet.chaos_tasks` samples the sweep into one task per
campaign, run like every other task list by :func:`repro.fleet.run_tasks`
(in-process or on the fleet); each task's body is
:func:`run_sweep_campaign`.  A crash inside campaign 7 is retried per the
retry policy and, failing that, recorded as a failed unit without taking
down campaigns 8..N; with a checkpoint store a killed sweep resumes past
every completed campaign.  Unit results are plain dicts of primitives,
so they ride through the pickle checkpoints unchanged.

On an SLO violation the unit delta-debugs the campaign down to a minimal
reproducer (:mod:`repro.chaos.shrink`) and writes a replay artifact
(:mod:`repro.chaos.artifact`) into the sweep's artifact directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..runner.supervisor import JobReport, UnitContext
from ..trace import current_tracer
from .artifact import write_artifact
from .campaign import run_campaign
from .shrink import shrink_campaign
from .spec import SIMULATORS, CampaignSpec, SloSpec


@dataclass
class ChaosOptions:
    """Everything one ``repro chaos`` sweep is parameterized by."""

    seed: int = 0
    campaigns: int = 3
    simulator: str = "both"  # "packet" | "fluid" | "both"
    include_silent: bool = False
    slo: Optional[SloSpec] = None  # None = per-simulator default catalog
    shrink: bool = True
    max_shrink_trials: int = 64
    artifact_dir: Optional[str] = "chaos-artifacts"
    #: Extra state-exhaustion campaigns (path-churn flood vs a bounded
    #: memory budget) appended after the sampled ones; 0 = none.
    exhaustion: int = 0
    #: Router state backend for the exhaustion campaigns.
    state_backend: str = "sketch"
    #: Hard per-router path budget for the exhaustion campaigns; None
    #: leaves the backend's default hot-tier size in charge.
    max_tracked_paths: Optional[int] = None

    def validate(self) -> None:
        if self.campaigns < 1:
            raise ConfigError(
                f"campaigns must be >= 1, got {self.campaigns}"
            )
        if self.exhaustion < 0:
            raise ConfigError(
                f"exhaustion must be >= 0, got {self.exhaustion}"
            )
        if self.simulator not in SIMULATORS + ("both",):
            raise ConfigError(
                f"simulator must be one of {SIMULATORS + ('both',)}, got "
                f"{self.simulator!r}"
            )
        if self.max_shrink_trials < 1:
            raise ConfigError(
                f"max_shrink_trials must be >= 1, got "
                f"{self.max_shrink_trials}"
            )


def run_sweep_campaign(
    spec: CampaignSpec,
    ctx: UnitContext,
    shrink: bool = True,
    max_shrink_trials: int = 64,
    artifact_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One campaign of a sweep, as the body of a supervised unit.

    Returns a dict of primitives: the spec, the run digest, per-SLO
    verdict rows, and — when the campaign violated an SLO and shrinking
    is on — the shrink summary and the written artifact path.
    """
    tracer = current_tracer()
    with tracer.span(
        "campaign.run", cat="campaign",
        parent=ctx.trace_parent, simulator=spec.simulator,
    ) as span, tracer.phases(span):
        result = run_campaign(spec)
        span.end(ok=result.ok)
    out: Dict[str, Any] = {
        "spec": spec.to_dict(),
        "simulator": spec.simulator,
        "ok": result.ok,
        "digest": result.digest,
        "verdicts": result.report.rows(),
        "provenance": dict(result.measurements.drop_provenance),
        "artifact": None,
        "shrink": None,
    }
    violated = result.report.violated()
    if violated is None or not shrink:
        return out
    with tracer.span(
        "campaign.shrink", cat="campaign",
        parent=ctx.trace_parent, slo=violated.slo,
    ) as span, tracer.phases(span):
        shrunk = shrink_campaign(
            spec,
            violated.slo,
            max_trials=max_shrink_trials,
        )
        span.end(trials=shrunk.trials)
    out["shrink"] = {
        "slo": shrunk.slo,
        "trials": shrunk.trials,
        "steps": list(shrunk.steps),
        "minimal_spec": shrunk.minimal.to_dict(),
        "minimal_digest": shrunk.final.digest,
    }
    if artifact_dir is not None:
        path = write_artifact(
            shrunk,
            Path(artifact_dir) / f"reproducer-{ctx.name}.json",
        )
        out["artifact"] = str(path)
        tracer.event(
            "artifact.write", cat="campaign",
            parent=ctx.trace_parent, path=str(path),
        )
    return out


@dataclass
class ChaosReport:
    """Outcome of one sweep: the job report plus SLO tallies."""

    job: JobReport

    @property
    def campaigns(self) -> List[Dict[str, Any]]:
        """Completed campaign results, in sweep order."""
        return [
            self.job.results[name] for name in sorted(self.job.results)
        ]

    @property
    def violations(self) -> List[Dict[str, Any]]:
        return [c for c in self.campaigns if not c["ok"]]

    @property
    def artifacts(self) -> List[str]:
        return [
            c["artifact"] for c in self.campaigns if c["artifact"] is not None
        ]

    @property
    def status(self) -> str:
        """Sweep status: the job status, except a clean job with SLO
        violations reports ``"violations"``."""
        if self.job.status == "ok" and self.violations:
            return "violations"
        return self.job.status


def sweep_fingerprint(options: ChaosOptions) -> Dict[str, Any]:
    """The checkpoint-store job fingerprint of one sweep."""
    fingerprint: Dict[str, Any] = {
        "kind": "chaos-sweep",
        "seed": options.seed,
        "campaigns": options.campaigns,
        "simulator": options.simulator,
        "include_silent": options.include_silent,
    }
    if options.exhaustion:
        # keyed in only when requested so pre-existing sweep checkpoints
        # keep their fingerprints
        fingerprint["exhaustion"] = options.exhaustion
        fingerprint["state_backend"] = options.state_backend
        fingerprint["max_tracked_paths"] = options.max_tracked_paths
    return fingerprint
