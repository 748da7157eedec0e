"""Kill-and-restart crash harness.

Runs one workload uninterrupted to get a reference report, then crashes
fresh engines at seeded points spread over the run and recovers each,
asserting the recovered run's report matches the reference *everywhere
outside the documented* ``durability`` *section*.  A crash before the
first checkpoint exercises the cold-restart path (re-run from scratch)
instead.

Not imported by :mod:`repro.durability`'s package ``__init__`` — the
harness pulls in the engine and report machinery, which the journal and
integrity primitives must not depend on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ..common.config import (
    DurabilityConfig,
    FaultConfig,
    FlashWalkerConfig,
    FTLConfig,
    SSDConfig,
)
from ..common.errors import PowerLossError
from ..common.rng import RngRegistry, derive_seed
from ..obs.report import diff_reports
from ..walks.spec import WalkSpec

__all__ = [
    "CampaignResult",
    "CrashPointOutcome",
    "gc_pressure_ssd",
    "run_crash_campaign",
    "standard_campaigns",
    "strip_durability",
]


def strip_durability(report: dict) -> dict:
    """The report minus its ``durability`` section — the identity domain."""
    return {k: v for k, v in report.items() if k != "durability"}


def _canonical(report: dict) -> str:
    return json.dumps(strip_durability(report), sort_keys=True)


@dataclass
class CrashPointOutcome:
    """What happened at one scheduled crash point."""

    index: int
    t_crash: float
    #: ``recovered`` (checkpoint + replay), ``cold_restart`` (crash
    #: before the first checkpoint; re-run from scratch), or
    #: ``no_crash`` (the point landed past the end of the run).
    mode: str
    identical: bool
    #: Non-durability report fields that differ from the baseline
    #: (must be empty for the campaign to pass).
    diff: dict = field(default_factory=dict)
    #: The recovery's RPO/RTO accounting (``recovered`` mode only).
    recovery: dict | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "t_crash": self.t_crash,
            "mode": self.mode,
            "identical": self.identical,
            "diff": self.diff,
            "recovery": self.recovery,
        }


@dataclass
class CampaignResult:
    """One configuration's crash campaign: baseline + every crash point."""

    name: str
    baseline_report: dict
    points: list[CrashPointOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(p.identical for p in self.points)

    def summary(self) -> dict:
        modes: dict[str, int] = {}
        for p in self.points:
            modes[p.mode] = modes.get(p.mode, 0) + 1
        rpo = [p.recovery["rpo_walks"] for p in self.points if p.recovery]
        rto = [p.recovery["rto_time"] for p in self.points if p.recovery]
        return {
            "name": self.name,
            "points": len(self.points),
            "modes": modes,
            "identical": sum(1 for p in self.points if p.identical),
            "ok": self.ok,
            "rpo_walks_max": max(rpo) if rpo else 0,
            "rpo_walks_mean": float(np.mean(rpo)) if rpo else 0.0,
            "rto_time_max": max(rto) if rto else 0.0,
            "rto_time_mean": float(np.mean(rto)) if rto else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "points": [p.to_dict() for p in self.points],
        }


def run_crash_campaign(
    make_engine,
    run_workload,
    *,
    crash_points: int = 7,
    seed: int = 0,
    name: str = "default",
    frac_lo: float = 0.05,
    frac_hi: float = 0.95,
) -> CampaignResult:
    """Crash ``crash_points`` fresh engines at seeded times and recover each.

    ``make_engine()`` builds a fresh :class:`FlashWalker` (durability
    enabled); ``run_workload(fw)`` drives it to completion and returns
    its :class:`~repro.core.metrics.RunResult`.  Crash times are drawn
    uniformly over ``[frac_lo, frac_hi]`` of the uninterrupted run's
    elapsed time from a generator derived from ``seed`` and ``name``,
    so campaigns are reproducible point-for-point.
    """
    baseline = run_workload(make_engine())
    baseline_report = baseline.to_report()
    canon = _canonical(baseline_report)
    rng = np.random.default_rng(derive_seed(seed, f"crash-campaign:{name}"))
    times = np.sort(
        rng.uniform(frac_lo * baseline.elapsed, frac_hi * baseline.elapsed,
                    size=crash_points)
    )
    out = CampaignResult(name=name, baseline_report=baseline_report)
    for i, t_crash in enumerate(times.tolist()):
        fw = make_engine()
        fw.schedule_power_loss(t_crash)
        try:
            result = run_workload(fw)
            mode, recovery = "no_crash", None
        except PowerLossError:
            if fw.latest_checkpoint is None:
                # Crashed before anything was durable: cold restart.
                result = run_workload(make_engine())
                mode, recovery = "cold_restart", None
            else:
                result = fw.recover()
                mode = "recovered"
                recovery = (result.durability or {}).get("recovery")
        report = result.to_report()
        identical = _canonical(report) == canon
        out.points.append(
            CrashPointOutcome(
                index=i,
                t_crash=float(t_crash),
                mode=mode,
                identical=identical,
                diff={} if identical else diff_reports(
                    strip_durability(baseline_report), strip_durability(report)
                ),
                recovery=recovery,
            )
        )
    return out


# --------------------------------------------------------- standard configs


def _dur(journal: float, corruption: float, scrub: float) -> DurabilityConfig:
    return DurabilityConfig(
        enabled=True,
        journal_interval=journal,
        silent_corruption_rate=corruption,
        scrub_interval=scrub,
        checkpoint_keep_last=3,
    )


def gc_pressure_ssd(ssd: SSDConfig) -> SSDConfig:
    """``ssd`` shrunk to 8 chips of two 4-block planes, with DFTL on and
    an 8-page log region: small enough that background GC reclaims
    blocks, moving valid pages, within the first tenth of a quick
    campaign run."""
    return replace(
        ssd,
        channels=4,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        max_concurrent_plane_ops_per_chip=2,
        blocks_per_plane=4,
        pages_per_block=2,
        ftl=FTLConfig(
            enabled=True,
            log_region_pages=8,
            gc_low_water_blocks=3,
            gc_interval=50e-6,
        ),
    )


def standard_campaigns(*, quick: bool = False) -> list[dict]:
    """The harness's built-in configurations (CLI ``--configs`` pool).

    Each entry carries a ``name``, a ``make_engine`` factory and a
    ``run_workload`` driver.  The pool spans the durability feature
    matrix: journal-only, journal + silent corruption + scrubbing,
    checkpoint-only recovery (no journal) under read faults, and
    journal + corruption + scrubbing over the DFTL with background GC.
    The DFTL configuration runs on :func:`gc_pressure_ssd`, so its
    crash points recover across block reclaims.
    """
    from ..core.flashwalker import FlashWalker
    from ..graph.generators import rmat

    scale = 10 if quick else 11
    walks = 600 if quick else 1200

    def make(name: str, dcfg: DurabilityConfig, fcfg: FaultConfig,
             dftl: bool = False):
        def make_engine():
            g = rmat(scale, 8, RngRegistry(55).fresh("g"))
            cfg = FlashWalkerConfig(
                partition_subgraphs=4,
                board_hot_subgraphs=1,
                channel_hot_subgraphs=0,
                durability=dcfg,
                faults=fcfg,
            )
            if dftl:
                cfg = cfg.replace(ssd=gc_pressure_ssd(cfg.ssd))
            return FlashWalker(g, cfg, seed=9)

        def run_workload(fw):
            return fw.run(walks, WalkSpec(length=5))

        return {"name": name, "make_engine": make_engine,
                "run_workload": run_workload}

    ck = FaultConfig(checkpoint_interval=50e-6)
    return [
        make("journal", _dur(25e-6, 0.0, 0.0), ck),
        make("journal+scrub", _dur(25e-6, 1500.0, 100e-6), ck),
        make(
            "checkpoint-only+faults",
            _dur(0.0, 0.0, 0.0),
            FaultConfig(
                enabled=True, page_error_rate=0.05, checkpoint_interval=50e-6
            ),
        ),
        make("journal+scrub+dftl", _dur(25e-6, 1500.0, 100e-6), ck, dftl=True),
    ]
