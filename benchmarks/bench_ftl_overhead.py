"""FTL overhead: what the DFTL translation layer costs a walk campaign.

Runs the same seeded walk workload four ways — FTL disabled (the
default, pre-DFTL code path), DFTL at the default CMT budget, DFTL with
a starved mapping cache, and DFTL with extra over-provisioning — and
records simulated elapsed time, write amplification, and CMT hit rate
for each into the BENCH artifact.  The disabled run is the baseline the
others are normalised against (``slowdown`` in the emitted rows), so
the artifact shows directly how much device time translation misses and
background GC steal from walks, and how the CMT budget and spare-block
headroom move that cost.
"""

import dataclasses

from repro.common.config import FTLConfig, SSDConfig
from repro.core import FlashWalker
from repro.flash import SSD

from conftest import run_once

#: (row label, FTLConfig or None for the disabled baseline).
_VARIANTS = (
    ("disabled", None),
    ("dftl_default", FTLConfig(enabled=True)),
    ("dftl_small_cmt", FTLConfig(enabled=True, cmt_entries=64)),
    ("dftl_high_op", FTLConfig(enabled=True, over_provisioning=0.2)),
)


def test_ftl_overhead(benchmark, ctx):
    g = ctx.graph("TT")
    base_cfg = ctx.flashwalker_config("TT")
    walks = ctx.default_walks("TT")

    def sweep():
        rows = []
        for label, ftl in _VARIANTS:
            cfg = base_cfg
            if ftl is not None:
                cfg = cfg.replace(ssd=dataclasses.replace(cfg.ssd, ftl=ftl))
            res = FlashWalker(g, cfg, seed=3).run(num_walks=walks)
            row = {
                "variant": label,
                "elapsed": res.elapsed,
                "walks": res.total_walks,
            }
            if res.ftl is not None:
                row["write_amplification"] = res.ftl["write_amplification"]
                row["cmt_hit_rate"] = res.ftl["cmt"]["hit_rate"]
                row["gc_runs"] = res.ftl["wear"]["gc_runs"]
            rows.append(row)
        baseline = rows[0]["elapsed"]
        for row in rows:
            row["slowdown"] = row["elapsed"] / baseline
        return rows

    rows = run_once(benchmark, sweep)
    assert rows[0]["variant"] == "disabled"
    # Translation traffic is charged to real device resources, so an
    # enabled run can never be faster than the baseline.
    assert all(r["slowdown"] >= 1.0 for r in rows)
    benchmark.extra_info.update(
        variants=[r["variant"] for r in rows],
        slowdowns={r["variant"]: round(r["slowdown"], 4) for r in rows},
    )


def test_ftl_housekeeping_churn(benchmark):
    """Device-level churn: wrap the log until GC and CMT eviction engage.

    The engine-level sweep above is read-dominated at quick scale, so
    this test drives the housekeeping machinery directly: a circular log
    much larger than the CMT budget is rewritten several times over,
    forcing translation-page reads, dirty writebacks, log-wrap
    invalidations, and hardware-charged GC reclaims — the FTL hot paths.
    """
    cfg = SSDConfig(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=16,
        max_concurrent_plane_ops_per_chip=2,
        ftl=FTLConfig(
            enabled=True, cmt_entries=128, log_region_pages=1024
        ),
    )

    def churn():
        ssd = SSD(cfg)
        ssd.dftl.set_log_region(0, min(1024, ssd.ftl.total_pages))
        n_chips = cfg.total_chips
        t = 0.0
        for k in range(4096):
            lpn = ssd.dftl.next_log_lpn()
            t = ssd.dftl_probe(t, k % n_chips, (lpn,), write=True)
            t = ssd.write_lpn_from_controller(t, lpn)
            if k % 64 == 63:
                for flat in ssd.ftl.gc_candidates()[:2]:
                    t, _ = ssd.ftl_gc_collect(t, flat)
        return ssd

    ssd = run_once(benchmark, churn)
    stats = ssd.dftl.stats(ssd.ftl)
    assert stats["wear"]["gc_runs"] > 0
    assert stats["write_amplification"] > 1.0
    assert stats["cmt"]["writebacks"] > 0
    benchmark.extra_info.update(
        write_amplification=stats["write_amplification"],
        gc_runs=stats["wear"]["gc_runs"],
        gc_moved_pages=stats["wear"]["gc_moved_pages"],
        cmt=stats["cmt"],
        translation=stats["translation"],
    )
