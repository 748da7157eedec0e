"""DFTL translation layer: CMT, charged GC, wear leveling, opt-in identity."""

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.common import (
    ConfigError,
    FlashWalkerConfig,
    FTLConfig,
    ReproError,
    RngRegistry,
    SimulationError,
)
from repro.common.config import FaultConfig, SlowFaultConfig, SSDConfig
from repro.core import FlashWalker
from repro.flash import FTL, SSD, CachedMappingTable
from repro.graph import rmat
from repro.obs.report import config_fingerprint, diff_reports, validate_report
from repro.walks import WalkSet, WalkSpec

ENGINE = dict(
    partition_subgraphs=4, board_hot_subgraphs=1, channel_hot_subgraphs=0
)
SPEC = WalkSpec(length=5)
WALKS = 600


def tiny_ssd_cfg(**kw):
    defaults = dict(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=2,
        blocks_per_plane=4,
        pages_per_block=4,
        max_concurrent_plane_ops_per_chip=2,
    )
    defaults.update(kw)
    return SSDConfig(**defaults)


def dftl_cfg(cfg: FlashWalkerConfig, **ftl_kw) -> FlashWalkerConfig:
    ftl = FTLConfig(enabled=True, **ftl_kw)
    return cfg.replace(ssd=dataclasses.replace(cfg.ssd, ftl=ftl))


@pytest.fixture(scope="module")
def graph():
    return rmat(10, 8, RngRegistry(55).fresh("g"))


def make_engine(graph, cfg=None, seed=9):
    return FlashWalker(graph, cfg or FlashWalkerConfig(**ENGINE), seed=seed)


def result_key(res):
    return (
        res.elapsed,
        res.hops,
        res.flash_read_bytes,
        res.flash_write_bytes,
        res.channel_bytes,
        res.dram_bytes,
        tuple(sorted(res.counters.items())),
    )


def _dftl_report_json(seed: int) -> str:
    """Module-level so a spawned pool worker can run the same point."""
    g = rmat(10, 8, RngRegistry(55).fresh("g"))
    cfg = dftl_cfg(FlashWalkerConfig(**ENGINE))
    res = FlashWalker(g, cfg, seed=seed).run(WALKS, SPEC)
    return json.dumps(res.to_report(), sort_keys=True)


# --------------------------------------------------------------- CMT unit


class TestCachedMappingTable:
    def test_miss_then_hit(self):
        cmt = CachedMappingTable(4, entries_per_tpage=512)
        charge = cmt.probe((7,))
        assert charge.misses == 1 and charge.tpage_reads == [0]
        charge = cmt.probe((7,))
        assert charge.hits == 1 and not charge  # a pure hit charges nothing
        assert cmt.hits == 1 and cmt.misses == 1

    def test_batch_dedupes_translation_page_reads(self):
        cmt = CachedMappingTable(8, entries_per_tpage=512)
        charge = cmt.probe((0, 1, 511, 512))  # three lpns share tpage 0
        assert charge.misses == 4
        assert charge.tpage_reads == [0, 1]

    def test_dirty_eviction_writes_back(self):
        cmt = CachedMappingTable(1, entries_per_tpage=512)
        cmt.probe((0,), write=True)
        charge = cmt.probe((512,))  # evicts dirty lpn 0 -> tpage 0
        assert charge.tpage_writebacks == [0]
        assert cmt.writebacks == 1 and cmt.evictions == 1

    def test_clean_eviction_is_free(self):
        cmt = CachedMappingTable(1, entries_per_tpage=512)
        cmt.probe((0,))
        charge = cmt.probe((512,))
        assert charge.tpage_writebacks == []
        assert cmt.evictions == 1 and cmt.writebacks == 0

    def test_hit_refreshes_lru_order(self):
        cmt = CachedMappingTable(2, entries_per_tpage=512)
        cmt.probe((0,))
        cmt.probe((1,))
        cmt.probe((0,))  # 0 becomes MRU; 1 is now the eviction candidate
        cmt.probe((2,))  # evicts 1
        assert cmt.probe((0,)).hits == 1
        assert cmt.probe((1,)).misses == 1

    def test_capacity_respected(self):
        cmt = CachedMappingTable(3, entries_per_tpage=512)
        for lpn in range(10):
            cmt.probe((lpn,))
        assert cmt.stats()["resident"] == 3
        assert cmt.evictions == 7

    def test_hit_rate(self):
        cmt = CachedMappingTable(4, entries_per_tpage=512)
        cmt.probe((0, 0, 0, 1))
        assert cmt.hit_rate == pytest.approx(2 / 4)

    def test_state_roundtrip(self):
        cmt = CachedMappingTable(4, entries_per_tpage=512)
        cmt.probe((0, 1), write=True)
        cmt.probe((2,))
        clone = CachedMappingTable(4, entries_per_tpage=512)
        clone.restore(cmt.state())
        assert clone.stats() == cmt.stats()
        # Restored dirty bits still drive writebacks identically.
        a = cmt.probe((512, 513, 514, 515))
        b = clone.probe((512, 513, 514, 515))
        assert a.tpage_writebacks == b.tpage_writebacks

    def test_validates_capacity(self):
        with pytest.raises(ConfigError):
            CachedMappingTable(0, entries_per_tpage=512)


# ---------------------------------------------------- GC edge-case regressions


class TestGCReserveRegression:
    """Satellite 1: copy-forward on a near-full plane must not raise."""

    def test_overwrite_on_completely_full_plane(self):
        cfg = tiny_ssd_cfg(ftl=FTLConfig(enabled=True, over_provisioning=0.0))
        ftl = FTL(cfg)
        for lpn in range(16):
            ftl.write(lpn, plane_hint=0)
        assert ftl.free_blocks(0) == 0
        # The emergency GC's survivor moves can only allocate out of the
        # erased victim itself (the reserve path); before the fix this
        # raised device-full mid-move.
        ftl.write(0, plane_hint=0)
        for lpn in range(16):
            ftl.lookup(lpn)

    @pytest.mark.parametrize("mode", ["background", "threshold"])
    def test_sustained_churn_near_capacity(self, mode):
        if mode == "background":
            ftl = FTL(tiny_ssd_cfg(
                ftl=FTLConfig(enabled=True, over_provisioning=0.0)
            ))
        else:
            ftl = FTL(tiny_ssd_cfg(), gc_threshold=1)
        for lpn in range(15):
            ftl.write(lpn, plane_hint=0)
        # Hot overwrites concentrate invalid pages under the write
        # cursor; GC must be able to collect a *full* active block or
        # the plane starves with one page of slack.
        for i in range(400):
            ftl.write((i * 7) % 15, plane_hint=0)
        assert ftl.gc_runs > 0
        for lpn in range(15):
            ftl.lookup(lpn)

    def test_gc_once_reports_survivors(self):
        ftl = FTL(tiny_ssd_cfg(), gc_threshold=1)
        for i in range(10):
            ftl.write(i % 3, plane_hint=0)
        ftl.write(50, plane_hint=0)
        for i in range(6):
            ftl.write(i % 3, plane_hint=0)
        res = ftl.gc_once(0)
        assert res is not None
        assert res["moved"] == len(res["lpns"])
        assert ftl.gc_background_runs == 1

    def test_gc_candidates_orders_worst_first(self):
        cfg = tiny_ssd_cfg(ftl=FTLConfig(enabled=True, over_provisioning=0.0))
        ftl = FTL(cfg)
        for lpn in range(12):  # plane 0 down to one free block
            ftl.write(lpn, plane_hint=0)
        for lpn in range(12, 16):  # plane 1 keeps two free
            ftl.write(lpn, plane_hint=1)
        cands = ftl.gc_candidates(watermark=cfg.blocks_per_plane)
        assert cands.index(0) < cands.index(1)


class TestFTLStateProperty:
    """Satellite 2: mapping bijection + invalid-count consistency under
    a random mix of writes, trims, and bad-block retirements."""

    def check_invariants(self, ftl):
        cfg = ftl.cfg
        # l2p and p2l are inverse bijections.
        assert len(ftl.l2p) == len(ftl.p2l)
        for lpn, ppa in ftl.l2p.items():
            assert ftl.p2l[ppa] == lpn
        pgb = cfg.pages_per_block
        valid = np.zeros((cfg.total_planes, cfg.blocks_per_plane), dtype=int)
        for ppa in ftl.p2l:
            blk = (ppa // pgb) % cfg.blocks_per_plane
            flat = ppa // (pgb * cfg.blocks_per_plane)
            valid[flat, blk] += 1
        for flat in range(cfg.total_planes):
            free = set(ftl._free_list[flat])
            bad = ftl.bad_blocks_on(flat)
            active = int(ftl._active_block[flat])
            for blk in range(cfg.blocks_per_plane):
                v = valid[flat, blk]
                inv = int(ftl._invalid[flat, blk])
                if blk in bad:
                    assert v == 0 and inv == 0
                elif blk in free:
                    assert v == 0 and inv == 0
                elif blk == active:
                    assert v + inv == int(ftl._active_page[flat])
                elif flat in ftl._touched:
                    # A non-active, non-free block on a touched plane
                    # was filled before the cursor left it.
                    assert v + inv in (0, pgb)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_ops_keep_state_consistent(self, seed):
        rng = np.random.default_rng(seed)
        ftl = FTL(tiny_ssd_cfg(
            ftl=FTLConfig(enabled=True, over_provisioning=0.1)
        ))
        n_lpns = 48  # well under exported capacity, over one plane's worth
        retires = 0
        for step in range(600):
            op = rng.integers(100)
            if op < 80:
                ftl.write(int(rng.integers(n_lpns)),
                          plane_hint=int(rng.integers(ftl.cfg.total_planes)))
            elif op < 95:
                ftl.trim(int(rng.integers(n_lpns)))
            elif retires < 3:
                flat = int(rng.integers(ftl.cfg.total_planes))
                if flat in ftl._touched:
                    ftl.retire_active_block(flat)
                    retires += 1
            if step % 50 == 49:
                self.check_invariants(ftl)
        self.check_invariants(ftl)
        assert ftl.gc_runs > 0


# ------------------------------------------------------------ wear accounting


class TestWearStats:
    def test_retired_blocks_separated_from_live_wear(self):
        ftl = FTL(tiny_ssd_cfg(), gc_threshold=1)
        # Churn plane 0 so blocks accumulate erases, then retire one.
        for i in range(200):
            ftl.write(i % 3, plane_hint=0)
        retired = ftl.retire_active_block(0)
        stats = ftl.wear_stats()
        assert stats["retired_blocks"] == 1.0
        ec = ftl._erase_counts[0]
        live = [ec[b] for b in range(ftl.cfg.blocks_per_plane) if b != retired]
        assert stats["max_erase"] == float(max(max(live), 0))
        assert stats["retired_total_erases"] == float(ec[retired])
        # The retired block's history no longer moves the live signal.
        assert stats["total_erases"] == float(ec.sum())

    def test_write_amplification_counts_copy_forwards(self):
        ftl = FTL(tiny_ssd_cfg(), gc_threshold=1)
        for lpn in range(15):
            ftl.write(lpn, plane_hint=0)
        for i in range(200):
            ftl.write((i * 7) % 15, plane_hint=0)
        assert ftl.gc_moved_pages > 0
        stats = ftl.wear_stats()
        assert stats["write_amplification"] > 1.0
        assert stats["write_amplification"] == pytest.approx(
            (ftl.data_pages_written + ftl.gc_moved_pages
             + ftl.bad_block_moved_pages) / ftl.data_pages_written
        )

    def test_wear_leveling_prefers_least_erased_free_block(self):
        ftl = FTL(tiny_ssd_cfg(ftl=FTLConfig(enabled=True)))
        ftl._free_list[0] = [1, 2, 3]
        ftl._erase_counts[0, 1] = 5
        ftl._erase_counts[0, 2] = 1
        ftl._erase_counts[0, 3] = 5
        ftl._active_page[0] = ftl.cfg.pages_per_block  # force an advance
        ftl._touched.add(0)
        ftl._advance_block(0)
        assert int(ftl._active_block[0]) == 2


# ------------------------------------------------- opt-in default invariance


class TestDefaultRunsUntouched:
    def test_no_dftl_attrs_or_report_section(self, graph):
        fw = make_engine(graph)
        assert fw.ssd.dftl is None
        res = fw.run(WALKS, SPEC)
        assert res.ftl is None
        report = res.to_report()
        assert "ftl" not in report
        assert not any(k.startswith("ftl_") for k in res.counters)

    @staticmethod
    def explicit_off():
        cfg = FlashWalkerConfig(**ENGINE)
        return cfg.replace(
            ssd=dataclasses.replace(cfg.ssd, ftl=FTLConfig(enabled=False)),
            faults=FaultConfig(slow=SlowFaultConfig(enabled=False)),
        )

    def test_explicit_off_keeps_default_fingerprint(self):
        cfg = FlashWalkerConfig(**ENGINE)
        assert config_fingerprint(self.explicit_off()) == config_fingerprint(cfg)

    def test_explicit_off_run_matches_default(self, graph):
        base = make_engine(graph).run(WALKS, SPEC)
        off = make_engine(graph, self.explicit_off()).run(WALKS, SPEC)
        assert off.elapsed == base.elapsed
        assert off.counters == base.counters

    def test_enabled_ftl_changes_fingerprint(self):
        cfg = FlashWalkerConfig(**ENGINE)
        assert config_fingerprint(cfg) != config_fingerprint(dftl_cfg(cfg))


# ------------------------------------------------------------- engine + DFTL


class TestDFTLEngine:
    @pytest.fixture(scope="class")
    def runs(self, graph):
        base = make_engine(graph).run(WALKS, SPEC)
        enabled = make_engine(graph, dftl_cfg(FlashWalkerConfig(**ENGINE)))
        res = enabled.run(WALKS, SPEC)
        return base, res, enabled

    def test_report_section_and_validation(self, runs):
        _, res, _ = runs
        assert res.ftl is not None
        report = res.to_report()
        sec = report["ftl"]
        assert sec["enabled"] is True
        assert sec["cmt"]["misses"] > 0
        assert sec["translation"]["page_reads"] > 0
        assert sec["write_amplification"] >= 1.0
        assert validate_report(report) == []

    def test_translation_traffic_slows_and_charges_the_device(
        self, runs, graph
    ):
        base, res, enabled = runs
        assert res.elapsed > base.elapsed
        # Translation-page reads land on the chips' own counters, so
        # the enabled run's NAND sees strictly more reads.
        baseline = make_engine(graph)
        baseline.run(WALKS, SPEC)
        reads = lambda fw: sum(  # noqa: E731
            c.reads for ch in fw.ssd.channels for c in ch.chips
        )
        assert reads(enabled) > reads(baseline)

    def test_telemetry_counters_present(self, runs):
        _, res, _ = runs
        assert res.counters["ftl_cmt_misses"] > 0
        assert res.counters["ftl_translation_page_reads"] > 0

    def test_same_seed_identity(self, graph, runs):
        _, res, _ = runs
        again = make_engine(
            graph, dftl_cfg(FlashWalkerConfig(**ENGINE))
        ).run(WALKS, SPEC)
        a, b = res.to_report(), again.to_report()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert diff_reports(a, b) == {}

    def test_serial_vs_process_pool_identity(self):
        serial = _dftl_report_json(9)
        with ProcessPoolExecutor(max_workers=1) as pool:
            pooled = pool.submit(_dftl_report_json, 9).result()
        assert serial == pooled

    def test_too_small_device_rejected(self, graph):
        # A device too small to hold the graph plus any log region must
        # be rejected at construction, not fail mid-run.
        cfg = dftl_cfg(FlashWalkerConfig(**ENGINE))
        tiny = dataclasses.replace(
            cfg.ssd,
            channels=2, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=1, blocks_per_plane=2, pages_per_block=2,
            max_concurrent_plane_ops_per_chip=1,
        )
        with pytest.raises(ReproError):
            FlashWalker(graph, cfg.replace(ssd=tiny), seed=9)


class TestDFTLCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, graph):
        cfg = dftl_cfg(FlashWalkerConfig(**ENGINE)).replace(
            faults=FaultConfig(
                enabled=True, page_error_rate=0.2, checkpoint_interval=50e-6
            )
        )
        fw = FlashWalker(graph, cfg, seed=9)
        full = fw.run(num_walks=800, spec=SPEC)
        assert full.counters["checkpoints_taken"] >= 1
        cut = fw.sim.events_executed - 5
        crashed = FlashWalker(graph, cfg, seed=9)
        with pytest.raises(SimulationError):
            crashed.run(num_walks=800, spec=SPEC, max_events=cut)
        assert crashed.latest_checkpoint is not None
        resumed = crashed.resume()
        assert result_key(resumed) == result_key(full)
        assert resumed.ftl == full.ftl


    def test_drained_session_restore_matches_uninterrupted(self, graph):
        """A checkpoint taken at rest has no GC pass armed.  The session
        restored from it arms GC at its next injection, as the
        uninterrupted session does, so from the checkpoint on both run
        the same events to the same result."""
        cfg = dftl_cfg(FlashWalkerConfig(**ENGINE))
        draw = RngRegistry(3).fresh("starts")
        first, second = (
            draw.integers(0, graph.num_vertices, 200) for _ in range(2)
        )

        def inject_and_run(fw, t, starts):
            walks = WalkSet.start(starts, SPEC.length)
            fw.sim.at(t, lambda: fw.inject_walks(walks))
            fw.sim.run()

        fw = FlashWalker(graph, cfg, seed=9)
        t0 = fw.start_session(SPEC, expected_walks=400)
        inject_and_run(fw, t0, first)
        assert fw._done and not fw._armed
        fw.checkpoint_now()
        snap = fw.latest_checkpoint
        at_rest = fw.sim.events_executed
        # Off the GC grid, a few passes after the rest point.
        t_next = fw.sim.now + 3.5 * cfg.ssd.ftl.gc_interval
        inject_and_run(fw, t_next, second)
        full = fw._finalize_run()

        restored = FlashWalker(graph, cfg, seed=9)
        restored.restore_for_resume(snap)
        inject_and_run(restored, t_next, second)
        resumed = restored._finalize_run()
        assert restored.sim.events_executed == fw.sim.events_executed - at_rest
        assert result_key(resumed) == result_key(full)
        assert resumed.ftl == full.ftl


# -------------------------------------------------------- housekeeping in SSD


class TestSSDHousekeepingCharges:
    def make_ssd(self):
        ssd = SSD(tiny_ssd_cfg(
            ftl=FTLConfig(enabled=True, cmt_entries=2, over_provisioning=0.0)
        ))
        ssd.dftl.set_log_region(0, ssd.ftl.total_pages)
        return ssd

    def test_translation_miss_costs_device_time(self):
        ssd = self.make_ssd()
        t = ssd.dftl_probe(0.0, 0, (0,))
        assert t > 0.0
        assert ssd.dftl.translation_page_reads == 1
        chip = ssd.chip_flat(0)
        assert chip.reads == 1  # the tpage sense landed on the chip

    def test_hit_is_free(self):
        ssd = self.make_ssd()
        t1 = ssd.dftl_probe(0.0, 0, (0,))
        t2 = ssd.dftl_probe(t1, 0, (0,))
        assert t2 == t1

    def test_gc_collect_charges_chip(self):
        ssd = self.make_ssd()
        for i in range(10):
            lpn = i % 3
            ssd.dftl_probe(0.0, 0, (lpn,), write=True)
            ssd.ftl.write(lpn, plane_hint=0)
        chip = ssd.chip_flat(0)
        erases_before = chip.erases
        end, res = ssd.ftl_gc_collect(1.0, 0)
        assert res is not None
        assert end > 1.0
        assert chip.erases == erases_before + 1
