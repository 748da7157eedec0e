"""Tests for the FTL: mapping, allocation, GC, wear, placement."""

import tracemalloc

import numpy as np
import pytest

from repro.common import FlashAddressError, FlashError, FTLConfig, SSDConfig
from repro.flash import FTL, FlashAddress


def tiny_cfg(**kw):
    """A small geometry so GC paths are exercised quickly."""
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


class TestFlashAddress:
    def test_round_trip(self):
        cfg = SSDConfig()
        addr = FlashAddress(channel=3, chip=1, die=1, plane=2, block=100, page=7)
        assert FlashAddress.decode(addr.encode(cfg), cfg) == addr

    def test_round_trip_exhaustive_small(self):
        cfg = tiny_cfg()
        for channel in range(2):
            for chip in range(2):
                for plane in range(2):
                    for block in range(4):
                        for page in range(4):
                            a = FlashAddress(channel, chip, 0, plane, block, page)
                            assert FlashAddress.decode(a.encode(cfg), cfg) == a

    def test_decode_rejects_negative(self):
        with pytest.raises(FlashAddressError):
            FlashAddress.decode(-1, SSDConfig())

    def test_decode_rejects_beyond_capacity(self):
        cfg = tiny_cfg()
        total = cfg.total_planes * cfg.blocks_per_plane * cfg.pages_per_block
        with pytest.raises(FlashAddressError):
            FlashAddress.decode(total * 2, cfg)


class TestMapping:
    def test_write_then_lookup(self):
        ftl = FTL(tiny_cfg())
        addr = ftl.write(5)
        assert ftl.lookup(5) == addr
        assert ftl.is_mapped(5)

    def test_lookup_unmapped(self):
        ftl = FTL(tiny_cfg())
        with pytest.raises(FlashAddressError):
            ftl.lookup(5)

    def test_out_of_place_update(self):
        ftl = FTL(tiny_cfg())
        a1 = ftl.write(5)
        a2 = ftl.write(5)
        assert a1 != a2
        assert ftl.lookup(5) == a2

    def test_trim(self):
        ftl = FTL(tiny_cfg())
        ftl.write(5)
        ftl.trim(5)
        assert not ftl.is_mapped(5)
        ftl.trim(5)  # idempotent

    def test_lpn_bounds(self):
        ftl = FTL(tiny_cfg())
        with pytest.raises(FlashAddressError):
            ftl.write(-1)
        with pytest.raises(FlashAddressError):
            ftl.write(ftl.total_pages)

    def test_plane_hint_respected(self):
        cfg = tiny_cfg()
        ftl = FTL(cfg)
        addr = ftl.write(0, plane_hint=3)
        assert ftl.flat_plane(addr.channel, addr.chip, addr.die, addr.plane) == 3

    def test_bad_plane_hint(self):
        ftl = FTL(tiny_cfg())
        with pytest.raises(FlashAddressError):
            ftl.write(0, plane_hint=10_000)

    def test_round_robin_without_hint(self):
        ftl = FTL(tiny_cfg())
        a = ftl.write(0)
        b = ftl.write(1)
        fa = ftl.flat_plane(a.channel, a.chip, a.die, a.plane)
        fb = ftl.flat_plane(b.channel, b.chip, b.die, b.plane)
        assert fb == (fa + 1) % ftl.cfg.total_planes


class TestGarbageCollection:
    def test_gc_reclaims_invalidated_pages(self):
        cfg = tiny_cfg()
        ftl = FTL(cfg, gc_threshold=1)
        # Hammer one plane with overwrites of the same few LPNs: most
        # pages become invalid, so GC keeps the plane usable far beyond
        # its raw capacity.
        for i in range(cfg.blocks_per_plane * cfg.pages_per_block * 4):
            ftl.write(i % 3, plane_hint=0)
        assert ftl.gc_runs > 0
        stats = ftl.wear_stats()
        assert stats["total_erases"] > 0
        # All three logical pages still resolve.
        for lpn in range(3):
            ftl.lookup(lpn)

    def test_gc_moves_valid_pages(self):
        cfg = tiny_cfg()
        ftl = FTL(cfg, gc_threshold=1)
        # Interleave cold singletons with hot overwrites so every block
        # holds a mix of valid and invalid pages when GC picks a victim.
        cold = 100
        for i in range(cfg.blocks_per_plane * cfg.pages_per_block * 3):
            if i % 4 == 0:
                ftl.write(cold, plane_hint=0)
                cold = 100 + (cold - 99) % 4  # rotate 4 cold lpns
            else:
                ftl.write(i % 2, plane_hint=0)
        assert ftl.gc_runs > 0
        assert ftl.gc_moved_pages > 0
        for lpn in (100, 101, 102, 103):
            if ftl.is_mapped(lpn):
                ftl.lookup(lpn)

    def test_device_full_without_invalid_pages(self):
        cfg = tiny_cfg()
        ftl = FTL(cfg, gc_threshold=1)
        capacity = cfg.blocks_per_plane * cfg.pages_per_block
        with pytest.raises(FlashError):
            for lpn in range(capacity + 1):
                ftl.write(lpn, plane_hint=0)

    def test_gc_threshold_validation(self):
        with pytest.raises(FlashError):
            FTL(tiny_cfg(), gc_threshold=0)


class TestPlacement:
    def test_place_striped_one_unit_per_chip(self):
        cfg = SSDConfig()
        ftl = FTL(cfg)
        placement = ftl.place_striped(256, 2)
        assert placement.shape == (256, 2)
        # First 128 units land on 128 distinct chips.
        flat = placement[:128, 0] * cfg.chips_per_channel + placement[:128, 1]
        assert len(set(flat.tolist())) == 128
        # Unit 128 wraps to chip 0.
        assert tuple(placement[128]) == tuple(placement[0])

    def test_place_striped_maps_all_pages(self):
        ftl = FTL(SSDConfig())
        ftl.place_striped(10, 3)
        for lpn in range(30):
            assert ftl.is_mapped(lpn)

    def test_unit_stays_inside_chip(self):
        cfg = SSDConfig()
        ftl = FTL(cfg)
        ftl.place_striped(4, cfg.planes_per_chip + 2)
        # all pages of unit 0 are on chip (0, 0)
        for lpn in range(cfg.planes_per_chip + 2):
            addr = ftl.lookup(lpn)
            assert (addr.channel, addr.chip) == (0, 0)

    def test_rejects_bad_request(self):
        ftl = FTL(tiny_cfg())
        with pytest.raises(FlashError):
            ftl.place_striped(-1, 1)
        with pytest.raises(FlashError):
            ftl.place_striped(1, 0)


class TestLazyFreeLists:
    def test_pristine_device_builds_no_lists(self):
        ftl = FTL(SSDConfig())  # paper geometry: 1024 planes x 2048 blocks
        assert not ftl._free_list._lists

    def test_first_access_yields_the_pristine_list(self):
        cfg = tiny_cfg()
        ftl = FTL(cfg)
        free = ftl._free_list[3]
        assert free == list(range(1, cfg.blocks_per_plane))
        assert ftl._free_list[3] is free
        assert ftl._free_list[-1] is ftl._free_list[cfg.total_planes - 1]
        ftl._free_list[0] = [2]
        assert ftl._free_list[0] == [2]
        with pytest.raises(IndexError):
            ftl._free_list[cfg.total_planes]

    def test_allocation_order_and_touched_planes(self):
        cfg = tiny_cfg()
        ftl = FTL(cfg)
        blocks = [
            ftl.write(lpn, plane_hint=0).block
            for lpn in range(cfg.pages_per_block * 3)
        ]
        # Block 0 first, then the free list in order.
        assert blocks == [b for b in range(3) for _ in range(cfg.pages_per_block)]
        assert set(ftl._free_list._lists) == {0}

    def test_counts_and_gc_scans_build_no_list(self):
        # Default geometry: 1024 planes x 2048 blocks of 64 pages.
        ftl = FTL(SSDConfig(ftl=FTLConfig(enabled=True)))
        ftl.place_striped(512, 4)
        assert len(ftl._touched) > 200
        assert ftl.gc_candidates() == []
        assert ftl.gc_candidates(watermark=ftl.cfg.blocks_per_plane)
        pristine = ftl.cfg.blocks_per_plane - 1
        assert {ftl.free_blocks(f) for f in ftl._touched} == {pristine}
        assert not ftl._free_list.built()

    def test_checkpoint_carries_only_built_lists(self):
        cfg = tiny_cfg(ftl=FTLConfig(enabled=True, over_provisioning=0.0))
        ftl = FTL(cfg)
        for lpn in range(cfg.pages_per_block + 1):  # plane 0 fills block 0
            ftl.write(lpn, plane_hint=0)
        ftl.write(cfg.pages_per_block + 1, plane_hint=1)  # block 0 only
        state = ftl.state()
        assert state["planes"][0]["free_list"] == list(range(2, cfg.blocks_per_plane))
        assert "free_list" not in state["planes"][1]
        fresh = FTL(cfg)
        fresh.restore(state)
        assert set(fresh._free_list.built()) == {0}
        assert fresh.free_blocks(1) == cfg.blocks_per_plane - 1
        assert fresh.state() == state


def _mask_wear(ftl) -> dict:
    """The in-service and retired erase figures by a full-device mask."""
    ec = ftl._erase_counts
    bad_mask = np.zeros(ec.shape, dtype=bool)
    for flat, bad in enumerate(ftl._bad_blocks):
        if bad:
            bad_mask[flat, list(bad)] = True
    live, retired = ec[~bad_mask], ec[bad_mask]
    return {
        "total_erases": float(ec.sum()),
        "max_erase": float(live.max()) if live.size else 0.0,
        "mean_erase": float(live.mean()) if live.size else 0.0,
        "retired_total_erases": float(retired.sum()) if retired.size else 0.0,
        "retired_max_erase": float(retired.max()) if retired.size else 0.0,
    }


class TestWearStats:
    def _retired_device(self, cfg, planes):
        ftl = FTL(cfg)
        ftl.place_striped(2 * cfg.total_chips, 3)
        for flat in planes:
            ftl.retire_active_block(flat)
        ec = ftl._erase_counts
        ec[...] = np.random.default_rng(0).integers(0, 50, size=ec.shape)
        # The device's most-worn block is a retired one.
        ec[planes[0], sorted(ftl._bad_blocks[planes[0]])[0]] = 1000
        return ftl

    @pytest.mark.parametrize("geometry", ["tiny", "default"])
    def test_matches_the_mask_formula_after_retirement(self, geometry):
        cfg = tiny_cfg() if geometry == "tiny" else SSDConfig()
        ftl = self._retired_device(cfg, planes=[0, 0, 3, cfg.total_planes - 1])
        assert ftl.bad_block_count == 4
        stats = ftl.wear_stats()
        expected = _mask_wear(ftl)
        assert {k: stats[k] for k in expected} == expected
        assert stats["retired_max_erase"] == 1000.0
        assert stats["max_erase"] < 1000.0

    def test_matches_the_mask_formula_without_retirement(self):
        ftl = FTL(tiny_cfg())
        assert {k: ftl.wear_stats()[k] for k in _mask_wear(ftl)} == _mask_wear(ftl)
        ftl._erase_counts[2, 1] = 7
        assert {k: ftl.wear_stats()[k] for k in _mask_wear(ftl)} == _mask_wear(ftl)

    def test_every_block_of_a_plane_retired(self):
        cfg = tiny_cfg(
            channels=1,
            chips_per_channel=1,
            planes_per_die=1,
            max_concurrent_plane_ops_per_chip=1,
        )
        ftl = FTL(cfg)
        ftl._bad_blocks[0] = set(range(cfg.blocks_per_plane))
        ftl._erase_counts[0] = [3, 1, 4, 1]
        stats = ftl.wear_stats()
        assert stats["max_erase"] == stats["mean_erase"] == 0.0
        assert stats["retired_total_erases"] == 9.0

    def test_allocates_no_device_copy(self):
        ftl = self._retired_device(SSDConfig(), planes=[0, 5, 5])
        tracemalloc.start()
        try:
            ftl.wear_stats()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The erase-count array alone is 16 MB; a mask copy took 20 MB.
        assert peak < 1 << 20
