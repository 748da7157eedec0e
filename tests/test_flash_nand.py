"""Tests for NAND chip timing: per-plane serialization, the chip's op
concurrency cap, counters, addressing and checkpoint round trips."""

import pytest

from repro.common import FlashAddressError, FlashError, SSDConfig
from repro.flash import FlashChip


@pytest.fixture
def cfg():
    return SSDConfig()


@pytest.fixture
def chip(cfg):
    return FlashChip(0, cfg)


class TestPlaneTiming:
    def test_single_read_latency(self, chip, cfg):
        assert chip.read_page(0.0, 0, 0) == pytest.approx(cfg.read_latency)

    def test_same_plane_serializes(self, chip, cfg):
        chip.read_page(0.0, 0, 0)
        assert chip.read_page(0.0, 0, 0) == pytest.approx(2 * cfg.read_latency)

    def test_different_planes_parallel(self, chip, cfg):
        a = chip.read_page(0.0, 0, 0)
        b = chip.read_page(0.0, 0, 1)
        assert a == b == pytest.approx(cfg.read_latency)

    def test_concurrency_cap(self, chip, cfg):
        # 5th concurrent read must wait: cap is 4 ops per chip.
        ends = [chip.read_page(0.0, d, p) for d in range(2) for p in range(4)]
        assert sum(1 for e in ends if e == pytest.approx(cfg.read_latency)) == 4
        assert max(ends) == pytest.approx(2 * cfg.read_latency)

    def test_program_latency(self, chip, cfg):
        assert chip.program_page(0.0, 0, 0) == pytest.approx(cfg.program_latency)

    def test_program_does_not_block_reads_on_other_planes(self, chip, cfg):
        # Program-suspend modeling: a long program on plane (0,0) does not
        # stall reads elsewhere through the dispatcher.
        chip.program_page(0.0, 0, 0)
        t = chip.read_page(0.0, 0, 1)
        assert t == pytest.approx(cfg.read_latency)

    def test_program_blocks_same_plane(self, chip, cfg):
        chip.program_page(0.0, 0, 0)
        t = chip.read_page(0.0, 0, 0)
        assert t == pytest.approx(cfg.program_latency + cfg.read_latency)

    def test_erase_latency(self, chip, cfg):
        assert chip.erase_block(0.0, 1, 2) == pytest.approx(cfg.erase_latency)


class TestStripedOps:
    def test_read_pages_striped_one_wave(self, chip, cfg):
        # 4 pages fit the concurrency cap: one read wave.
        assert chip.read_pages_striped(0.0, 4) == pytest.approx(cfg.read_latency)

    def test_read_pages_striped_two_waves(self, chip, cfg):
        assert chip.read_pages_striped(0.0, 8) == pytest.approx(
            2 * cfg.read_latency
        )

    def test_program_pages_striped_rotates(self, chip, cfg):
        # Sequential small programs land on different planes, so two
        # 1-page flushes issued together overlap.
        a = chip.program_pages_striped(0.0, 1)
        b = chip.program_pages_striped(0.0, 1)
        assert a == b == pytest.approx(cfg.program_latency)

    def test_rejects_zero_pages(self, chip):
        with pytest.raises(FlashError):
            chip.read_pages_striped(0.0, 0)
        with pytest.raises(FlashError):
            chip.program_pages_striped(0.0, 0)


class TestAccounting:
    def test_byte_counters(self, chip, cfg):
        chip.read_page(0.0, 0, 0)
        chip.read_page(0.0, 0, 1)
        chip.program_page(0.0, 1, 0)
        assert chip.bytes_read == 2 * cfg.page_bytes
        assert chip.bytes_programmed == cfg.page_bytes
        assert chip.reads == 2 and chip.programs == 1

    def test_utilization(self, chip, cfg):
        chip.read_page(0.0, 0, 0)
        # one read over elapsed = read_latency, with 4 slots => 25%
        assert chip.utilization(cfg.read_latency) == pytest.approx(0.25)


class TestAddressValidation:
    def test_bad_die(self, chip):
        with pytest.raises(FlashAddressError):
            chip.read_page(0.0, 9, 0)

    def test_bad_plane(self, chip):
        with pytest.raises(FlashAddressError):
            chip.read_page(0.0, 0, 9)

    def test_negative_duration_rejected(self, chip):
        with pytest.raises(FlashError):
            chip._occupy(0, 0.0, -1.0)


class TestCheckpoint:
    def test_state_round_trip(self, chip, cfg):
        chip.read_page(0.0, 1, 2)
        chip.program_page(0.0, 0, 3)
        state = chip.state()
        # Where the next read on plane (1, 2) ends from the captured state.
        expected = FlashChip(0, cfg)
        expected.restore(state)
        want = expected.read_page(0.0, 1, 2)
        assert want == pytest.approx(2 * cfg.read_latency)
        for _ in range(3):
            chip.read_page(0.0, 1, 2)
        chip.restore(state)
        assert chip.reads == 1 and chip.programs == 1
        assert chip.read_page(0.0, 1, 2) == want
        # The capture is not reached by later ops, so it restores again.
        chip.restore(state)
        assert chip.bytes_read == cfg.page_bytes
        assert chip.read_page(0.0, 1, 2) == want
