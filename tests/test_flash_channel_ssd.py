"""Tests for flash channels, DRAM, and whole-SSD paths."""

import pytest

from repro.common import FlashAddressError, FlashError, SSDConfig
from repro.flash import ONFI_COMMAND_BYTES, SSD, DRAM, FlashChannel
from repro.common.config import DRAMConfig


@pytest.fixture
def cfg():
    return SSDConfig()


@pytest.fixture
def channel(cfg):
    return FlashChannel(0, cfg)


@pytest.fixture
def ssd():
    return SSD()


class TestFlashChannel:
    def test_chip_count(self, channel, cfg):
        assert len(channel.chips) == cfg.chips_per_channel

    def test_chip_ids_global(self, cfg):
        ch = FlashChannel(2, cfg)
        assert ch.chip(0).chip_id == 2 * cfg.chips_per_channel

    def test_command_time(self, channel, cfg):
        t = channel.send_command(0.0)
        assert t == pytest.approx(ONFI_COMMAND_BYTES / cfg.channel_bytes_per_sec)

    def test_bus_serializes(self, channel, cfg):
        channel.transfer_data(0.0, cfg.page_bytes)
        t = channel.transfer_data(0.0, cfg.page_bytes)
        assert t == pytest.approx(2 * cfg.page_bytes / cfg.channel_bytes_per_sec)

    def test_read_page_to_controller_includes_bus(self, channel, cfg):
        t = channel.read_page_to_controller(0.0, 0, 0, 0)
        expected = cfg.read_latency + cfg.page_bytes / cfg.channel_bytes_per_sec
        assert t == pytest.approx(expected)

    def test_write_page_from_controller(self, channel, cfg):
        t = channel.write_page_from_controller(0.0, 0, 0, 0)
        expected = cfg.page_bytes / cfg.channel_bytes_per_sec + cfg.program_latency
        assert t == pytest.approx(expected)

    def test_traffic_accounting(self, channel, cfg):
        channel.read_page_to_controller(0.0, 0, 0, 0)
        assert channel.bytes_on_bus == cfg.page_bytes
        assert channel.bytes_read_from_planes() == cfg.page_bytes

    def test_bad_chip_index(self, channel):
        with pytest.raises(FlashAddressError):
            channel.chip(99)


class TestDRAM:
    def test_reservation_accounting(self):
        d = DRAM(DRAMConfig())
        d.reserve("pwb", 1024)
        d.reserve("tables", 2048)
        assert d.reserved_bytes == 3072
        d.release("pwb")
        assert d.reserved_bytes == 2048

    def test_reservation_update_replaces(self):
        d = DRAM(DRAMConfig())
        d.reserve("x", 100)
        d.reserve("x", 200)
        assert d.reserved_bytes == 200

    def test_over_reservation_rejected(self):
        d = DRAM(DRAMConfig(capacity_bytes=1000))
        with pytest.raises(FlashError):
            d.reserve("big", 2000)

    def test_negative_reservation_rejected(self):
        d = DRAM(DRAMConfig())
        with pytest.raises(FlashError):
            d.reserve("neg", -1)

    def test_traffic_timing(self):
        d = DRAM(DRAMConfig())
        t = d.read(0.0, 1 << 20)
        expected = d.cfg.access_latency + (1 << 20) / d.cfg.peak_bytes_per_sec
        assert t == pytest.approx(expected)
        assert d.bytes_transferred == 1 << 20


class TestSSD:
    def test_topology(self, ssd):
        assert len(ssd.channels) == 32
        assert ssd.chip(3, 2).chip_id == 3 * 4 + 2
        assert ssd.chip_flat(127).chip_id == 127
        ssd.chip_flat(127).read_pages_striped(0.0, 4)
        assert ssd.bytes_read_from_planes() == 4 * ssd.cfg.page_bytes

    def test_chip_flat_bounds(self, ssd):
        with pytest.raises(FlashAddressError):
            ssd.chip_flat(128)

    def test_logical_write_then_read(self, ssd):
        ssd.write_lpn_from_controller(0.0, 42)
        addr = ssd.ftl.lookup(42)
        t = ssd.channel(addr.channel).read_page_to_controller(
            0.0, addr.chip, addr.die, addr.plane
        )
        assert t > 0
        assert ssd.bytes_programmed_to_planes() == ssd.cfg.page_bytes
