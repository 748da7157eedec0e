"""Tests for repro.common.config — Tables I-III values and validation."""

import pytest

from repro.common import (
    GB_D,
    KB,
    MB,
    AcceleratorLevels,
    ConfigError,
    DRAMConfig,
    FlashWalkerConfig,
    GraphWalkerConfig,
    SSDConfig,
)


class TestSSDConfig:
    def test_table_i_defaults(self):
        c = SSDConfig().validate()
        assert c.channels == 32
        assert c.chips_per_channel == 4
        assert c.dies_per_chip == 2
        assert c.planes_per_die == 4
        assert c.page_bytes == 4 * KB
        assert c.read_latency == pytest.approx(35e-6)
        assert c.program_latency == pytest.approx(350e-6)
        assert c.erase_latency == pytest.approx(2e-3)

    def test_derived_counts(self):
        c = SSDConfig()
        assert c.total_chips == 128
        assert c.total_dies == 256
        assert c.total_planes == 1024
        assert c.planes_per_chip == 8

    def test_paper_aggregate_channel_bandwidth(self):
        # Section II-C / Fig. 8: aggregated channel BW ~ 10.4-10.7 GB/s.
        c = SSDConfig()
        agg = c.aggregate_channel_bytes_per_sec
        assert 10e9 < agg < 11e9

    def test_paper_aggregate_read_throughput(self):
        # Fig. 8 quotes 55.8 GB/s max aggregated chip read throughput.
        c = SSDConfig()
        agg = c.aggregate_flash_read_bytes_per_sec
        assert 55e9 < agg < 62e9

    def test_pcie_bandwidth(self):
        assert SSDConfig().pcie_bytes_per_sec == pytest.approx(4 * GB_D)

    def test_channel_slower_than_planes_behind_it(self):
        # The core motivation: one channel's bus is slower than the
        # aggregate plane bandwidth behind it.
        c = SSDConfig()
        planes_bw = c.chips_per_channel * c.planes_per_chip * c.plane_read_bytes_per_sec
        assert c.channel_bytes_per_sec < planes_bw

    def test_rejects_zero_channels(self):
        with pytest.raises(ConfigError):
            SSDConfig(channels=0).validate()

    def test_rejects_excess_concurrency(self):
        with pytest.raises(ConfigError):
            SSDConfig(max_concurrent_plane_ops_per_chip=99).validate()


class TestDRAMConfig:
    def test_table_iii_defaults(self):
        c = DRAMConfig().validate()
        assert c.frequency_mhz == 1600.0
        assert c.bus_width_bits == 64
        assert c.tCL == 22 and c.tRCD == 22 and c.tRP == 22 and c.tRAS == 52

    def test_peak_bandwidth(self):
        # 1600 MHz DDR x 8 bytes = 25.6 GB/s.
        assert DRAMConfig().peak_bytes_per_sec == pytest.approx(25.6e9)

    def test_access_latency_positive(self):
        c = DRAMConfig()
        assert 0 < c.access_latency < 1e-6

    def test_rejects_odd_bus_width(self):
        with pytest.raises(ConfigError):
            DRAMConfig(bus_width_bits=63).validate()


class TestAcceleratorLevels:
    def test_table_ii_values(self):
        lv = AcceleratorLevels().validate()
        assert lv.chip.n_updaters == 1 and lv.chip.n_guiders == 1
        assert lv.chip.updater_cycle == pytest.approx(16e-9)
        assert lv.channel.n_guiders == 4
        assert lv.channel.updater_cycle == pytest.approx(8e-9)
        assert lv.board.n_updaters == 4 and lv.board.n_guiders == 128
        assert lv.board.updater_cycle == pytest.approx(4e-9)

    def test_buffer_capacities(self):
        lv = AcceleratorLevels()
        assert lv.chip.subgraph_buffer_bytes == 1 * MB
        assert lv.channel.subgraph_buffer_bytes == 2 * MB
        assert lv.board.subgraph_buffer_bytes == 16 * MB

    def test_areas(self):
        lv = AcceleratorLevels()
        assert lv.chip.area_mm2 == pytest.approx(1.30)
        assert lv.channel.area_mm2 == pytest.approx(1.84)
        assert lv.board.area_mm2 == pytest.approx(14.31)


class TestFlashWalkerConfig:
    def test_defaults_validate(self):
        FlashWalkerConfig().validate()

    def test_slot_counts_preserved_under_scaling(self):
        # DESIGN.md: slot counts derive from paper byte values, so they
        # stay 4 per chip regardless of the scaled subgraph size.
        c = FlashWalkerConfig(subgraph_bytes=4 * KB)
        assert c.chip_subgraph_slots() == 4

    def test_subgraph_pages(self):
        assert FlashWalkerConfig(subgraph_bytes=4 * KB).subgraph_pages() == 1
        assert FlashWalkerConfig(subgraph_bytes=8 * KB).subgraph_pages() == 2
        assert FlashWalkerConfig(subgraph_bytes=5 * KB).subgraph_pages() == 2

    def test_eq1_defaults(self):
        c = FlashWalkerConfig()
        assert c.alpha == pytest.approx(1.2)
        assert c.beta == pytest.approx(1.5)

    def test_range_subgraphs_paper_value(self):
        assert FlashWalkerConfig().range_subgraphs == 256

    def test_with_optimizations(self):
        c = FlashWalkerConfig().with_optimizations(wq=False, hs=True, ss=False)
        assert not c.opt_walk_query
        assert c.opt_hot_subgraphs
        assert not c.opt_subgraph_scheduling

    def test_replace_does_not_mutate(self):
        c = FlashWalkerConfig()
        c2 = c.replace(alpha=0.4)
        assert c.alpha == pytest.approx(1.2)
        assert c2.alpha == pytest.approx(0.4)

    def test_rejects_tiny_walk_bytes(self):
        with pytest.raises(ConfigError):
            FlashWalkerConfig(walk_bytes=4).validate()

    def test_rejects_negative_alpha(self):
        with pytest.raises(ConfigError):
            FlashWalkerConfig(alpha=-1).validate()


class TestGraphWalkerConfig:
    def test_defaults_validate(self):
        GraphWalkerConfig().validate()

    def test_scaled_memory(self):
        # 8 GB / PAPER_SCALE = 4 MB default working memory.
        c = GraphWalkerConfig()
        assert c.memory_bytes == 4 * MB
        assert c.block_bytes == 512 * KB

    def test_block_must_fit_memory(self):
        with pytest.raises(ConfigError):
            GraphWalkerConfig(memory_bytes=1 * KB, block_bytes=2 * KB).validate()
