"""Tests for repro.common.units."""

import pytest

from repro.common import units


class TestConstants:
    def test_binary_prefixes(self):
        assert units.KB == 1024
        assert units.MB == 1024**2
        assert units.GB == 1024**3
        assert units.TB == 1024**4

    def test_decimal_prefixes(self):
        assert units.MB_D == 10**6
        assert units.GB_D == 10**9

    def test_time_units(self):
        assert units.MS == pytest.approx(1e-3)
        assert units.US == pytest.approx(1e-6)
        assert units.NS == pytest.approx(1e-9)


class TestFormatting:
    def test_fmt_bytes(self):
        assert units.fmt_bytes(512) == "512B"
        assert units.fmt_bytes(2048) == "2.00KB"
        assert units.fmt_bytes(5 * units.MB) == "5.00MB"
        assert units.fmt_bytes(3 * units.GB) == "3.00GB"
        assert units.fmt_bytes(2 * units.TB) == "2.00TB"

    def test_fmt_bytes_negative(self):
        assert units.fmt_bytes(-2048) == "-2.00KB"

    def test_fmt_time(self):
        assert units.fmt_time(2.5) == "2.500s"
        assert units.fmt_time(3.5e-3) == "3.500ms"
        assert units.fmt_time(35e-6) == "35.000us"
        assert units.fmt_time(16e-9) == "16.0ns"

    def test_fmt_time_negative(self):
        assert units.fmt_time(-1e-3).startswith("-")

    def test_fmt_bandwidth(self):
        assert units.fmt_bandwidth(333e6).endswith("/s")

    def test_fmt_count(self):
        assert units.fmt_count(999) == "999"
        assert units.fmt_count(1_460_000_000) == "1.46B"
        assert units.fmt_count(41_600_000) == "41.60M"
        assert units.fmt_count(20_300) == "20.30K"
