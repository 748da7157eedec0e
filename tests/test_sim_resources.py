"""Tests for FCFS resources and bandwidth links."""

import pytest

from repro.common import SimulationError
from repro.sim import BandwidthLink, FcfsResource


class TestFcfsResource:
    def test_single_server_serializes(self):
        r = FcfsResource("r", 1)
        assert r.acquire_for(0.0, 1.0) == pytest.approx(1.0)
        assert r.acquire_for(0.0, 1.0) == pytest.approx(2.0)
        assert r.acquire_for(0.0, 1.0) == pytest.approx(3.0)

    def test_multi_server_parallelism(self):
        r = FcfsResource("r", 2)
        assert r.acquire_for(0.0, 1.0) == pytest.approx(1.0)
        assert r.acquire_for(0.0, 1.0) == pytest.approx(1.0)
        assert r.acquire_for(0.0, 1.0) == pytest.approx(2.0)

    def test_idle_gap_respected(self):
        r = FcfsResource("r", 1)
        r.acquire_for(0.0, 1.0)
        # request arriving after the server freed starts immediately
        assert r.acquire_for(5.0, 1.0) == pytest.approx(6.0)

    def test_utilization(self):
        r = FcfsResource("r", 2)
        r.acquire_for(0.0, 1.0)
        r.acquire_for(0.0, 1.0)
        assert r.utilization(2.0) == pytest.approx(0.5)

    def test_utilization_zero_elapsed(self):
        assert FcfsResource("r", 1).utilization(0.0) == 0.0

    def test_queued_time_tracked(self):
        r = FcfsResource("r", 1)
        r.acquire_for(0.0, 2.0)
        r.acquire_for(0.0, 1.0)  # waits 2s
        assert r.queued_time == pytest.approx(2.0)

    def test_next_free(self):
        r = FcfsResource("r", 1)
        r.acquire_for(0.0, 3.0)
        assert r.next_free(1.0) == pytest.approx(3.0)
        assert r.next_free(5.0) == pytest.approx(5.0)

    def test_rejects_zero_servers(self):
        with pytest.raises(SimulationError):
            FcfsResource("r", 0)

    def test_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            FcfsResource("r", 1).acquire_for(0.0, -1.0)

    def test_request_count(self):
        r = FcfsResource("r", 4)
        for _ in range(10):
            r.acquire_for(0.0, 0.1)
        assert r.requests == 10


class TestBandwidthLink:
    def test_transfer_time(self):
        link = BandwidthLink("l", 1000.0)
        assert link.transfer(0.0, 500) == pytest.approx(0.5)

    def test_serialization(self):
        link = BandwidthLink("l", 1000.0)
        link.transfer(0.0, 1000)
        assert link.transfer(0.0, 1000) == pytest.approx(2.0)

    def test_latency_added_per_transfer(self):
        link = BandwidthLink("l", 1000.0, latency=0.1)
        assert link.transfer(0.0, 1000) == pytest.approx(1.1)
        assert link.transfer(0.0, 1000) == pytest.approx(2.2)

    def test_idle_gap(self):
        link = BandwidthLink("l", 1000.0)
        link.transfer(0.0, 100)
        assert link.transfer(10.0, 100) == pytest.approx(10.1)

    def test_zero_byte_transfer(self):
        link = BandwidthLink("l", 1000.0)
        assert link.transfer(0.0, 0) == pytest.approx(0.0)

    def test_byte_accounting(self):
        link = BandwidthLink("l", 1e6)
        link.transfer(0.0, 4096)
        link.transfer(0.0, 4096)
        assert link.bytes_moved == 8192
        assert link.transfers == 2

    def test_utilization(self):
        link = BandwidthLink("l", 1000.0)
        link.transfer(0.0, 500)
        assert link.utilization(1.0) == pytest.approx(0.5)

    def test_onfi_rate(self):
        # One 4 KB page at 333 MB/s takes ~12.3 us.
        link = BandwidthLink("onfi", 333e6)
        assert link.transfer(0.0, 4096) == pytest.approx(4096 / 333e6)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(SimulationError):
            BandwidthLink("l", 0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(SimulationError):
            BandwidthLink("l", 1.0, latency=-0.1)

    def test_rejects_negative_bytes(self):
        with pytest.raises(SimulationError):
            BandwidthLink("l", 1.0).transfer(0.0, -5)
