#!/usr/bin/env python
"""Explore the SSD substrate: the bandwidth asymmetry behind FlashWalker.

Demonstrates Section II-C's motivating numbers on the simulated SSD:
plane/channel/PCIe bandwidths, the host-path bottleneck, and what
in-storage access avoids.  Also exercises the FTL (out-of-place updates
and garbage collection) directly.

    python examples/ssd_exploration.py
"""

from __future__ import annotations

from repro.common import MB, SSDConfig, fmt_bandwidth, fmt_time
from repro.flash import FTL, SSD


def main() -> None:
    ssd = SSD()
    cfg = ssd.cfg

    print("== the bandwidth asymmetry (Section II-C) ==")
    plane_bw = cfg.plane_read_bytes_per_sec
    chan_planes_bw = cfg.chips_per_channel * cfg.planes_per_chip * plane_bw
    print(f"one plane sustains          : {fmt_bandwidth(plane_bw)}")
    print(f"planes behind one channel   : {fmt_bandwidth(chan_planes_bw)}")
    print(f"but the channel bus carries : {fmt_bandwidth(cfg.channel_bytes_per_sec)}")
    print(f"all 32 channels             : {fmt_bandwidth(cfg.aggregate_channel_bytes_per_sec)}")
    print(f"but PCIe carries            : {fmt_bandwidth(cfg.pcie_bytes_per_sec)}")
    print(f"aggregate chip read ceiling : {fmt_bandwidth(cfg.aggregate_flash_read_bytes_per_sec)}")

    print("\n== host path vs in-storage path, 8 MB of graph data ==")
    nbytes = 8 * MB
    # Host path: after the first page sense, pages stream through the
    # channels and then PCIe, so the slower of the two sets the rate.
    host_bw = min(cfg.aggregate_channel_bytes_per_sec, cfg.pcie_bytes_per_sec)
    t_host = cfg.read_latency + nbytes / host_bw
    print(f"host path (arrays -> channels -> PCIe): {fmt_time(t_host)} "
          f"-> {fmt_bandwidth(nbytes / t_host)}")
    # In-storage: each chip reads its local share, no bus transfer at all.
    pages = nbytes // cfg.page_bytes
    pages_per_chip = -(-pages // cfg.total_chips)
    t_local = max(
        ssd.chip_flat(i).read_pages_striped(0.0, pages_per_chip)
        for i in range(cfg.total_chips)
    )
    print(f"in-storage path (chip-local reads)    : {fmt_time(t_local)} "
          f"-> {fmt_bandwidth(nbytes / t_local)}")
    print(f"advantage: {t_host / t_local:.1f}x")

    print("\n== FTL behavior ==")
    small = SSDConfig(
        channels=2, chips_per_channel=2, dies_per_chip=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=8,
        max_concurrent_plane_ops_per_chip=2,
    )
    ftl = FTL(small, gc_threshold=1)
    # Hammer a few logical pages to trigger out-of-place updates and GC.
    for i in range(small.blocks_per_plane * small.pages_per_block * 3):
        ftl.write(i % 5, plane_hint=0)
    stats = ftl.wear_stats()
    print(f"after 3x overwrite pressure on one plane:")
    print(f"  GC runs            : {stats['gc_runs']:.0f}")
    print(f"  pages copy-forwarded: {stats['gc_moved_pages']:.0f}")
    print(f"  total erases       : {stats['total_erases']:.0f} "
          f"(max per block {stats['max_erase']:.0f})")
    for lpn in range(5):
        addr = ftl.lookup(lpn)
        print(f"  lpn {lpn} -> channel {addr.channel} chip {addr.chip} "
              f"die {addr.die} plane {addr.plane} block {addr.block} page {addr.page}")


if __name__ == "__main__":
    main()
