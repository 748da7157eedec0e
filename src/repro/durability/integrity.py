"""End-to-end data integrity: silent corruption, RAIN repair, scrubbing.

The NAND fault model (PR 1) covers errors the ECC path *sees*; this
module covers the ones it doesn't.  A seeded Poisson process marks
random planes as silently corrupted — their pages decode cleanly but
fail the end-to-end per-page checksum.  The check rides every
:meth:`~repro.flash.nand.FlashChip.read_page`: when a read lands on a
latent plane the corruption is detected and repaired in-line by RAIN
parity reconstruction — the same ``(die, plane)`` page is read from
every surviving sibling chip in the channel's parity group, the XOR
streams over the channel bus, and the reconstructed page is programmed
back in place.  All of that is charged to the normal chip/channel
timing paths, so repairs contend with foreground traffic exactly like
the paper's own write-back machinery.  With no surviving sibling
(every other chip of the group failed) the page is lost: it is counted
``unrepairable``, no reconstruction traffic is charged, and the run
goes on.

A plane whose repair count reaches ``quarantine_threshold`` has its
active block retired through the FTL (and the board's query caches
invalidated for the chip's blocks) via the engine's quarantine hook.
Background scrubbing walks a round-robin plane cursor on a fixed
cadence, reading pages through the same bandwidth-contended path so
latent corruption is found before foreground reads trip over it.
"""

from __future__ import annotations

from ..common.state import Stateful

__all__ = ["IntegrityTracker"]

#: Name of the RNG stream corruption arrivals draw from (registered in
#: the engine's registry so checkpoints capture and restore it).
RNG_STREAM = "durability"


class IntegrityTracker(Stateful):
    """Per-run integrity state: latent corruption, repairs, scrub cursor."""

    STATE = (
        "latent",
        "injected",
        "detected",
        "repaired",
        "unrepairable",
        "scrub_detected",
        "quarantined",
        "repairs_by_plane",
        "scrub_cursor",
        "scrub_passes",
        "scrub_pages_read",
    )

    def __init__(self, cfg, ssd, metrics, rngs):
        self.cfg = cfg
        self.ssd = ssd
        self.metrics = metrics
        self._rngs = rngs
        #: Planes carrying undetected corruption, keyed (flat_chip, die, plane).
        self.latent: set[tuple[int, int, int]] = set()
        self.injected = 0
        self.detected = 0
        self.repaired = 0
        self.unrepairable = 0
        self.scrub_detected = 0
        self.quarantined = 0
        self.repairs_by_plane: dict[tuple[int, int, int], int] = {}
        self.scrub_cursor = 0
        self.scrub_passes = 0
        self.scrub_pages_read = 0
        self._in_repair = False
        self._in_scrub = False
        #: Engine hook: ``on_quarantine(flat_chip, die, plane)``.
        self.on_quarantine = None
        #: Optional :class:`~repro.obs.MetricsRegistry`; detection and
        #: repair events record into it (None = no telemetry).
        self.telemetry = None

    @property
    def rng(self):
        """Corruption-arrival stream, fetched lazily from the registry.

        The registry rebuilds its generators on checkpoint restore, so
        holding a direct reference would go stale; ``None`` when the
        corruption process is disabled (no stream registered, no draws).
        """
        if self.cfg.silent_corruption_rate <= 0:
            return None
        return self._rngs.stream(RNG_STREAM)

    # -- geometry -------------------------------------------------------------

    def _decode_plane(self, idx: int) -> tuple[int, int, int]:
        c = self.ssd.cfg
        per_chip = c.dies_per_chip * c.planes_per_die
        rem = idx % per_chip
        return (idx // per_chip, rem // c.planes_per_die, rem % c.planes_per_die)

    def _total_planes(self) -> int:
        c = self.ssd.cfg
        return c.total_chips * c.dies_per_chip * c.planes_per_die

    # -- corruption injection -------------------------------------------------

    def inject(self, t: float) -> tuple[int, int, int] | None:
        """Silently corrupt a uniformly random plane (Poisson arrival)."""
        rng = self.rng
        if rng is None:
            return None
        key = self._decode_plane(int(rng.integers(self._total_planes())))
        self.latent.add(key)
        self.injected += 1
        return key

    # -- detection + RAIN repair ----------------------------------------------

    def on_read(self, chip, die: int, plane: int, end: float) -> float:
        """End-to-end checksum check after a page read; repairs in-line.

        Called by :meth:`FlashChip.read_page` with the read's completion
        time; returns the (possibly later) time the verified page is
        available.  Reads issued by a repair itself skip the check —
        the reconstruction path verifies by construction.
        """
        if self._in_repair:
            return end
        key = (chip.chip_id, die, plane)
        if key not in self.latent:
            return end
        self.latent.discard(key)
        if self._in_scrub:
            self.scrub_detected += 1
        else:
            self.detected += 1
        mx = self.telemetry
        if mx is not None:
            mx.counter(
                "durability_corruption_detected",
                path="scrub" if self._in_scrub else "read",
            ).inc(1.0, end)
        return self._repair(chip, die, plane, end)

    def _repair(self, chip, die: int, plane: int, t: float) -> float:
        """Reconstruct one page from the channel's RAIN parity group, or
        count it unrepairable when no sibling chip survives."""
        ssd = self.ssd
        cpc = ssd.cfg.chips_per_channel
        ch = ssd.channel(chip.chip_id // cpc)
        fm = ssd.fault_model
        page_bytes = ssd.cfg.page_bytes
        survivors = 0
        end = t
        self._in_repair = True
        try:
            for sib in ch.chips:
                if sib is chip:
                    continue
                if fm is not None and fm.is_failed(sib.chip_id):
                    continue
                end = max(end, sib.read_page(t, die, plane))
                survivors += 1
            if survivors == 0:
                self.unrepairable += 1
                return t
            # XOR streams over the channel bus, then the reconstructed
            # page is programmed back in place.
            end = ch.transfer_data(end, survivors * page_bytes)
            end = chip.program_page(end, die, plane)
        finally:
            self._in_repair = False
        m = self.metrics
        if m is not None:
            m.record_flash_read(t, survivors * page_bytes, end)
            m.record_channel(t, survivors * page_bytes, end)
            m.record_flash_write(t, page_bytes, end)
        self.repaired += 1
        mx = self.telemetry
        if mx is not None:
            mx.counter("durability_corruption_repaired").inc(1.0, end)
        key = (chip.chip_id, die, plane)
        n = self.repairs_by_plane.get(key, 0) + 1
        if n >= self.cfg.quarantine_threshold:
            self.repairs_by_plane.pop(key, None)
            self.quarantined += 1
            cb = self.on_quarantine
            if cb is not None:
                cb(chip.chip_id, die, plane)
        else:
            self.repairs_by_plane[key] = n
        return end

    # -- background scrubbing -------------------------------------------------

    def scrub_pass(self, t: float) -> float:
        """Verify the next ``scrub_planes_per_pass`` planes at the cursor.

        Each page read goes through the normal chip dispatcher and
        channel bus, so scrubbing competes with foreground traffic for
        bandwidth; latent corruption found here repairs via the same
        RAIN path as a foreground detection.
        """
        ssd = self.ssd
        c = ssd.cfg
        total = self._total_planes()
        fm = ssd.fault_model
        end = t
        scanned = 0
        attempts = 0
        while scanned < self.cfg.scrub_planes_per_pass and attempts < total:
            idx = self.scrub_cursor % total
            self.scrub_cursor += 1
            attempts += 1
            flat, die, plane = self._decode_plane(idx)
            if fm is not None and fm.is_failed(flat):
                continue
            chip = ssd.chip_flat(flat)
            # The read's integrity hook attributes any hit to
            # ``scrub_detected`` (and repairs it in-line) while this
            # flag is up.
            self._in_scrub = True
            try:
                r_end = chip.read_page(t, die, plane)
            finally:
                self._in_scrub = False
            ch = ssd.channel(flat // c.chips_per_channel)
            r_end = ch.transfer_data(r_end, c.page_bytes)
            dftl = getattr(ssd, "dftl", None)
            if dftl is not None and dftl.log_span > 0:
                # Verifying a scanned page means cross-checking its
                # recorded checksum against the mapping metadata, so a
                # DFTL device pays one translation probe per scanned
                # plane (deterministic lpn choice off the scan index).
                lpn = dftl.log_base + (idx % dftl.log_span)
                r_end = ssd.dftl_probe(r_end, flat, (lpn,))
            m = self.metrics
            if m is not None:
                m.record_flash_read(t, c.page_bytes, r_end)
                m.record_channel(t, c.page_bytes, r_end)
            end = max(end, r_end)
            scanned += 1
            self.scrub_pages_read += 1
        self.scrub_passes += 1
        return end

    def stats(self) -> dict:
        """Replay-invariant counters for the report's durability section."""
        return {
            "injected": self.injected,
            "detected": self.detected,
            "repaired": self.repaired,
            "unrepairable": self.unrepairable,
            "scrub_detected": self.scrub_detected,
            "quarantined": self.quarantined,
            "scrub_passes": self.scrub_passes,
            "scrub_pages_read": self.scrub_pages_read,
            "latent_remaining": len(self.latent),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IntegrityTracker(latent={len(self.latent)}, "
            f"detected={self.detected}, repaired={self.repaired})"
        )
