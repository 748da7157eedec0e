"""Flash Translation Layer: logical-to-physical mapping, allocation, GC.

Implements the FTL responsibilities of Section II-C at behavioral
fidelity: dynamic out-of-place allocation, a page-level mapping table,
greedy garbage collection, and wear counters.  Random-walk workloads are
read-dominated, so GC never triggers in the benchmarks (Fig. 8's
near-zero write bandwidth), but the machinery is real and tested.

Physical page addresses are encoded as a flat integer::

    ppa = (((channel * CPC + chip) * DPC + die) * PPD + plane) * BPP * PGB
          + block * PGB + page

with decode helpers on :class:`FlashAddress`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..common.config import SSDConfig
from ..common.errors import FlashAddressError, FlashError
from ..common.state import Stateful

__all__ = ["FlashAddress", "FTL"]

_UNMAPPED = np.int64(-1)


@dataclass(frozen=True)
class FlashAddress:
    """Decoded physical page address."""

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    @classmethod
    def decode(cls, ppa: int, cfg: SSDConfig) -> "FlashAddress":
        if ppa < 0:
            raise FlashAddressError(f"negative ppa {ppa}")
        pgb = cfg.pages_per_block
        bpp = cfg.blocks_per_plane
        page = ppa % pgb
        rest = ppa // pgb
        block = rest % bpp
        rest //= bpp
        plane = rest % cfg.planes_per_die
        rest //= cfg.planes_per_die
        die = rest % cfg.dies_per_chip
        rest //= cfg.dies_per_chip
        chip = rest % cfg.chips_per_channel
        channel = rest // cfg.chips_per_channel
        if channel >= cfg.channels:
            raise FlashAddressError(f"ppa {ppa} beyond device capacity")
        return cls(channel, chip, die, plane, block, page)

    def encode(self, cfg: SSDConfig) -> int:
        unit = (
            (self.channel * cfg.chips_per_channel + self.chip) * cfg.dies_per_chip
            + self.die
        ) * cfg.planes_per_die + self.plane
        return (unit * cfg.blocks_per_plane + self.block) * cfg.pages_per_block + self.page


class _FreeLists:
    """Per-plane free-block lists, each built when allocation first needs it.

    A pristine plane's list is ``[1, ..., blocks_per_plane - 1]`` (block
    0 is its first active block).  Building every plane's list up front
    costs about 2M ints on the paper geometry, for planes most runs
    never write.  Indexing builds a plane's list, so only the allocator
    and GC index; readers that only need a length call :meth:`count`.
    A plane's list, once built, is the same object thereafter.
    """

    __slots__ = ("_n", "_blocks", "_lists")

    def __init__(self, n_planes: int, blocks_per_plane: int):
        self._n = n_planes
        self._blocks = blocks_per_plane
        self._lists: dict[int, list[int]] = {}

    def __getitem__(self, flat: int) -> list[int]:
        free = self._lists.get(flat)
        if free is None:
            flat = range(self._n)[flat]  # bounds check, int key
            free = self._lists.setdefault(flat, list(range(1, self._blocks)))
        return free

    def __setitem__(self, flat: int, free: list[int]) -> None:
        self._lists[range(self._n)[flat]] = free

    def count(self, flat: int) -> int:
        """Free blocks on a plane, without building its list."""
        free = self._lists.get(range(self._n)[flat])
        return self._blocks - 1 if free is None else len(free)

    def built(self) -> dict[int, list[int]]:
        """The lists built so far, by flat plane."""
        return self._lists


class FTL(Stateful):
    """Page-level FTL over the geometry of an :class:`SSDConfig`.

    Parameters
    ----------
    cfg:
        device geometry.
    gc_threshold:
        run garbage collection on a plane when its free blocks drop to
        this count (>= 1 keeps one spare for GC copy-forward).
    """

    #: Scalars of the full (DFTL) checkpoint state; see :meth:`state`.
    STATE = (
        "_next_plane",
        "gc_runs",
        "gc_foreground_runs",
        "gc_background_runs",
        "gc_moved_pages",
        "data_pages_written",
        "bad_block_count",
        "bad_block_moved_pages",
    )

    def __init__(self, cfg: SSDConfig, gc_threshold: int = 2):
        cfg.validate()
        if gc_threshold < 1:
            raise FlashError(f"gc_threshold must be >= 1, got {gc_threshold}")
        self.cfg = cfg
        self.gc_threshold = gc_threshold
        fcfg = getattr(cfg, "ftl", None)
        self.ftl_cfg = fcfg
        #: Wear-leveling allocation and background GC follow FTLConfig;
        #: both default off so the pre-DFTL allocator is byte-identical.
        self.wear_leveling = bool(
            fcfg is not None and fcfg.enabled and fcfg.wear_leveling
        )
        self.background_gc = bool(
            fcfg is not None and fcfg.enabled and fcfg.gc_interval > 0
        )
        #: DFTL runs write through the FTL in the background, so their
        #: checkpoints copy its whole state (see :meth:`state`).
        self._copies_full_state = bool(fcfg is not None and fcfg.enabled)
        self.physical_pages = (
            cfg.total_planes * cfg.blocks_per_plane * cfg.pages_per_block
        )
        # Over-provisioning shrinks the *exported* logical span; the
        # physical geometry (and ppa space) is unchanged.
        if fcfg is not None and fcfg.enabled and fcfg.over_provisioning > 0:
            self.total_pages = max(
                1, int(self.physical_pages * (1.0 - fcfg.over_provisioning))
            )
        else:
            self.total_pages = self.physical_pages
        self.total_blocks = cfg.total_planes * cfg.blocks_per_plane
        # Logical -> physical page map and the reverse map for GC.
        self.l2p: dict[int, int] = {}
        self.p2l: dict[int, int] = {}
        # Per flat-plane allocation state: an active block with a page
        # cursor, plus an explicit free-block list (blocks reclaimed by
        # GC re-enter the list after erase).
        n_planes = cfg.total_planes
        self._active_block = np.zeros(n_planes, dtype=np.int64)
        self._active_page = np.zeros(n_planes, dtype=np.int64)
        self._free_list = _FreeLists(n_planes, cfg.blocks_per_plane)
        # invalid page counts per (flat plane, block)
        self._invalid = np.zeros((n_planes, cfg.blocks_per_plane), dtype=np.int64)
        self._erase_counts = np.zeros((n_planes, cfg.blocks_per_plane), dtype=np.int64)
        self._next_plane = 0
        # Per-plane set of blocks a GC/retire copy-forward is mid-move
        # on: they must be invisible to victim selection until their
        # survivors land (a single dict entry let nested GC re-pick a
        # partially moved victim).
        self._gc_inflight: list[set[int]] = [set() for _ in range(n_planes)]
        # Per-plane stack of already-erased GC victims reserved for the
        # caller's post-GC block advance; _advance_block may consume one
        # as the allocation of last resort mid-move.
        self._gc_reserve: list[list[int]] = [[] for _ in range(n_planes)]
        self.gc_runs = 0
        self.gc_moved_pages = 0
        self.gc_foreground_runs = 0
        self.gc_background_runs = 0
        #: Host/engine pages written through :meth:`write` (the WAF
        #: denominator; GC/retire copy-forwards are the amplification).
        self.data_pages_written = 0
        #: Planes whose allocation state ever left pristine, so
        #: :meth:`state` snapshots stay sparse on big geometries.
        self._touched: set[int] = set()
        # Grown-bad blocks per flat plane: permanently out of circulation.
        self._bad_blocks: list[set[int]] = [set() for _ in range(n_planes)]
        self.bad_block_count = 0
        self.bad_block_moved_pages = 0
        # Append-only histories of place_striped calls (their arguments)
        # and retire_active_block calls (flat plane ids), in order.
        # Victim selection is deterministic given the call sequence, so
        # replaying both against a pristine FTL reproduces the full
        # remap state — this is what a checkpoint restore does when
        # nothing else writes (see :meth:`state`).
        self._placements: list[tuple[int, int, int]] = []
        self.remap_log: list[int] = []

    # -- geometry helpers ------------------------------------------------------

    def flat_plane(self, channel: int, chip: int, die: int, plane: int) -> int:
        c = self.cfg
        if not (
            0 <= channel < c.channels
            and 0 <= chip < c.chips_per_channel
            and 0 <= die < c.dies_per_chip
            and 0 <= plane < c.planes_per_die
        ):
            raise FlashAddressError(
                f"bad plane address ({channel}, {chip}, {die}, {plane})"
            )
        return (
            (channel * c.chips_per_channel + chip) * c.dies_per_chip + die
        ) * c.planes_per_die + plane

    def _plane_addr(self, flat: int) -> tuple[int, int, int, int]:
        c = self.cfg
        plane = flat % c.planes_per_die
        rest = flat // c.planes_per_die
        die = rest % c.dies_per_chip
        rest //= c.dies_per_chip
        chip = rest % c.chips_per_channel
        return rest // c.chips_per_channel, chip, die, plane

    def _ppa(self, flat_plane: int, block: int, page: int) -> int:
        c = self.cfg
        return (flat_plane * c.blocks_per_plane + block) * c.pages_per_block + page

    # -- write path ---------------------------------------------------------------

    def write(self, lpn: int, plane_hint: int | None = None) -> FlashAddress:
        """Map logical page ``lpn`` to a fresh physical page.

        Out-of-place: a previous mapping is invalidated.  ``plane_hint``
        pins the allocation to a flat plane (used to keep a subgraph
        inside one chip); otherwise planes are used round-robin.
        """
        if lpn < 0 or lpn >= self.total_pages:
            raise FlashAddressError(f"lpn {lpn} out of range [0, {self.total_pages})")
        old = self.l2p.get(lpn)
        if old is not None:
            self._invalidate(old)
        if plane_hint is None:
            flat = self._next_plane
            self._next_plane = (self._next_plane + 1) % self.cfg.total_planes
        else:
            if not 0 <= plane_hint < self.cfg.total_planes:
                raise FlashAddressError(f"plane_hint {plane_hint} out of range")
            flat = plane_hint
        ppa = self._allocate_page(flat)
        self.l2p[lpn] = ppa
        self.p2l[ppa] = lpn
        self.data_pages_written += 1
        return FlashAddress.decode(ppa, self.cfg)

    def _allocate_page(self, flat: int) -> int:
        c = self.cfg
        self._touched.add(flat)
        if self._active_page[flat] >= c.pages_per_block:
            # Active block full: advance to a fresh block.  With
            # background GC the engine reclaims space on its own
            # schedule, so the allocator only collects synchronously as
            # an emergency (free list empty); otherwise it keeps the
            # original threshold-triggered foreground GC.
            free = self._free_list.count(flat)
            if self.background_gc:
                if not free:
                    self._garbage_collect(flat)
            elif free <= self.gc_threshold:
                self._garbage_collect(flat)
            # GC may already have advanced the cursor: when the move
            # consumed its reserved victim as the allocation of last
            # resort, the active block is that victim, partially filled
            # by survivors — advancing again would strand its remaining
            # pages and (on a full plane) raise a spurious device-full.
            if self._active_page[flat] >= c.pages_per_block:
                self._advance_block(flat)
        block = int(self._active_block[flat])
        page = int(self._active_page[flat])
        self._active_page[flat] += 1
        return self._ppa(flat, block, page)

    def _advance_block(self, flat: int) -> None:
        free = self._free_list[flat]
        if not free:
            # Allocation of last resort: a GC copy-forward in progress
            # has already *erased* its victim even if the survivors are
            # still moving — consuming it here is what keeps a near-full
            # plane from raising device-full mid-move (the victim's
            # erase must be visible to allocation).
            reserve = self._gc_reserve[flat]
            if reserve:
                blk = reserve.pop()
                self._gc_inflight[flat].discard(blk)
                self._active_block[flat] = blk
                self._active_page[flat] = 0
                return
            raise FlashError(
                f"plane {flat}: out of free blocks even after GC "
                "(device over-full)"
            )
        if self.wear_leveling and len(free) > 1:
            # Erase-count-aware allocation: take the least-worn free
            # block (ties break to the lowest block id, deterministic).
            ec = self._erase_counts[flat]
            idx = min(range(len(free)), key=lambda i: (ec[free[i]], free[i]))
            self._active_block[flat] = free.pop(idx)
        else:
            self._active_block[flat] = free.pop(0)
        self._active_page[flat] = 0

    def _invalidate(self, ppa: int) -> None:
        c = self.cfg
        page_i = ppa % c.pages_per_block
        blk = (ppa // c.pages_per_block) % c.blocks_per_plane
        flat = ppa // (c.pages_per_block * c.blocks_per_plane)
        del self.p2l[ppa]
        self._invalid[flat, blk] += 1
        assert 0 <= page_i < c.pages_per_block

    # -- read path ------------------------------------------------------------------

    def lookup(self, lpn: int) -> FlashAddress:
        """Translate a logical page; raises if unmapped."""
        ppa = self.l2p.get(lpn)
        if ppa is None:
            raise FlashAddressError(f"lpn {lpn} is not mapped")
        return FlashAddress.decode(ppa, self.cfg)

    def is_mapped(self, lpn: int) -> bool:
        return lpn in self.l2p

    def trim(self, lpn: int) -> None:
        """Discard a logical page's mapping (TRIM/deallocate)."""
        ppa = self.l2p.pop(lpn, None)
        if ppa is not None:
            self._invalidate(ppa)

    # -- garbage collection ------------------------------------------------------------

    def _select_victim(self, flat: int) -> int | None:
        """Greedy victim choice: the plane's most-invalid eligible block."""
        candidates = self._invalid[flat].copy()
        if self._active_page[flat] < self.cfg.pages_per_block:
            # A partially written active block is off limits (collecting
            # it would fight the write cursor), but once it fills it is
            # a block like any other — on a plane whose only invalid
            # pages sit under the cursor, shielding it forever starves
            # GC into a spurious device-full.
            candidates[int(self._active_block[flat])] = -1
        candidates[self._free_list[flat]] = -1  # already free
        for blk in self._gc_inflight[flat]:
            candidates[blk] = -1  # survivors still mid-move
        victim = int(np.argmax(candidates))
        if candidates[victim] <= 0:
            return None  # nothing reclaimable; caller may still fail on alloc
        return victim

    def _collect_block(self, flat: int, victim: int) -> int:
        """Erase-first copy-forward of one victim block; returns pages moved.

        The victim's still-valid lpns are staged, then the block is
        *logically erased* (reverse map cleared, invalid count reset,
        erase counted) **before** the survivors reallocate.  Ordering
        matters: on a near-full plane the copy-forward allocations may
        need the very block being collected — erasing first and holding
        it as a reservation makes it visible to ``_advance_block``
        instead of raising a spurious device-full :class:`FlashError`
        mid-move.  Survivor moves still prefer other blocks (nested GC
        keeps reclaiming the plane as before), so when the reservation
        goes unused the victim joins the free list only after the last
        survivor lands — a half-moved block can never be re-picked.
        """
        base = self._ppa(flat, victim, 0)
        survivors = [
            lpn
            for page in range(self.cfg.pages_per_block)
            if (lpn := self.p2l.pop(base + page, None)) is not None
        ]
        self._invalid[flat, victim] = 0
        self._erase_counts[flat, victim] += 1
        self._gc_inflight[flat].add(victim)
        self._gc_reserve[flat].append(victim)
        for lpn in survivors:
            new_ppa = self._allocate_page(flat)
            self.l2p[lpn] = new_ppa
            self.p2l[new_ppa] = lpn
            self.gc_moved_pages += 1
        if victim in self._gc_inflight[flat]:
            # Reservation unused: release the victim into circulation.
            self._gc_inflight[flat].discard(victim)
            self._gc_reserve[flat].remove(victim)
            self._free_list[flat].append(victim)
        return len(survivors)

    def _garbage_collect(self, flat: int) -> None:
        """Synchronous (foreground) GC: reclaim one block on the plane."""
        victim = self._select_victim(flat)
        if victim is None:
            return
        self._collect_block(flat, victim)
        self.gc_runs += 1
        self.gc_foreground_runs += 1

    def gc_once(self, flat: int) -> dict | None:
        """One background-GC cycle on a plane (driven by engine events).

        Returns ``{"victim", "moved", "lpns"}`` for the engine to charge
        the migration reads/programs and the erase against the owning
        chip's resources, or ``None`` when the plane has nothing
        reclaimable.  ``lpns`` are the survivors whose mapping entries
        the move dirtied (they re-enter the CMT as dirty entries).
        """
        if not 0 <= flat < self.cfg.total_planes:
            raise FlashAddressError(f"flat plane {flat} out of range")
        victim = self._select_victim(flat)
        if victim is None:
            return None
        base = self._ppa(flat, victim, 0)
        lpns = [
            self.p2l[base + page]
            for page in range(self.cfg.pages_per_block)
            if base + page in self.p2l
        ]
        moved = self._collect_block(flat, victim)
        self.gc_runs += 1
        self.gc_background_runs += 1
        return {"victim": victim, "moved": moved, "lpns": lpns}

    def free_blocks(self, flat: int) -> int:
        """Free blocks on a plane (the active block not counted)."""
        return self._free_list.count(flat)

    def gc_watermark(self) -> int:
        """Free-block count at or below which a plane wants background GC."""
        fcfg = self.ftl_cfg
        if fcfg is None or not fcfg.enabled:
            return self.gc_threshold
        reserve = int(np.ceil(fcfg.over_provisioning * self.cfg.blocks_per_plane))
        return max(fcfg.gc_low_water_blocks, reserve)

    def gc_candidates(self, watermark: int | None = None) -> list[int]:
        """Touched planes at/below the free-block watermark, worst first."""
        if watermark is None:
            watermark = self.gc_watermark()
        count = self._free_list.count
        low = [
            (free, flat)
            for flat in self._touched
            if (free := count(flat)) <= watermark
        ]
        return [flat for _, flat in sorted(low)]

    # -- bad-block management ------------------------------------------------------------

    def retire_active_block(self, flat: int) -> int:
        """Mark the plane's active block grown-bad and retire it.

        The behavioral read path senses pages by plane without an FTL
        lookup, so the failing *block* identity is not available; the FTL
        retires a deterministic victim — the block under the plane's
        write cursor — which preserves the properties that matter: the
        plane permanently loses one block of capacity, surviving pages
        are copy-forwarded, and :meth:`wear_stats` counts the damage.
        Returns the retired block id.
        """
        if not 0 <= flat < self.cfg.total_planes:
            raise FlashAddressError(f"flat plane {flat} out of range")
        self.remap_log.append(int(flat))
        self._touched.add(flat)
        victim = int(self._active_block[flat])
        # The retiring block must stay invisible to any GC the relocation
        # below triggers: it still has an invalid count and is in neither
        # the free list nor the active slot, so victim selection would
        # otherwise pick it and return a grown-bad block to circulation.
        self._gc_inflight[flat].add(victim)
        try:
            # Move the write cursor off the bad block before relocating
            # into the plane (mirrors the _allocate_page advance path).
            if self._free_list.count(flat) <= self.gc_threshold:
                self._garbage_collect(flat)
            # GC may already have moved the cursor by consuming its
            # reserved victim; advancing again would strand that
            # partially filled block outside the free list.
            if int(self._active_block[flat]) == victim:
                self._advance_block(flat)
            # Copy-forward the victim's surviving pages, GC-style.
            base = self._ppa(flat, victim, 0)
            for page in range(self.cfg.pages_per_block):
                ppa = base + page
                lpn = self.p2l.get(ppa)
                if lpn is None:
                    continue
                del self.p2l[ppa]
                new_ppa = self._allocate_page(flat)
                self.l2p[lpn] = new_ppa
                self.p2l[new_ppa] = lpn
                self.bad_block_moved_pages += 1
        finally:
            self._gc_inflight[flat].discard(victim)
        # The victim never re-enters the free list: with all its pages
        # unmapped and its invalid count cleared, GC can't select it and
        # the allocator can't reach it.
        self._invalid[flat, victim] = 0
        self._bad_blocks[flat].add(victim)
        self.bad_block_count += 1
        return victim

    def bad_blocks_on(self, flat: int) -> frozenset[int]:
        return frozenset(self._bad_blocks[flat])

    # -- placement used by FlashWalker ---------------------------------------------------

    def place_striped(
        self, n_units: int, pages_per_unit: int, start_lpn: int = 0
    ) -> np.ndarray:
        """Write ``n_units`` objects of ``pages_per_unit`` pages each,
        striping units across chips (one unit entirely inside one chip).

        Returns an int array of shape (n_units, 2): (channel, chip index
        within channel) per unit — the placement constraint of Section
        III-D ("subgraphs fetched by a chip-level accelerator must be in
        the same chip's flash planes").
        """
        if n_units < 0 or pages_per_unit < 1:
            raise FlashError(
                f"bad placement request: n_units={n_units}, "
                f"pages_per_unit={pages_per_unit}"
            )
        self._placements.append((n_units, pages_per_unit, start_lpn))
        c = self.cfg
        out = np.zeros((n_units, 2), dtype=np.int64)
        lpn = start_lpn
        for u in range(n_units):
            chip_flat = u % c.total_chips
            channel = chip_flat // c.chips_per_channel
            chip = chip_flat % c.chips_per_channel
            planes_base = self.flat_plane(channel, chip, 0, 0)
            for p in range(pages_per_unit):
                self.write(lpn, plane_hint=planes_base + (p % c.planes_per_chip))
                lpn += 1
            out[u] = (channel, chip)
        return out

    # -- wear statistics -----------------------------------------------------------------

    def write_amplification(self) -> float:
        """Physical pages programmed per host/engine page written.

        Only data-path amplification (GC + bad-block copy-forwards);
        translation-page writebacks are the DFTL layer's to report.
        """
        data = self.data_pages_written
        if data <= 0:
            return 1.0
        extra = self.gc_moved_pages + self.bad_block_moved_pages
        return (data + extra) / data

    def wear_stats(self) -> dict[str, float]:
        ec = self._erase_counts
        # Retired (grown-bad) blocks can never be erased again, so their
        # historical erase counts must not skew the wear-leveling signal:
        # max/mean cover in-service blocks only, with the retired
        # population reported separately.  Sums are exact on ints, so
        # the in-service figures come from the device's and the retired
        # blocks', without a copy of the device.
        retired: list[int] = []
        plane_max = ec.max(axis=1)
        for flat, bad in enumerate(self._bad_blocks):
            if bad:
                bad = list(bad)
                retired += ec[flat, bad].tolist()
                plane_max[flat] = np.delete(ec[flat], bad).max(initial=-1)
        total = int(ec.sum())
        live_count = ec.size - len(retired)
        return {
            "total_erases": float(total),
            "max_erase": float(plane_max.max()) if live_count else 0.0,
            "mean_erase": (total - sum(retired)) / live_count if live_count else 0.0,
            "retired_blocks": float(self.bad_block_count),
            "retired_total_erases": float(sum(retired)),
            "retired_max_erase": float(max(retired, default=0)),
            "gc_runs": float(self.gc_runs),
            "gc_foreground_runs": float(self.gc_foreground_runs),
            "gc_background_runs": float(self.gc_background_runs),
            "gc_moved_pages": float(self.gc_moved_pages),
            "data_pages_written": float(self.data_pages_written),
            "write_amplification": float(self.write_amplification()),
            "bad_blocks": float(self.bad_block_count),
            "bad_block_moved_pages": float(self.bad_block_moved_pages),
        }

    # -- checkpoint state ------------------------------------------------------------

    def state(self) -> dict:
        """Checkpoint state; :meth:`restore` takes it onto a pristine FTL.

        Without DFTL the FTL changes only through ``place_striped`` and
        ``retire_active_block``, so the state is those two call logs: a
        copy of the map would dwarf the rest of the checkpoint.  With
        DFTL, background GC and log writes make the state time-dependent
        (no longer derivable by replay), so the full mapping, allocation
        and wear state is copied.  Only *touched* planes are stored —
        untouched planes are pristine by construction — keeping the copy
        sparse on full-size geometries.
        """
        logs = {"placements": list(self._placements), "remap_log": list(self.remap_log)}
        if not self._copies_full_state:
            return logs
        planes = {}
        built = self._free_list.built()
        for flat in sorted(self._touched):
            inv = self._invalid[flat]
            ecp = self._erase_counts[flat]
            nz_inv = np.flatnonzero(inv)
            nz_ec = np.flatnonzero(ecp)
            planes[int(flat)] = plane = {
                "active_block": int(self._active_block[flat]),
                "active_page": int(self._active_page[flat]),
                "invalid": [[int(b), int(inv[b])] for b in nz_inv],
                "erase": [[int(b), int(ecp[b])] for b in nz_ec],
                "bad": sorted(int(b) for b in self._bad_blocks[flat]),
            }
            if flat in built:  # an unbuilt list is still the pristine one
                plane["free_list"] = [int(b) for b in built[flat]]
        return {
            **logs,
            **super().state(),
            "l2p": dict(self.l2p),
            "planes": planes,
        }

    def restore(self, state: dict) -> None:
        """Take on a :meth:`state` capture; the FTL must be pristine."""
        if not self._copies_full_state:
            for args in state["placements"]:
                self.place_striped(*args)
            for flat in state["remap_log"]:
                self.retire_active_block(int(flat))
            return
        super().restore(state)
        self._placements = list(state["placements"])
        self.remap_log = list(state["remap_log"])
        self.l2p = dict(state["l2p"])
        self.p2l = {ppa: lpn for lpn, ppa in self.l2p.items()}
        for flat, p in state["planes"].items():
            self._touched.add(flat)
            self._active_block[flat] = p["active_block"]
            self._active_page[flat] = p["active_page"]
            if "free_list" in p:
                self._free_list[flat] = list(p["free_list"])
            self._invalid[flat, :] = 0
            for blk, v in p["invalid"]:
                self._invalid[flat, blk] = v
            self._erase_counts[flat, :] = 0
            for blk, v in p["erase"]:
                self._erase_counts[flat, blk] = v
            self._bad_blocks[flat] = set(p["bad"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FTL(mapped={len(self.l2p)}/{self.total_pages}, "
            f"gc_runs={self.gc_runs})"
        )
