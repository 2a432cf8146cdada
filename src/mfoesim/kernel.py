"""Kernel-side model: processes and their address spaces, table setup and
teardown, the background refill machinery, deferred bookkeeping and exit
cleanup.

Offloading is on while mfoe_active is set: the engine consults the
per-core tables only then. The tables are restocked at head by one
routine, which the init fill (fill_step), the locked pass step and the
restock of starved tables at a pass start all call, and which the
serial pass step takes inline; exit cleanup books and empties slots.
begin_pass says whether its pass has work, which is the one rule a
caller needs to skip idle passes (advance_passes).

The background thread's timing is derived once, when the kernel is
built, by params.background_timing in cycles of params.clock_hz:
interval_cycles between refresh ticks, fill_cost per init-fill page,
record_cost per booked record, and budget_per_tick, the records each
pass may book. Each time is its setting rounded, and a setting that
rounds below 1 cycle (or an interval below 1 ns) is refused, so no
tick runs at a pace other than the configured one. The simulator
schedules its fill steps, ticks and pass steps by these, and the replay
gets its ns timing from the same call.

A process's booked pages are counted once, in the ledger's mm_counter,
which also serves as its memcg charge and as the count quotas read.

The deferred pass books one record per step. pass_step and
process_one_record take each table's cleanup lock and are safe for
threaded callers; serial_pass_step, which the simulator calls, books
the common case (a used entry at head, a frame on hand) in
straight-line code with no lock, no record object and no helper call,
and hands every other case to process_one_record. The locked path is
its reference.

Work over a whole address space runs in bulk passes, not one call chain
per page: prefault builds a region's missing leaves in one dict update,
exit cleanup takes a tgid's entries from each table in one scan, the
unmap frees frames and drops their bookings a block at a time, the
drain frees every table's valid frames with one call, and the census
counts present bits straight off the raw words."""
from __future__ import annotations

import math
import random
import threading
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse
from operator import attrgetter, itemgetter
from typing import Optional, Sequence, Union

from .params import LatencySampler, ModelParameters, background_timing, check_finite_positive
from .prealloc import (
    HEADER_CLEANUP_LOCK,
    PRODUCED,
    W1_PFN_MASK,
    W1_PFN_SHIFT,
    W1_TGID_MASK,
    W1_TGID_SHIFT,
    W1_USED,
    W1_VALID,
    HarvestRecord,
    PreallocTable,
    check_table_width,
)
from .vm import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PFN_MASK,
    PFN_SHIFT,
    PTE_LOCK,
    PTE_MFOEABLE,
    PTE_PRESENT,
    FrameAllocator,
    OutOfMemory,
    PageTable,
    PageTableEntry,
    check_canonical,
    prefault_word,
)

# Where anonymous regions get their addresses from; bump-allocated upward
# with a one-page guard gap between regions.
REGION_BASE_VA = 0x5000_0000

# Leaves terminate unmaps per bulk free and ledger remove, so the frame
# list and the sets those calls check it with stay small next to a whole
# address space.
_UNMAP_BLOCK = 1 << 12


@dataclass
class VMA:
    start: int
    end: int
    writable: bool = True
    vm_mfoe: bool = False

    def pages(self) -> int:
        return (self.end - self.start) // PAGE_SIZE


@dataclass
class FaultEvent:
    """A touch no page could serve: a segv, or a write to a read-only page."""

    tgid: int
    va: int
    when: int = 0


class ProcessModel:
    """One address space, its offload opt-in and its page quota. Its page
    count is the ledger's mm_counter[tgid]."""

    def __init__(self, tgid: int, quota_frames: Optional[int] = None):
        if not 0 < tgid < (1 << 16):
            raise ValueError("tgid must fit the 16-bit table field")
        if quota_frames is not None and quota_frames < 1:
            raise ValueError(f"quota_frames must be at least 1, got {quota_frames}")
        self.tgid = tgid
        self.page_table = PageTable()
        self.vmas: list[VMA] = []
        self.mfoe_enabled = False
        self.quota_frames = quota_frames
        self.next_region_va = REGION_BASE_VA

    def find_vma(self, va: int) -> Optional[VMA]:
        # region_create only appends, each VMA above the last, and VMAs do
        # not overlap; so the starts ascend and only the last VMA starting
        # at or below va can hold it.
        i = bisect_right(self.vmas, va, key=attrgetter("start"))
        if i and va < self.vmas[i - 1].end:
            return self.vmas[i - 1]
        return None


class BookkeepingLedger:
    """The per-fault kernel state that offloaded handling defers.

    apply() inserts the reverse mapping and bumps the process's mm
    counter. rmap's insertion order is the booking (LRU) order, and
    mm_counter is also the memcg charge and the count quotas read, so
    each fact has one home. The same routine serves the inline path and
    the deferred one, so runs are comparable record-for-record.
    """

    def __init__(self) -> None:
        self.mm_counter: Counter = Counter()
        self.rmap: dict[int, tuple[int, int]] = {}

    def apply(self, tgid: int, va: int, pfn: int) -> None:
        if pfn in self.rmap:
            raise RuntimeError(f"frame {pfn} already reverse-mapped")
        self.rmap[pfn] = (tgid, va)
        self.mm_counter[tgid] += 1

    def remove(self, pfns: Union[Sequence[int], int]) -> None:
        """Reverse of apply() for a sequence of frames (or one frame
        number), run when mappings are torn down.

        Every present page is booked by the time an exit unmaps, so a
        frame the reverse map lacks is an accounting bug: it raises
        RuntimeError, and a repeated frame ValueError, before anything
        changes. Freed frames must leave the reverse map or their reuse
        by a later process would collide with the stale entry.
        """
        if isinstance(pfns, int):
            pfns = (pfns,)
        rmap = self.rmap
        removed = set(pfns)
        if len(removed) != len(pfns) or not rmap.keys() >= removed:
            seen: set[int] = set()
            for pfn in pfns:
                if pfn not in rmap:
                    raise RuntimeError(f"frame {pfn} is not reverse-mapped")
                if pfn in seen:
                    raise ValueError(f"frame {pfn} is removed twice")
                seen.add(pfn)
        mm_counter = self.mm_counter
        for tgid, count in Counter(map(itemgetter(0), map(rmap.pop, pfns))).items():
            mm_counter[tgid] -= count
            if not mm_counter[tgid]:
                del mm_counter[tgid]

    def records(self) -> set[tuple[int, int, int]]:
        return {(tgid, va, pfn) for pfn, (tgid, va) in self.rmap.items()}

    def equivalent(self, other: "BookkeepingLedger") -> bool:
        return self.records() == other.records() and self.mm_counter == other.mm_counter


class KernelModel:
    """System-wide kernel state: frame pool, per-core tables, processes."""

    def __init__(
        self,
        params: Optional[ModelParameters] = None,
        cores: int = 1,
        total_frames: int = 1 << 20,
        seed: int = 0,
        refresh_interval_ms: float = 2.0,
        resource_threshold: float = 0.8,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        self.params = params or ModelParameters()
        self.params.validate()
        self.interval_cycles, self.fill_cost, self.record_cost, self.budget_per_tick = (
            background_timing(self.params, refresh_interval_ms, self.params.clock_hz, "cycles")
        )
        check_finite_positive("resource threshold", resource_threshold)
        self.cores = cores
        self.resource_threshold = resource_threshold
        self.allocator = FrameAllocator(total_frames)
        self.rng = random.Random(seed)
        self.procs: dict[int, ProcessModel] = {}
        self.ledger = BookkeepingLedger()

        self.tables: Optional[list[PreallocTable]] = None
        self.table_storage_frames: list[int] = []
        self.mfoe_active = False
        # the core the init fill is restocking; None when no fill runs
        self.fill_core: Optional[int] = None

        self.tick_index = 0
        self.pass_budget = 0
        self._pass_core = 0
        self.pending_bit_clears: list[ProcessModel] = []
        self.segv_events: list[FaultEvent] = []
        self.protection_faults: list[FaultEvent] = []
        self._next_tgid = 1000

        # sample_baseline_cycles() draws one software fault cost in cycles
        self.sample_baseline_cycles = LatencySampler(
            self.params.baseline_fault_mean_cycles,
            self.params.baseline_fault_p95_cycles,
            self.params.baseline_fault_dist,
        ).drawer(self.rng)

    # process and region management

    def create_process(
        self, tgid: Optional[int] = None, quota_frames: Optional[int] = None
    ) -> ProcessModel:
        if tgid is None:
            tgid = self._next_tgid
            self._next_tgid += 1
        if tgid in self.procs:
            raise ValueError(f"tgid {tgid} already exists")
        proc = ProcessModel(tgid, quota_frames)
        self.procs[tgid] = proc
        return proc

    def region_create(self, proc: ProcessModel, length: int, writable: bool = True) -> VMA:
        """Map a new region above every existing one, after a guard page.

        proc.vmas stays in ascending, non-overlapping order, which
        ProcessModel.find_vma relies on.
        """
        if length < 0:
            raise ValueError("negative region length")
        pages = math.ceil(length / PAGE_SIZE)
        start = proc.next_region_va
        vma = VMA(start, start + pages * PAGE_SIZE, writable, vm_mfoe=proc.mfoe_enabled)
        proc.vmas.append(vma)
        proc.next_region_va = vma.end + PAGE_SIZE
        return vma

    def prefault_construct(self, proc: ProcessModel, vma: VMA) -> int:
        """Build leaves and stamp offload eligibility over vma's pages.

        Already-stamped and already-present leaves are skipped, which
        makes re-runs idempotent; a stamp keeps a leaf's lock bit. Every
        missing leaf is built in one dict update, in ascending address
        order. A region that leaves the canonical range raises before any
        leaf is built. Returns the number of leaves newly stamped.
        """
        if not vma.vm_mfoe or vma.end <= vma.start:
            return 0
        check_canonical(vma.start)
        check_canonical(vma.end - PAGE_SIZE)
        entries = proc.page_table.entries
        vpns = range(vma.start >> PAGE_SHIFT, vma.end >> PAGE_SHIFT)
        word = prefault_word(proc.tgid, vma.writable)
        stale = [
            leaf for leaf in map(entries.get, vpns)
            if leaf is not None and not leaf.raw & (PTE_PRESENT | PTE_MFOEABLE)
        ]
        for leaf in stale:
            leaf.raw = (leaf.raw & PTE_LOCK) | word
        new = list(filterfalse(entries.__contains__, vpns))
        entries.update(zip(new, map(PageTableEntry, [word] * len(new))))
        return len(stale) + len(new)

    # enable / disable

    def mfoe_enable(self, proc: ProcessModel, preallocation_size: int = 256) -> None:
        """Opt proc in; on the first activation build and start filling tables.

        Table geometry is fixed by the first construction since boot;
        later calls reuse it. Tables start empty and fill in the
        background, so early faults can still miss.
        """
        check_table_width(preallocation_size)
        proc.mfoe_enabled = True
        if self.tables is None:
            frames_per_table = math.ceil(preallocation_size * 16 / PAGE_SIZE)
            tables = []
            for _ in range(self.cores):
                storage = [self.allocator.allocate() for _ in range(frames_per_table)]
                self.table_storage_frames.extend(storage)
                tables.append(PreallocTable(preallocation_size))
            self.tables = tables
        if not self.mfoe_active:
            self.mfoe_active = True
            self.fill_core = 0

    def mfoe_disable(self, proc: ProcessModel) -> int:
        """Drop proc out; the last participant drains tables and turns
        offloading off.

        Safe to call twice. Returns the number of frames returned to the
        free list.
        """
        if not proc.mfoe_enabled:
            return 0
        proc.mfoe_enabled = False
        if any(p.mfoe_enabled for p in self.procs.values()):
            return 0
        self.mfoe_active = False
        self.fill_core = None
        drained = [pfn for table in self.tables or () for pfn in table.drain_valid()]
        self.allocator.free(drained)
        return len(drained)

    # fill and refill machinery

    def fill_step(self) -> bool:
        """Produce one page of the init fill, core 0 upward; False once
        every core's pass has finished or no frame is on hand.

        A core's pass ends at its first non-empty head, so it also
        restocks slots a cleanup empties while the fill runs."""
        while self.fill_core is not None:
            table = self.tables[self.fill_core]
            if table.head_is_empty():
                if self._restock_head(table):
                    return True
                self.fill_core = None
            elif self.fill_core + 1 < self.cores:
                self.fill_core += 1
            else:
                self.fill_core = None
        return False

    def run_init_fill(self) -> int:
        """Complete the whole initialization fill synchronously."""
        count = 0
        while self.fill_step():
            count += 1
        return count

    def process_one_record(self, core: int) -> Optional[HarvestRecord]:
        """Book the oldest consumed entry of one core's table, if any.

        The one restock path after the fill: while used entries remain,
        empty head slots are restocked first, so head reaches the oldest.
        A restock with no frame on hand skips the slot instead, and the
        slot the booking empties is restocked the same way.

        It holds the table's cleanup lock throughout, waiting out another
        thread's hold. serial_pass_step books a used head entry with a
        frame on hand itself and calls this for every other case; this
        is the reference it is tested against."""
        table = self.tables[core]
        self._acquire_cleanup_lock(table)
        try:
            record = table.take_used(table.head_index)
            while record is None and table.consumed != table.released and table.head_is_empty():
                if not self._restock_head(table):
                    table.skip_head()
                record = table.take_used(table.head_index)
            if record is None:
                return None
            self.ledger.apply(record.tgid, record.va, record.pfn)
            if not self._restock_head(table):
                table.skip_head()
            return record
        finally:
            table.release_cleanup_lock()

    def begin_pass(self) -> bool:
        """Start one deferred-processing pass; True when it has work.

        Applies pending eligibility-bit clears, re-checks every quota,
        restocks every starved table (an empty tail slot, which consume
        cannot take from, and no used entry, whose booking would restock
        it), grants the pass budget_per_tick records, and picks the
        starting core, which rotates from pass to pass. The pass is idle
        when it did nothing but grant the budget and rotate the start
        core, and it can book nothing: the budget is 0 or no table holds
        a used entry. Only a fault can change that.
        """
        work = bool(self.pending_bit_clears)
        self.apply_pending_bit_clears()
        for proc in list(self.procs.values()):
            work |= self.resource_check(proc)
        # with no frame on hand a starved table waits, which is no work;
        # _restock_head never skips head, so running out leaves it as it is
        if self.tables and self.mfoe_active and self.allocator.free_count():
            for table in self.tables:
                if not table.used and table.tail_is_empty():
                    work = True
                    while table.head_is_empty() and self._restock_head(table):
                        pass
        self.advance_passes(1)
        return work or bool(
            self.pass_budget and self.tables and any(table.used for table in self.tables)
        )

    def advance_passes(self, count: int) -> None:
        """Start count passes in turn, granting each the budget and the
        next start core, without begin_pass's quota and bit-clear work:
        count begin_pass calls at once after one returned False. A count
        of 0 changes nothing."""
        if not count:
            return
        self.pass_budget = self.budget_per_tick
        self._pass_core = (self.tick_index + count - 1) % self.cores
        self.tick_index += count

    def pass_step(self) -> Optional[HarvestRecord]:
        """Book one record of the current pass; None once it has nothing to do.

        Takes the oldest consumed entry of the first core, from the pass
        cursor on, that has one, then moves the cursor past that core, so
        cores are interleaved record by record. A core whose table holds
        no used entry is passed over without taking its lock.

        Safe for threaded callers: each booking runs under the table's
        cleanup lock (process_one_record). serial_pass_step is the same
        step for single-threaded callers, and this is its reference.
        """
        tables = self.tables
        if self.pass_budget <= 0 or tables is None:
            return None
        for offset in range(self.cores):
            core = (self._pass_core + offset) % self.cores
            table = tables[core]
            if table.consumed == table.released:
                continue
            record = self.process_one_record(core)
            if record is not None:
                self._pass_core = (core + 1) % self.cores
                self.pass_budget -= 1
                return record
        return None

    def serial_pass_step(self) -> bool:
        """pass_step for a single-threaded caller; True when it booked a
        record.

        Same core rotation, budget and bookings as pass_step. When the
        chosen core's head slot holds its oldest used entry and a frame is
        on hand, the booking is straight-line code on the table's words,
        the ledger and the allocator's free list: it empties the slot,
        books the record, restocks the slot and advances head, with no
        cleanup lock, no HarvestRecord and no helper call. Every other
        case (empty slots ahead of the oldest used entry, offloading off,
        no frame on hand) goes through process_one_record. A held cleanup
        lock raises RuntimeError before anything changes, since no other
        thread of a single-threaded caller can release it.
        """
        tables = self.tables
        if self.pass_budget <= 0 or tables is None:
            return False
        cores = self.cores
        for offset in range(cores):
            core = (self._pass_core + offset) % cores
            table = tables[core]
            if table.consumed == table.released:
                continue
            if table.locks & HEADER_CLEANUP_LOCK:
                raise RuntimeError("table cleanup lock is held and no other thread can release it")
            i = table.head_index
            w1 = table._w1[i]
            free_list = self.allocator.free_list
            if w1 & W1_USED and self.mfoe_active and free_list:
                # take_used, ledger.apply and _restock_head, inline
                w0s, w1s = table._w0, table._w1
                va = w0s[i]
                tgid = (w1 >> W1_TGID_SHIFT) & W1_TGID_MASK
                pfn = (w1 >> W1_PFN_SHIFT) & W1_PFN_MASK
                w1s[i] = 0
                w0s[i] = 0
                table.released += 1
                ledger = self.ledger
                if pfn in ledger.rmap:
                    raise RuntimeError(f"frame {pfn} already reverse-mapped")
                ledger.rmap[pfn] = (tgid, va)
                ledger.mm_counter[tgid] += 1
                new = free_list.popleft()
                self.allocator.allocated.add(new)
                w1s[i] = ((new & W1_PFN_MASK) << W1_PFN_SHIFT) | W1_VALID
                table.head_index = 1 if i == table.num_entries - 1 else i + 1
            elif self.process_one_record(core) is None:
                continue
            self._pass_core = (core + 1) % cores
            self.pass_budget -= 1
            return True
        return False

    def postfault_tick(self) -> int:
        """One whole deferred-processing pass: begin_pass(), then pass_step()
        until the budget or the backlog runs out.

        This is the pass the simulator runs one record at a time: quotas
        are checked when it starts, and cores are interleaved record by
        record. Returns the records booked; the excess backlog is left for
        the next pass.
        """
        if self.tables is None:
            return 0
        self.begin_pass()
        processed = 0
        while self.pass_step() is not None:
            processed += 1
        return processed

    def _restock_head(self, table: PreallocTable) -> bool:
        """Produce a frame at the empty head slot; False, changing nothing,
        while offloading is off or no frame is on hand."""
        if not self.mfoe_active:
            return False
        try:
            pfn = self.allocator.allocate()
        except OutOfMemory:
            return False
        status = table.produce(pfn)
        assert status is PRODUCED
        return True

    def error_cleanup(self, tgid: int) -> int:
        """Book every consumed entry a dying thread group left behind.

        Scans each core's table once, under its cleanup lock, so nothing
        keeps a reference to the dead tgid; each of its records is booked
        as the pass would, in index order, and its slot left empty for the
        pass to restock.
        """
        if self.tables is None:
            return 0
        removed = 0
        apply = self.ledger.apply
        for table in self.tables:
            self._acquire_cleanup_lock(table)
            try:
                taken = table.take_used_of(tgid)
                for va, pfn in taken:
                    apply(tgid, va, pfn)
            finally:
                table.release_cleanup_lock()
            removed += len(taken)
        return removed

    def resource_check(self, proc: ProcessModel) -> bool:
        """Disable offloading for proc once it crosses its page quota.

        The eligibility bits of its untouched pages are cleared at the
        start of the next pass.
        """
        if not proc.mfoe_enabled:
            return False
        quota = self.allocator.total_frames if proc.quota_frames is None else proc.quota_frames
        if self.ledger.mm_counter[proc.tgid] <= self.resource_threshold * quota:
            return False
        self.mfoe_disable(proc)
        self.pending_bit_clears.append(proc)
        return True

    def apply_pending_bit_clears(self) -> None:
        """Clear the eligible, not-yet-faulted leaves of every process a
        quota check turned off, one pass over each region's pages."""
        for proc in self.pending_bit_clears:
            entries = proc.page_table.entries
            for vma in proc.vmas:
                if not vma.vm_mfoe:
                    continue
                vma.vm_mfoe = False
                vpns = range(vma.start >> PAGE_SHIFT, vma.end >> PAGE_SHIFT)
                for leaf in map(entries.get, vpns):
                    if leaf is not None and leaf.raw & (PTE_PRESENT | PTE_MFOEABLE) == PTE_MFOEABLE:
                        leaf.raw = 0
        self.pending_bit_clears = []

    # fault-path services

    def inline_install(
        self, proc: ProcessModel, va: int, writable: bool, leaf: PageTableEntry
    ) -> int:
        """Allocate, book, and map one page on the spot (the slow path).

        leaf is va's leaf, which the caller holds, as the fault handler
        does; it is used as given, with no second walk and no
        canonicality check. The booking comes before the leaf is
        written, so a frame already in the reverse map raises with the
        leaf as it was.
        """
        pfn = self.allocator.allocate()
        self.ledger.apply(proc.tgid, va, pfn)
        leaf.install_frame(pfn, writable)
        return pfn

    # teardown

    def terminate(self, proc: ProcessModel) -> int:
        """Full exit path: cleanup, unmap everything, then disable.

        error_cleanup books what proc left in the tables, so every present
        page is in the ledger. The unmap walks the leaves in ascending
        address order, _UNMAP_BLOCK at a time: it reads a block's present
        frames off the raw words, frees them and drops their bookings with
        one call each, then clears the block's leaves in place. Returns the
        number of pages freed. A process the kernel does not hold raises
        ValueError before anything changes.
        """
        if self.procs.get(proc.tgid) is not proc:
            raise ValueError(f"tgid {proc.tgid} is not a live process of this kernel")
        self.error_cleanup(proc.tgid)
        entries = proc.page_table.entries
        vpns = sorted(entries)
        freed = 0
        for first in range(0, len(vpns), _UNMAP_BLOCK):
            leaves = list(map(entries.__getitem__, vpns[first:first + _UNMAP_BLOCK]))
            pfns = [
                (leaf.raw & PFN_MASK) >> PFN_SHIFT for leaf in leaves if leaf.raw & PTE_PRESENT
            ]
            self.allocator.free(pfns)
            self.ledger.remove(pfns)
            for leaf in leaves:
                leaf.raw = 0
            freed += len(pfns)
        self.mfoe_disable(proc)
        del self.procs[proc.tgid]
        return freed

    # helpers

    def _acquire_cleanup_lock(self, table: PreallocTable) -> None:
        # Another thread's hold ends, so wait it out. With no other thread
        # (the simulator is single-threaded) nothing can release it.
        while not table.try_cleanup_lock():
            if threading.active_count() == 1:
                raise RuntimeError("table cleanup lock is held and no other thread can release it")
            time.sleep(0)

    def frame_census(self) -> dict[str, int]:
        """Partition of every frame; free + outstanding always totals the pool."""
        table_valid = sum(t.valid_count() for t in self.tables) if self.tables else 0
        # present is bit 0, so raw & PTE_PRESENT counts one per mapped leaf
        raw = attrgetter("raw")
        mapped = sum(
            sum(map(PTE_PRESENT.__and__, map(raw, proc.page_table.entries.values())))
            for proc in self.procs.values()
        )
        return {
            "free": self.allocator.free_count(),
            "table_valid": table_valid,
            "table_storage": len(self.table_storage_frames),
            "mapped": mapped,
            "outstanding": self.allocator.outstanding(),
            "total": self.allocator.total_frames,
        }
