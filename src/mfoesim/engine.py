"""The hardware fault path: TLB, page walk dispatch, table consumption
under the per-entry bit lock, and fallback into the kernel model.

The whole minor-fault protocol lives in PteFaultSm as one generator that
yields at each atomic-action boundary, and yields a wait predicate where
a handler spins on another's lock. The concurrency tests interleave
step() calls from several handlers aimed at the same leaf to exercise
the lock protocol, and run() drives one handler to completion. The
generator records how the handler ended in its result attribute on its
last action and returns nothing, so a finished fault costs no
StopIteration carrying a value.

MfoeEngine.resolve dispatches a touch (TLB, walk, then the fault) and
returns a plain tuple; access() wraps that tuple in a FaultOutcome for
library callers. Its half after the TLB lookup and the walk is
resolve_walked, which takes what they found, a present leaf or the
fault, and the VMA that holds the address. resolve finds that VMA with
ProcessModel.find_vma, and only for a leaf that is not present. The
simulator runs the lookup and the walk in its own touch loop, serves
TLB and walk hits there, and calls resolve_walked for everything else,
handing over the faulting thread's own region, so a simulated fault
searches for nothing. The enum members the per-touch path compares or
returns are bound to module names once, since a module global reads
several times faster than an Enum class attribute.

A touch costs as few Python calls as the layers allow. resolve tests
canonicality with a range compare, calling check_canonical only to
raise; it builds one (tgid, vpn) key, and it and resolve_walked run the
TLB's LRU inline on the Tlb's own OrderedDict: a get and move_to_end on
a hit and, after a miss, an eviction of the oldest entry when full and
the store, as Tlb.lookup and Tlb.insert do. resolve_walked serves a
fault itself, in straight-line code with no handler object, generator
or helper call, as KernelModel.serial_pass_step books a record: a table
hit is PreallocTable.consume and PageTableEntry.install_frame taken on
the table's tail words and the leaf word, and the kernel path is
KernelModel.inline_install taken on the leaf word, the ledger's rmap and
mm_counter, with only FrameAllocator.allocate and the latency draw
called. PteFaultSm, which calls those helpers, stays the model of the
lock protocol and the reference the straight-line path is tested
against; the helpers stay for it and for library callers.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generator, Optional

from .kernel import KernelModel, ProcessModel, VMA
from .prealloc import W1_PFN_MASK, W1_PFN_SHIFT, W1_TGID_MASK, W1_TGID_SHIFT, W1_USED, W1_VALID
from .vm import (
    PAGE_SHIFT,
    PFN_MASK,
    PFN_SHIFT,
    PTE_LOCK,
    PTE_MFOEABLE,
    PTE_PRESENT,
    PTE_RW,
    USER_VA_LIMIT,
    PageTableEntry,
    check_canonical,
)


class OutcomeKind(Enum):
    TLB_HIT = "tlb_hit"
    WALK_HIT = "walk_hit"
    MFOE_HIT = "mfoe_hit"
    MFOE_MISS = "mfoe_miss"
    KERNEL_FAULT = "kernel_fault"
    SEGV = "segv"
    PROTECTION_FAULT = "protection_fault"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ runs in Python on every dict or set lookup.
    __hash__ = object.__hash__


TLB_HIT = OutcomeKind.TLB_HIT
WALK_HIT = OutcomeKind.WALK_HIT
MFOE_HIT = OutcomeKind.MFOE_HIT
MFOE_MISS = OutcomeKind.MFOE_MISS
KERNEL_FAULT = OutcomeKind.KERNEL_FAULT
SEGV = OutcomeKind.SEGV
PROTECTION_FAULT = OutcomeKind.PROTECTION_FAULT


@dataclass(slots=True)
class FaultOutcome:
    kind: OutcomeKind
    cycles: int
    penalty_cycles: int = 0
    kernel_cycles: int = 0
    pfn: Optional[int] = None


class Tlb:
    """Fully associative, LRU, tagged by the key (tgid, vpn). Holds only
    present translations.

    _map is ordered least recently used first. lookup and insert are the
    LRU for library callers; MfoeEngine.resolve and resolve_walked and
    the simulator's touch loop take the same actions on _map inline."""

    def __init__(self, entries: int = 64):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.entries = entries
        self._map: OrderedDict[tuple[int, int], tuple[int, bool]] = OrderedDict()

    def lookup(self, key: tuple[int, int]) -> Optional[tuple[int, bool]]:
        """(pfn, rw) for key, now the most recently used; None on a miss."""
        hit = self._map.get(key)
        if hit is not None:
            self._map.move_to_end(key)
        return hit

    def insert(self, key: tuple[int, int], pfn: int, rw: bool) -> None:
        """Map key, as the most recently used entry, whether or not it is
        held; a new key evicts the least recently used one when full."""
        if key in self._map:
            self._map.move_to_end(key)
        elif len(self._map) >= self.entries:
            self._map.popitem(last=False)
        self._map[key] = (pfn, rw)

    def invalidate_asid(self, tgid: int) -> None:
        for key in [k for k in self._map if k[0] == tgid]:
            del self._map[key]

    def __len__(self) -> int:
        return len(self._map)


class SmResult(Enum):
    MFOE_HIT = "mfoe_hit"
    MFOE_MISS_KERNEL = "mfoe_miss_kernel"
    KERNEL = "kernel"
    REUSE = "reuse"  # another handler installed the page first
    WAITED = "waited"  # spun on the lock, then reused the installed page


_SM_MFOE_HIT = SmResult.MFOE_HIT
_SM_MFOE_MISS_KERNEL = SmResult.MFOE_MISS_KERNEL
_SM_KERNEL = SmResult.KERNEL
_SM_REUSE = SmResult.REUSE
_SM_WAITED = SmResult.WAITED


# A leaf word with its lock bit cleared: raw & _UNLOCKED.
_UNLOCKED = ~PTE_LOCK

class PteFaultSm:
    """One core's in-flight minor-fault handler.

    Protocol on an offload-eligible leaf: read the entry; acquire the bit
    lock with an atomic read-modify-write; re-check present under the
    lock (someone may have resolved the fault between the read and the
    acquire); consume a frame from this core's table; write the new entry
    and release. An empty table releases the lock and retries the same
    dance as the ordinary kernel handler, which allocates inline.

    A handler that loses the lock race busy-waits until the lock is clear
    and present is set, then reuses the installed translation. A kernel
    step that raises (no frame left, a frame already booked) releases
    the lock before the error leaves the handler.

    MfoeEngine.resolve_walked serves the simulator's faults without it,
    taking an uncontended handler's actions; this class models
    contention, for the interleaving tests and callers that step
    handlers themselves.

    The protocol is the generator _protocol(), which yields after each
    atomic action and, on its last one, sets result to the SmResult just
    before it returns. In the two spin waits it yields the predicate
    _lock_clear_and_present, elsewhere None. step() advances it by one
    action and sets done when it ends; runnable() is False while a
    yielded predicate is false, so a scheduler only advances handlers
    that can make progress. run() drives a handler with no concurrent
    owner: it iterates the generator in a for loop, from wherever step()
    left it, checks every yielded predicate, and sets done after the
    loop. At a false predicate, which nothing else can make true, it
    leaves the generator suspended there and raises RuntimeError. So
    result and done change only on the last action, whichever call runs
    it. How the handler got its frame, from the table or inline, is read
    from result, the one record of how it ended.
    """

    __slots__ = ("kernel", "proc", "core", "va", "vma", "mfoe_eligible", "leaf", "done",
                 "result", "pfn", "_protocol_gen", "_wait")

    def __init__(
        self,
        kernel: KernelModel,
        proc: ProcessModel,
        core: int,
        va: int,
        vma: VMA,
        mfoe_eligible: bool,
    ):
        self.kernel = kernel
        self.proc = proc
        self.core = core
        self.va = va
        self.vma = vma
        self.mfoe_eligible = mfoe_eligible
        self.leaf = proc.page_table.walk(va)
        self.done = False
        self.result: Optional[SmResult] = None
        self.pfn: Optional[int] = None
        self._protocol_gen = self._protocol()
        self._wait: Optional[Callable[[], bool]] = None

    @property
    def consumed_from_table(self) -> bool:
        return self.result is _SM_MFOE_HIT

    @property
    def allocated_inline(self) -> bool:
        return self.result in (_SM_MFOE_MISS_KERNEL, _SM_KERNEL)

    def runnable(self) -> bool:
        return not self.done and (self._wait is None or self._wait())

    def step(self) -> None:
        if self.done:
            raise RuntimeError("stepping a finished handler")
        try:
            self._wait = next(self._protocol_gen)
        except StopIteration:
            self.done = True

    def run(self) -> SmResult:
        """Drive to completion; callers must guarantee no concurrent owner."""
        if self.done:
            return self.result
        wait = self._wait
        if wait is None or wait():
            for wait in self._protocol_gen:
                if wait is not None and not wait():
                    break
            else:
                self.done = True
                return self.result
        # Left suspended where it waits, so runnable() says False.
        self._wait = wait
        raise RuntimeError("handler blocked with no concurrent progress")

    def _lock_clear_and_present(self) -> bool:
        return not self.leaf.locked and self.leaf.present

    def _protocol(self) -> Generator[Optional[Callable[[], bool]], None, None]:
        # The lock's test-and-set: each test of PTE_LOCK on leaf.raw and
        # the write that sets it sit in one atomic action, between yields.
        leaf = self.leaf
        mfoe_missed = False
        if leaf is not None and leaf.raw & PTE_PRESENT:
            self.pfn = leaf.pfn_or_tgid
            self.result = _SM_REUSE
            return
        if self.mfoe_eligible and leaf is not None and leaf.raw & PTE_MFOEABLE:
            yield
            raw = leaf.raw
            if raw & PTE_LOCK:
                yield self._lock_clear_and_present
                self.pfn = leaf.pfn_or_tgid
                self.result = _SM_WAITED
                return
            leaf.raw = raw | PTE_LOCK
            yield
            if leaf.raw & PTE_PRESENT:
                # Resolved while we raced for the lock; nothing to consume.
                self.pfn = leaf.pfn_or_tgid
                leaf.raw &= _UNLOCKED
                self.result = _SM_REUSE
                return
            yield
            pfn = self.kernel.tables[self.core].consume(self.va, self.proc.tgid)
            if pfn is not None:
                self.pfn = pfn
                yield
                leaf.install_frame(pfn, self.vma.writable)
                yield
                leaf.raw &= _UNLOCKED
                self.result = _SM_MFOE_HIT
                return
            yield
            leaf.raw &= _UNLOCKED
            mfoe_missed = True
        yield
        # The ordinary kernel handler, also the fallback on an empty table.
        if leaf is None:
            leaf = self.leaf = self.proc.page_table.construct_path(self.va)
        raw = leaf.raw
        if raw & PTE_LOCK:
            yield self._lock_clear_and_present
            self.pfn = leaf.pfn_or_tgid
            self.result = _SM_WAITED
            return
        leaf.raw = raw | PTE_LOCK
        yield
        if leaf.raw & PTE_PRESENT:
            self.pfn = leaf.pfn_or_tgid
            leaf.raw &= _UNLOCKED
            self.result = _SM_REUSE
            return
        yield
        try:
            self.pfn = self.kernel.inline_install(self.proc, self.va, self.vma.writable, leaf)
        except BaseException:
            # a handler that fails (no frame left, a double booking)
            # releases its lock, so the leaf stays usable
            leaf.raw &= _UNLOCKED
            raise
        yield
        leaf.raw &= _UNLOCKED
        self.result = _SM_MFOE_MISS_KERNEL if mfoe_missed else _SM_KERNEL


class MfoeEngine:
    """Serialized front end: one access() call resolves one memory touch."""

    def __init__(self, kernel: KernelModel, tlb_entries: int = 64):
        self.kernel = kernel
        self.params = kernel.params
        self.tlb = Tlb(tlb_entries)
        self.core_proc: dict[int, ProcessModel] = {}

    def bind(self, core: int, proc: ProcessModel) -> None:
        self.core_proc[core] = proc

    def on_process_exit(self, tgid: int) -> None:
        self.tlb.invalidate_asid(tgid)
        for core in [c for c, p in self.core_proc.items() if p.tgid == tgid]:
            del self.core_proc[core]

    def access(self, core: int, va: int, is_write: bool = False, now: int = 0) -> FaultOutcome:
        """resolve() as a FaultOutcome."""
        return FaultOutcome(*self.resolve(core, va, is_write, now))

    def resolve(
        self, core: int, va: int, is_write: bool = False, now: int = 0
    ) -> tuple[OutcomeKind, int, int, int, Optional[int]]:
        """Resolve one touch of va from core at time now (cycles), as the
        fields of a FaultOutcome in order: (kind, cycles, penalty_cycles,
        kernel_cycles, pfn).

        Dispatch: TLB, then the walker, then resolve_walked, which takes
        a present leaf or the fault, with the VMA find_vma gives for a
        leaf that is not present. Any path that resolves the page leaves
        the translation in the TLB.
        """
        if not 0 <= va < USER_VA_LIMIT:
            check_canonical(va)  # raises CanonicalityError
        proc = self.core_proc[core]
        vpn = va >> PAGE_SHIFT
        key = (proc.tgid, vpn)
        # Tlb.lookup, inline on the TLB's own LRU map
        tlb_map = self.tlb._map
        tlb_hit = tlb_map.get(key)
        if tlb_hit is not None:
            tlb_map.move_to_end(key)
            pfn, rw = tlb_hit
            if is_write and not rw:
                self.kernel.record_protection_fault(proc.tgid, va, now)
                return PROTECTION_FAULT, 0, 0, 0, pfn
            return TLB_HIT, 0, 0, 0, pfn
        # the walk: va is canonical, so the leaf is read straight off the table
        leaf = proc.page_table.entries.get(vpn)
        raw = 0 if leaf is None else leaf.raw
        vma = None if raw & PTE_PRESENT else proc.find_vma(va)
        return self.resolve_walked(core, proc, va, key, leaf, raw, vma, is_write, now)

    def resolve_walked(
        self,
        core: int,
        proc: ProcessModel,
        va: int,
        key: tuple[int, int],
        leaf: Optional[PageTableEntry],
        raw: int,
        vma: Optional[VMA],
        is_write: bool,
        now: int,
    ) -> tuple[OutcomeKind, int, int, int, Optional[int]]:
        """resolve() after its TLB lookup missed and its walk ran: proc is
        core's process, key (proc.tgid, va's page number), leaf the entry
        the walk found (None while unbuilt), raw the word it read there
        (0 for no leaf) and vma the VMA that holds va (None when none
        does), which is read only when raw is not present. A caller that
        runs the lookup and the walk itself hands their results here, and
        one that knows which region va lies in hands over its VMA, so
        nothing is looked up twice.

        A present leaf is a walk hit, or a protection fault on a write to
        a read-only page. A fault is served here in straight-line code:
        an uncontended PteFaultSm's actions in its order, without the
        lock bit, which no other handler can observe, and with the
        table's consume, the leaf's install_frame and the kernel's
        inline_install taken inline on their words, the ledger and the
        TLB's map. The kernel path builds an unbuilt leaf, takes its
        frame from FrameAllocator.allocate, which raises OutOfMemory with
        nothing else changed, and checks the booking before it writes
        anything, so a frame already in the reverse map raises
        RuntimeError with only that frame taken from the allocator. Each
        error leaves what PteFaultSm leaves. A leaf whose lock is held,
        as only a PteFaultSm stepped by hand leaves it, raises
        RuntimeError before any change, as PteFaultSm.run() does.
        """
        # Tlb.insert after a miss, inline on the TLB's own LRU map
        tlb = self.tlb
        tlb_map = tlb._map
        if raw & PTE_PRESENT:
            pfn = (raw & PFN_MASK) >> PFN_SHIFT
            rw = (raw & PTE_RW) != 0
            if is_write and not rw:
                self.kernel.record_protection_fault(proc.tgid, va, now)
                return PROTECTION_FAULT, 0, 0, 0, pfn
            if len(tlb_map) >= tlb.entries:
                tlb_map.popitem(last=False)
            tlb_map[key] = (pfn, rw)
            return WALK_HIT, 0, 0, 0, pfn

        kernel = self.kernel
        if vma is None:
            kernel.record_segv(proc.tgid, va, now)
            return SEGV, 0, 0, 0, None

        # the fault, as an uncontended PteFaultSm serves it; raw is the
        # word the walk read, unchanged since
        if raw & PTE_LOCK:
            raise RuntimeError("handler blocked with no concurrent progress")
        tgid = proc.tgid
        writable = vma.writable
        if kernel.mfoe_active and raw & PTE_MFOEABLE:
            # PreallocTable.consume, then PageTableEntry.install_frame
            table = kernel.tables[core]
            i = table.tail_index
            w1s = table._w1
            w1 = w1s[i]
            if w1 & W1_VALID:
                pfn = (w1 >> W1_PFN_SHIFT) & W1_PFN_MASK
                table._w0[i] = va
                w1s[i] = (pfn << W1_PFN_SHIFT) | ((tgid & W1_TGID_MASK) << W1_TGID_SHIFT) | W1_USED
                table.consumed += 1
                table.tail_index = 1 if i == table.num_entries - 1 else i + 1
                leaf.raw = (PTE_MFOEABLE | PTE_PRESENT | (PTE_RW if writable else 0)
                            | ((pfn << PFN_SHIFT) & PFN_MASK))
                if len(tlb_map) >= tlb.entries:
                    tlb_map.popitem(last=False)
                tlb_map[key] = (pfn, writable)
                return MFOE_HIT, self.params.mfoe_hit_cycles, 0, 0, pfn
            kind, penalty = MFOE_MISS, self.params.mfoe_miss_penalty_cycles
        else:
            kind, penalty = KERNEL_FAULT, 0
            if leaf is None:
                leaf = proc.page_table.construct_path(va)
        # KernelModel.inline_install: allocate, then book and map, with
        # the booking's duplicate check before the first write
        pfn = kernel.allocator.allocate()
        ledger = kernel.ledger
        rmap = ledger.rmap
        if pfn in rmap:
            raise RuntimeError(f"frame {pfn} already reverse-mapped")
        leaf.raw = ((raw & PTE_MFOEABLE) | PTE_PRESENT | (PTE_RW if writable else 0)
                    | ((pfn << PFN_SHIFT) & PFN_MASK))
        rmap[pfn] = (tgid, va)
        ledger.mm_counter[tgid] += 1
        kernel_cycles = kernel.sample_baseline_cycles()
        if len(tlb_map) >= tlb.entries:
            tlb_map.popitem(last=False)
        tlb_map[key] = (pfn, writable)
        return kind, penalty + kernel_cycles, penalty, kernel_cycles, pfn
