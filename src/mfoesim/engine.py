"""The hardware fault path: TLB, page walk dispatch, table consumption
under the per-entry bit lock, and fallback into the kernel model.

The whole minor-fault protocol lives in PteFaultSm as one generator that
yields at each atomic-action boundary, and yields a wait predicate where
a handler spins on another's lock. The concurrency tests interleave
step() calls from several handlers aimed at the same leaf to exercise
the lock protocol, and run() steps one handler to completion. The
generator records how the handler ended in its result attribute on its
last action and returns nothing, so a finished fault costs no
StopIteration carrying a value.

Each layer has one job. Tlb owns the TLB's LRU. MfoeEngine.serve_fault
serves a fault, handed a leaf that is not present and the VMA that
holds the address: it picks a frame from the core's table or the
kernel, updates the PTE and books the page, and fills no TLB entry; as
in the MMU, the TLB fill is the caller's last step. MfoeEngine.access
dispatches a touch for library callers by calling the owners in turn:
check_canonical, Tlb.lookup, PageTable.walk, ProcessModel.find_vma,
serve_fault and Tlb.insert, and returns a FaultOutcome. The simulator
plays the MMU in its own touch loop: it runs the TLB's LRU on the Tlb's
own map, serves TLB and walk hits there, and calls serve_fault for a
fault, handing over the thread's own region VMA, so a simulated fault
searches for nothing. The enum members the per-touch
path compares or returns are bound to module names once, since a module
global reads several times faster than an Enum class attribute.

serve_fault is straight-line code with no handler object, generator or
helper call, as KernelModel.serial_pass_step books a record: a table
hit is PreallocTable.consume and PageTableEntry.install_frame taken on
the table's tail words and the leaf word, and the kernel path is
KernelModel.inline_install taken on the leaf word, the ledger's rmap and
mm_counter, with only FrameAllocator.allocate and the latency draw
called. PteFaultSm, which calls those helpers, stays the model of the
lock protocol and the reference serve_fault is tested against; the
helpers stay for it and for library callers.
"""
from __future__ import annotations

from collections import OrderedDict
from enum import Enum
from typing import Callable, Generator, NamedTuple, Optional

from .kernel import VMA, FaultEvent, KernelModel, ProcessModel
from .prealloc import W1_PFN_MASK, W1_PFN_SHIFT, W1_TGID_MASK, W1_TGID_SHIFT, W1_USED, W1_VALID
from .vm import (
    PAGE_SHIFT,
    PFN_MASK,
    PFN_SHIFT,
    PTE_LOCK,
    PTE_MFOEABLE,
    PTE_PRESENT,
    PTE_RW,
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


class FaultOutcome(NamedTuple):
    kind: OutcomeKind
    cycles: int
    penalty_cycles: int = 0
    kernel_cycles: int = 0
    pfn: Optional[int] = None


class Tlb:
    """Fully associative, LRU, tagged by the key (tgid, vpn). Holds only
    present translations.

    _map is ordered least recently used first. lookup and insert are the
    LRU; the simulator's touch loop takes the same actions on _map
    inline."""

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

    MfoeEngine.serve_fault serves faults without it, taking an
    uncontended handler's actions; this class models contention, for
    the interleaving tests and callers that step handlers themselves.

    The protocol is the generator _protocol(), which yields after each
    atomic action and, on its last one, sets result to the SmResult just
    before it returns. Both the table path and the kernel path take the
    lock through _acquire(); in its spin wait it yields the predicate
    _lock_clear_and_present, elsewhere None. step() advances it by one
    action and sets done when it ends; runnable() is False while a
    yielded predicate is false, so a scheduler only advances handlers
    that can make progress. run() drives a handler with no concurrent
    owner by calling step() while it is runnable, from wherever step()
    left it. At a false predicate, which nothing else can make true, it
    leaves the generator suspended there and raises RuntimeError. How
    the handler got its frame, from the table or inline, is read from
    result, the one record of how it ended.
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
        return self.result is SmResult.MFOE_HIT

    @property
    def allocated_inline(self) -> bool:
        return self.result in (SmResult.MFOE_MISS_KERNEL, SmResult.KERNEL)

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
        while not self.done:
            if not self.runnable():
                raise RuntimeError("handler blocked with no concurrent progress")
            self.step()
        return self.result

    def _lock_clear_and_present(self) -> bool:
        return not self.leaf.locked and self.leaf.present

    def _acquire(self, leaf: PageTableEntry) -> Generator[Optional[Callable[[], bool]], None, bool]:
        """Take leaf's bit lock: True once it is held on a leaf still not
        present, False once the handler has ended, its result set. A
        handler that finds the lock held spins until the page is
        installed and reuses it (WAITED); one that finds the page present
        under the lock releases it and reuses the page (REUSE)."""
        # The lock's test-and-set: the test of PTE_LOCK on leaf.raw and
        # the write that sets it sit in one atomic action, between yields.
        raw = leaf.raw
        if raw & PTE_LOCK:
            yield self._lock_clear_and_present
            self.pfn = leaf.pfn_or_tgid
            self.result = SmResult.WAITED
            return False
        leaf.raw = raw | PTE_LOCK
        yield
        if leaf.raw & PTE_PRESENT:
            self.pfn = leaf.pfn_or_tgid
            leaf.raw &= _UNLOCKED
            self.result = SmResult.REUSE
            return False
        yield
        return True

    def _protocol(self) -> Generator[Optional[Callable[[], bool]], None, None]:
        leaf = self.leaf
        mfoe_missed = False
        if leaf is not None and leaf.raw & PTE_PRESENT:
            self.pfn = leaf.pfn_or_tgid
            self.result = SmResult.REUSE
            return
        if self.mfoe_eligible and leaf is not None and leaf.raw & PTE_MFOEABLE:
            yield
            if not (yield from self._acquire(leaf)):
                return
            pfn = self.kernel.tables[self.core].consume(self.va, self.proc.tgid)
            if pfn is not None:
                self.pfn = pfn
                yield
                leaf.install_frame(pfn, self.vma.writable)
                yield
                leaf.raw &= _UNLOCKED
                self.result = SmResult.MFOE_HIT
                return
            yield
            leaf.raw &= _UNLOCKED
            mfoe_missed = True
        yield
        # The ordinary kernel handler, also the fallback on an empty table.
        if leaf is None:
            leaf = self.leaf = self.proc.page_table.construct_path(self.va)
        if not (yield from self._acquire(leaf)):
            return
        try:
            self.pfn = self.kernel.inline_install(self.proc, self.va, self.vma.writable, leaf)
        except BaseException:
            # a handler that fails (no frame left, a double booking)
            # releases its lock, so the leaf stays usable
            leaf.raw &= _UNLOCKED
            raise
        yield
        leaf.raw &= _UNLOCKED
        self.result = SmResult.MFOE_MISS_KERNEL if mfoe_missed else SmResult.KERNEL


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
        """Resolve one touch of va from core at time now (cycles).

        The MMU's steps, each by the layer that owns it: check_canonical,
        Tlb.lookup, PageTable.walk and, for a leaf that is not present,
        ProcessModel.find_vma and serve_fault. A TLB or walk hit for a
        write to a read-only page is a protection fault. Any path that
        resolves the page leaves its translation in the TLB through
        Tlb.insert, a fault's with its VMA's rw.
        """
        vpn = check_canonical(va) >> PAGE_SHIFT
        proc = self.core_proc[core]
        key = (proc.tgid, vpn)
        tlb = self.tlb
        kind = TLB_HIT
        translation = tlb.lookup(key)
        if translation is None:
            leaf = proc.page_table.walk(va)
            raw = 0 if leaf is None else leaf.raw
            if not raw & PTE_PRESENT:
                vma = proc.find_vma(va)
                out = FaultOutcome(*self.serve_fault(core, proc, va, leaf, raw, vma, now))
                if vma is not None:
                    tlb.insert(key, out.pfn, vma.writable)
                return out
            kind = WALK_HIT
            translation = leaf.pfn_or_tgid, leaf.rw
        pfn, rw = translation
        if is_write and not rw:
            self.kernel.protection_faults.append(FaultEvent(proc.tgid, va, now))
            return FaultOutcome(PROTECTION_FAULT, 0, pfn=pfn)
        if kind is WALK_HIT:
            tlb.insert(key, pfn, rw)
        return FaultOutcome(kind, 0, pfn=pfn)

    def serve_fault(
        self,
        core: int,
        proc: ProcessModel,
        va: int,
        leaf: Optional[PageTableEntry],
        raw: int,
        vma: Optional[VMA],
        now: int,
    ) -> tuple[OutcomeKind, int, int, int, Optional[int]]:
        """Serve a fault on va from core at time now, as the fields of a
        FaultOutcome in order: proc is core's process, leaf the entry the
        walk found (None while unbuilt), raw the word it read there, not
        present (0 for no leaf), and vma the VMA that holds va (None when
        none does: a segv). A caller that knows which region va lies in
        hands over its VMA, so nothing is looked up twice. It serves the
        fault only: as in the MMU, caching the new translation is the
        caller's last step.

        The fault is served in straight-line code: an uncontended
        PteFaultSm's actions in its order, without the lock bit, which no
        other handler can observe, and with the table's consume, the
        leaf's install_frame and the kernel's inline_install taken inline
        on their words and the ledger. The kernel path builds an unbuilt
        leaf, takes its frame from FrameAllocator.allocate, which raises
        OutOfMemory with nothing else changed, and checks the booking
        before it writes anything, so a frame already in the reverse map
        raises RuntimeError with only that frame taken from the
        allocator. Each error leaves what PteFaultSm leaves. A leaf whose
        lock is held, as only a PteFaultSm stepped by hand leaves it,
        raises RuntimeError before any change, as PteFaultSm.run() does.
        """
        kernel = self.kernel
        if vma is None:
            kernel.segv_events.append(FaultEvent(proc.tgid, va, now))
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
        return kind, penalty + kernel_cycles, penalty, kernel_cycles, pfn
