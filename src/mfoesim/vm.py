"""Virtual address handling, page table entries, the page table, and the
physical frame allocator."""
from __future__ import annotations

from collections import deque
from typing import Iterator, Optional, Sequence

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
OFFSET_MASK = PAGE_SIZE - 1

# User-space canonical addresses keep bits 63..48 clear.
USER_VA_LIMIT = 1 << 48

PTE_PRESENT = 1 << 0
PTE_RW = 1 << 1
PTE_MFOEABLE = 1 << 2
# Software bit repurposed as the per-entry fault lock.
PTE_LOCK = 1 << 9
PFN_SHIFT = PAGE_SHIFT
PFN_MASK = ((1 << 48) - 1) & ~OFFSET_MASK  # bits 47..12


class CanonicalityError(ValueError):
    """Raised for addresses with any of bits 63..48 set."""


class OutOfMemory(RuntimeError):
    """Raised when no free frame is left."""


def check_canonical(va: int) -> int:
    if va < 0 or va >= USER_VA_LIMIT:
        raise CanonicalityError(f"address {va:#x} is not a canonical user address")
    return va


def prefault_word(tgid: int, writable: bool) -> int:
    """The raw word of a not-yet-faulted, offload-eligible leaf of tgid."""
    return PTE_MFOEABLE | (PTE_RW if writable else 0) | ((tgid << PFN_SHIFT) & PFN_MASK)


class PageTableEntry:
    """A 64-bit leaf entry.

    bit 0 present, bit 1 rw, bit 2 mfoeable, bit 9 lock. Bits 47..12 hold
    the PFN while present; with present clear and mfoeable set they hold
    the owning thread-group id instead.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: int = 0):
        self.raw = raw

    @property
    def present(self) -> bool:
        return bool(self.raw & PTE_PRESENT)

    @property
    def rw(self) -> bool:
        return bool(self.raw & PTE_RW)

    @property
    def mfoeable(self) -> bool:
        return bool(self.raw & PTE_MFOEABLE)

    @property
    def locked(self) -> bool:
        return bool(self.raw & PTE_LOCK)

    @property
    def pfn_or_tgid(self) -> int:
        return (self.raw & PFN_MASK) >> PFN_SHIFT

    def stamp_prefault(self, tgid: int, writable: bool) -> None:
        """Mark a not-yet-faulted page as offload-eligible for tgid."""
        self.raw = (self.raw & PTE_LOCK) | prefault_word(tgid, writable)

    def install_frame(self, pfn: int, writable: bool) -> None:
        keep = self.raw & (PTE_LOCK | PTE_MFOEABLE)
        self.raw = keep | PTE_PRESENT | (PTE_RW if writable else 0)
        self.raw |= (pfn << PFN_SHIFT) & PFN_MASK

    def clear(self) -> None:
        self.raw = 0

    def __repr__(self) -> str:
        return f"PageTableEntry({self.raw:#018x})"


class PageTable:
    """The leaf entries of one address space, in one dict keyed by virtual
    page number.

    It stands in for the hardware's four-level radix tree. A walk costs a
    constant number of cycles in the model and no output reads the
    tree's shape, so its inner nodes are not modeled and take no frames.
    """

    def __init__(self) -> None:
        self.entries: dict[int, PageTableEntry] = {}

    def construct_path(self, va: int) -> PageTableEntry:
        """Return the leaf for va, creating it if it is not built yet."""
        vpn = check_canonical(va) >> PAGE_SHIFT
        leaf = self.entries.get(vpn)
        if leaf is None:
            leaf = self.entries[vpn] = PageTableEntry()
        return leaf

    def walk(self, va: int) -> Optional[PageTableEntry]:
        """Return the leaf entry for va, or None while it is unbuilt."""
        return self.entries.get(check_canonical(va) >> PAGE_SHIFT)

    def iter_leaves(self) -> Iterator[tuple[int, PageTableEntry]]:
        """Yield (va, entry) for every constructed leaf, lowest address first."""
        entries = self.entries
        for vpn in sorted(entries):
            yield vpn << PAGE_SHIFT, entries[vpn]


class FrameAllocator:
    """A FIFO free list of physical frame numbers.

    Frames are handed out one at a time, lowest first. They come back in
    bulk: free() takes a sequence, checks all of it, then appends it to
    the back of the list in the order given.
    """

    def __init__(self, total_frames: int):
        if total_frames < 1:
            raise ValueError("bad allocator geometry")
        self.total_frames = total_frames
        self.free_list: deque[int] = deque(range(total_frames))
        self.allocated: set[int] = set()

    def allocate(self) -> int:
        if not self.free_list:
            raise OutOfMemory("no free frames")
        pfn = self.free_list.popleft()
        self.allocated.add(pfn)
        return pfn

    def free(self, pfns: Sequence[int]) -> None:
        """Return pfns to the free list, in order; an unallocated or
        repeated frame raises ValueError and changes nothing."""
        freed = set(pfns)
        if len(freed) != len(pfns) or not freed <= self.allocated:
            seen: set[int] = set()
            for pfn in pfns:
                if pfn not in self.allocated:
                    raise ValueError(f"frame {pfn} is not allocated")
                if pfn in seen:
                    raise ValueError(f"frame {pfn} is freed twice")
                seen.add(pfn)
        # one remove() at a time: a bulk difference_update would rehash the
        # set smaller, and the new table beside the old raises peak memory
        remove = self.allocated.remove
        for pfn in pfns:
            remove(pfn)
        self.free_list.extend(pfns)

    def free_count(self) -> int:
        return len(self.free_list)

    def outstanding(self) -> int:
        return len(self.allocated)
