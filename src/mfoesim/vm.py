"""Virtual address handling, page table entries, the 4-level radix table,
and the physical frame allocator."""
from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
LEVELS = 4
LEVEL_BITS = 9
INDEX_MASK = (1 << LEVEL_BITS) - 1
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


def decompose(va: int) -> tuple[int, int, int, int, int]:
    """Split a canonical address into (root..leaf indices, page offset).

    Index order is root first: bits 47..39, 38..30, 29..21, 20..12,
    then the 12-bit offset.
    """
    check_canonical(va)
    return (
        (va >> 39) & INDEX_MASK,
        (va >> 30) & INDEX_MASK,
        (va >> 21) & INDEX_MASK,
        (va >> 12) & INDEX_MASK,
        va & OFFSET_MASK,
    )


def recompose(i4: int, i3: int, i2: int, i1: int, offset: int = 0) -> int:
    for idx in (i4, i3, i2, i1):
        if not 0 <= idx <= INDEX_MASK:
            raise ValueError(f"table index {idx} out of range")
    if not 0 <= offset < PAGE_SIZE:
        raise ValueError(f"offset {offset} out of range")
    return (i4 << 39) | (i3 << 30) | (i2 << 21) | (i1 << 12) | offset


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

    def try_lock(self) -> bool:
        """Test-and-set the lock bit; True when this caller acquired it."""
        if self.raw & PTE_LOCK:
            return False
        self.raw |= PTE_LOCK
        return True

    def unlock(self) -> None:
        self.raw &= ~PTE_LOCK

    def stamp_prefault(self, tgid: int, writable: bool) -> None:
        """Mark a not-yet-faulted page as offload-eligible for tgid."""
        keep = self.raw & PTE_LOCK
        self.raw = keep | PTE_MFOEABLE | (PTE_RW if writable else 0)
        self.raw |= (tgid << PFN_SHIFT) & PFN_MASK

    def install_frame(self, pfn: int, writable: bool) -> None:
        keep = self.raw & (PTE_LOCK | PTE_MFOEABLE)
        self.raw = keep | PTE_PRESENT | (PTE_RW if writable else 0)
        self.raw |= (pfn << PFN_SHIFT) & PFN_MASK

    def clear(self) -> None:
        self.raw = 0

    def __repr__(self) -> str:
        return f"PageTableEntry({self.raw:#018x})"


class PageTable:
    """4-level radix tree of dict nodes with PageTableEntry leaves.

    Intermediate nodes are modeled as dicts and draw no frames from the
    frame allocator.
    """

    def __init__(self) -> None:
        self.root: dict = {}

    def construct_path(self, va: int) -> PageTableEntry:
        """Walk to the leaf for va, creating intermediate nodes as needed."""
        i4, i3, i2, i1, _ = decompose(va)
        node = self.root
        for idx in (i4, i3, i2):
            nxt = node.get(idx)
            if nxt is None:
                nxt = {}
                node[idx] = nxt
            node = nxt
        leaf = node.get(i1)
        if leaf is None:
            leaf = PageTableEntry()
            node[i1] = leaf
        return leaf

    def walk(self, va: int) -> Optional[PageTableEntry]:
        """Return the leaf entry for va, or None while the path is unbuilt."""
        i4, i3, i2, i1, _ = decompose(va)
        node = self.root
        for idx in (i4, i3, i2):
            node = node.get(idx)
            if node is None:
                return None
        return node.get(i1)

    def iter_leaves(self) -> Iterator[tuple[int, PageTableEntry]]:
        """Yield (va, entry) for every constructed leaf."""
        for i4, n3 in self.root.items():
            for i3, n2 in n3.items():
                for i2, n1 in n2.items():
                    for i1, leaf in n1.items():
                        yield recompose(i4, i3, i2, i1), leaf


class FrameAllocator:
    """A FIFO free list of physical frame numbers.

    Frames are handed out lowest first, and freed frames rejoin at the
    back of the list.
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

    def free(self, pfn: int) -> None:
        if pfn not in self.allocated:
            raise ValueError(f"frame {pfn} is not allocated")
        self.allocated.remove(pfn)
        self.free_list.append(pfn)

    def free_count(self) -> int:
        return len(self.free_list)

    def outstanding(self) -> int:
        return len(self.allocated)
