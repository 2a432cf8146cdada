"""Per-core pre-allocation ring tables.

Layout (16 bytes per slot, little-endian):

  slot 0 header   4 x u32: head_index, tail_index, num_entries, locks
  slots 1..n-1    u64 word0 = faulting virtual address
                  u64 word1 = pfn[63:30] | tgid[29:14] | used[1] | valid[0]

num_entries counts all 16-byte slots including the header, so a table
serialized from num_entries slots is exactly 16 * num_entries bytes and
holds at most num_entries - 1 frames. head_index and tail_index are
1-based and wrap from num_entries - 1 back to 1. The per-core control
register that publishes a table to the walker carries num_entries in 16
bits, so a table has fewer than MAX_NUM_ENTRIES slots.

Entry life cycle: empty (valid=0, used=0) -> valid (producer published a
frame) -> used (consumer took the frame, left va/tgid/pfn behind for the
deferred bookkeeping pass) -> empty again once take_used (one slot, the
pass) or take_used_of (every slot of one tgid, exit cleanup) takes it.
drain_valid empties the valid slots when offloading is turned off.
Only produce restocks a slot, always at head, so walking head forward
over empty slots reaches the oldest used entry before any valid one.
Two single-threaded callers write the words outside this class, and
no other code reads them: MfoeEngine.serve_fault takes the tail frame
inline, as consume would, and KernelModel.serial_pass_step takes a used
head entry and restocks its slot inline, as take_used and produce would.

The produce and consume fast paths are single-producer single-consumer
and lock free: full/empty decisions come from the entry state bits, never
from comparing indices, and each transition is published with one word1
store after any other fields are in place. The header cleanup lock only
serializes the slow paths (harvest scans, the deferred pass and exit
cleanup).

A table also counts its used entries, so the deferred pass can pass over
a table with nothing to book without reading it. The count is kept as two
single-writer totals, entries ever consumed (the consumer's) and entries
ever released (the cleanup side's, which the lock serializes), because
the two sides run on different threads and a shared read-modify-write
counter would lose updates.
"""
from __future__ import annotations

import struct
import threading
from enum import Enum
from typing import NamedTuple, Optional

MAX_NUM_ENTRIES = 1 << 16

W1_VALID = 1 << 0
W1_USED = 1 << 1
W1_TGID_SHIFT = 14
W1_TGID_MASK = (1 << 16) - 1
W1_PFN_SHIFT = 30
W1_PFN_MASK = (1 << 34) - 1

HEADER_CLEANUP_LOCK = 1 << 0


class ProduceStatus(Enum):
    PRODUCED = "produced"
    FULL = "full"
    NEEDS_HARVEST = "needs_harvest"


# Bound once: every restock returns and checks it.
PRODUCED = ProduceStatus.PRODUCED


class EntryState(Enum):
    EMPTY = "empty"
    VALID = "valid"
    USED = "used"


class HarvestRecord(NamedTuple):
    va: int
    tgid: int
    pfn: int


def pack_word1(pfn: int, tgid: int, used: bool, valid: bool) -> int:
    return (
        ((pfn & W1_PFN_MASK) << W1_PFN_SHIFT)
        | ((tgid & W1_TGID_MASK) << W1_TGID_SHIFT)
        | (W1_USED if used else 0)
        | (W1_VALID if valid else 0)
    )


class PreallocTable:
    """One core's frame ring. Producer refills at head, consumer takes at tail."""

    def __init__(self, num_entries: int):
        if num_entries < 2:
            raise ValueError("need the header slot plus at least one entry")
        if num_entries >= MAX_NUM_ENTRIES:
            raise ValueError(f"table width must be below {MAX_NUM_ENTRIES}, got {num_entries}")
        self.num_entries = num_entries
        self.head_index = 1
        self.tail_index = 1
        self.locks = 0
        # used == consumed - released; see the module docstring.
        self.consumed = 0
        self.released = 0
        self._w0 = [0] * num_entries
        self._w1 = [0] * num_entries
        # Backs the test-and-set on the header lock bits only; the
        # produce/consume path never touches it.
        self._tas = threading.Lock()

    @property
    def capacity(self) -> int:
        return self.num_entries - 1

    @property
    def used(self) -> int:
        """Entries in the used state, from the counts (used_count() scans)."""
        return self.consumed - self.released

    def _next(self, index: int) -> int:
        return 1 if index == self.num_entries - 1 else index + 1

    # producer side

    def produce(self, pfn: int) -> ProduceStatus:
        """Publish one frame at head. Only the refill thread calls this."""
        i = self.head_index
        w1 = self._w1[i]
        if w1 & W1_VALID:
            return ProduceStatus.FULL
        if w1 & W1_USED:
            return ProduceStatus.NEEDS_HARVEST
        # pack_word1(pfn, 0, used=False, valid=True), and _next(i), inline
        self._w1[i] = ((pfn & W1_PFN_MASK) << W1_PFN_SHIFT) | W1_VALID
        self.head_index = 1 if i == self.num_entries - 1 else i + 1
        return PRODUCED

    def harvest(self, max_records: Optional[int] = None) -> list[HarvestRecord]:
        """Collect used entries starting at head, clearing them to empty.

        Does not advance head: the caller refills the freed slots with
        produce, which walks head forward over them. Caller must hold the
        cleanup lock or be the sole post-fault thread.
        """
        out: list[HarvestRecord] = []
        i = self.head_index
        limit = self.capacity if max_records is None else max_records
        while len(out) < limit and (record := self.take_used(i)) is not None:
            out.append(record)
            i = self._next(i)
        return out

    # consumer side

    def consume(self, va: int, tgid: int) -> Optional[int]:
        """Take the frame at tail, leaving a used record of (va, tgid, pfn).

        Returns the frame number, or None when the tail entry holds no
        valid frame. word0 is written before the word1 store that flips
        valid to used, so a torn read on the producer side never sees a
        used entry with a stale address.
        """
        i = self.tail_index
        w1 = self._w1[i]
        if not w1 & W1_VALID:
            return None
        pfn = (w1 >> W1_PFN_SHIFT) & W1_PFN_MASK
        self._w0[i] = va
        self._w1[i] = pack_word1(pfn, tgid, used=True, valid=False)
        self.consumed += 1
        self.tail_index = self._next(i)
        return pfn

    # slow-path primitives (cleanup lock held)

    def try_cleanup_lock(self) -> bool:
        with self._tas:
            if self.locks & HEADER_CLEANUP_LOCK:
                return False
            self.locks |= HEADER_CLEANUP_LOCK
            return True

    def release_cleanup_lock(self) -> None:
        with self._tas:
            self.locks &= ~HEADER_CLEANUP_LOCK

    def entry_state(self, index: int) -> EntryState:
        w1 = self._w1[self._check_index(index)]
        if w1 & W1_VALID:
            return EntryState.VALID
        if w1 & W1_USED:
            return EntryState.USED
        return EntryState.EMPTY

    def record_at(self, index: int) -> HarvestRecord:
        i = self._check_index(index)
        w1 = self._w1[i]
        if not w1 & W1_USED:
            raise ValueError(f"entry {index} is not used")
        return HarvestRecord(
            va=self._w0[i],
            tgid=(w1 >> W1_TGID_SHIFT) & W1_TGID_MASK,
            pfn=(w1 >> W1_PFN_SHIFT) & W1_PFN_MASK,
        )

    def take_used(self, index: int) -> Optional[HarvestRecord]:
        """Empty a used slot and return its record; None, changing nothing,
        when the slot is not used."""
        if self.entry_state(index) is not EntryState.USED:
            return None
        record = self.record_at(index)
        self._w1[index] = 0
        self._w0[index] = 0
        self.released += 1
        return record

    def take_used_of(self, tgid: int) -> list[tuple[int, int]]:
        """Empty every used slot tgid left, in index order, and return
        their (va, pfn) pairs (exit cleanup). One scan of word1 finds them."""
        w0, w1s = self._w0, self._w1
        # a used entry never has valid set; slot 0 (the header) is never
        # written here, so its word1 stays 0 and cannot match
        want = (tgid << W1_TGID_SHIFT) | W1_USED
        mask = (W1_TGID_MASK << W1_TGID_SHIFT) | W1_USED
        taken = [i for i, w1 in enumerate(w1s) if w1 & mask == want]
        pairs = [(w0[i], (w1s[i] >> W1_PFN_SHIFT) & W1_PFN_MASK) for i in taken]
        for i in taken:
            w1s[i] = 0
            w0[i] = 0
        self.released += len(taken)
        return pairs

    def head_is_empty(self) -> bool:
        return not self._w1[self.head_index] & (W1_VALID | W1_USED)

    def tail_is_empty(self) -> bool:
        return not self._w1[self.tail_index] & (W1_VALID | W1_USED)

    def skip_head(self) -> None:
        """Advance head past an emptied slot when no frame is on hand."""
        if not self.head_is_empty():
            raise ValueError("head entry is not empty")
        self.head_index = self._next(self.head_index)

    def drain_valid(self) -> list[int]:
        """Clear every valid entry, returning their frames (disable path)."""
        pfns = []
        for i in self.data_indices():
            w1 = self._w1[i]
            if w1 & W1_VALID:
                pfns.append((w1 >> W1_PFN_SHIFT) & W1_PFN_MASK)
                self._w1[i] = 0
                self._w0[i] = 0
        return pfns

    def _check_index(self, index: int) -> int:
        if not 1 <= index <= self.capacity:
            raise IndexError(f"entry index {index} out of range")
        return index

    # inspection and serialization

    def data_indices(self) -> range:
        return range(1, self.num_entries)

    def valid_count(self) -> int:
        return sum(1 for w1 in self._w1[1:] if w1 & W1_VALID)

    def used_count(self) -> int:
        return sum(1 for w1 in self._w1[1:] if w1 & W1_USED)

    def valid_pfns(self) -> list[int]:
        return [
            (w1 >> W1_PFN_SHIFT) & W1_PFN_MASK
            for w1 in self._w1[1:]
            if w1 & W1_VALID
        ]

    def to_bytes(self) -> bytes:
        parts = [
            struct.pack(
                "<IIII", self.head_index, self.tail_index, self.num_entries, self.locks
            )
        ]
        for i in self.data_indices():
            parts.append(struct.pack("<QQ", self._w0[i], self._w1[i]))
        return b"".join(parts)
