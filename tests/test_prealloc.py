"""Ring table state machine and wire layout.

The serialization golden below is computed with literal shift arithmetic
rather than the module's own packing helper, so a layout regression cannot
hide behind its own encoder.
"""
import random
import struct
import sys
import threading
import time

import pytest

from mfoesim.prealloc import EntryState, HarvestRecord, PreallocTable, ProduceStatus, pack_word1


def full_table(n=5, first_pfn=100):
    t = PreallocTable(n)
    for k in range(t.capacity):
        assert t.produce(first_pfn + k) is ProduceStatus.PRODUCED
    return t


def test_geometry_validation():
    with pytest.raises(ValueError):
        PreallocTable(1)  # header only, no data slot
    with pytest.raises(ValueError):
        PreallocTable(1 << 16)  # would not fit the register field
    assert PreallocTable((1 << 16) - 1).capacity == (1 << 16) - 2
    assert PreallocTable(2).capacity == 1


def test_produce_until_full():
    t = PreallocTable(5)
    heads = []
    for k in range(4):
        assert t.produce(k) is ProduceStatus.PRODUCED
        heads.append(t.head_index)
    assert heads == [2, 3, 4, 1], "head wraps past the last slot back to 1"
    assert t.produce(99) is ProduceStatus.FULL
    assert t.valid_count() == 4


def test_consume_empty_returns_none():
    t = PreallocTable(5)
    assert t.consume(0x1000, 7) is None


def test_fifo_order():
    t = full_table()
    assert [t.consume(0x1000 * i, 9) for i in range(4)] == [100, 101, 102, 103]
    assert t.consume(0x9000, 9) is None
    assert t.used_count() == 4 and t.valid_count() == 0


def test_consume_leaves_used_record():
    t = full_table()
    pfn = t.consume(0x5000_0000, 77)
    assert pfn == 100
    assert t.tail_index == 2
    assert t.entry_state(1) is EntryState.USED
    assert t.record_at(1) == HarvestRecord(va=0x5000_0000, tgid=77, pfn=100)


def test_take_used_books_one_used_slot():
    t = full_table()
    t.consume(0x5000_0000, 77)
    t.consume(0x5000_1000, 77)
    assert t.take_used(2) == HarvestRecord(va=0x5000_1000, tgid=77, pfn=101)
    assert t.entry_state(2) is EntryState.EMPTY
    assert t.used == t.used_count() == 1
    assert t.take_used(1) == HarvestRecord(va=0x5000_0000, tgid=77, pfn=100)
    assert t.used == t.used_count() == 0


@pytest.mark.parametrize("take, nothing", [
    (lambda t: t.take_used(2), None),
    (lambda t: t.take_used(4), None),
    (lambda t: t.take_used_of(78), []),
], ids=["valid", "empty", "another-tgid"])
def test_take_used_leaves_a_slot_it_does_not_book_alone(take, nothing):
    t = PreallocTable(5)
    for pfn in (100, 101, 102):
        t.produce(pfn)
    t.consume(0x5000_0000, 77)  # slot 1 used by 77, 2 and 3 valid, 4 empty
    before = (t.to_bytes(), t.consumed, t.released)
    assert take(t) == nothing
    assert (t.to_bytes(), t.consumed, t.released) == before


def test_take_used_of_takes_one_tgids_slots_in_index_order():
    t = full_table(n=8)
    for k, tgid in enumerate((5, 6, 5, 5, 6, 7)):
        t.consume(0x1000 * k, tgid)
    t.take_used(3)  # slot 3 empty, 7 valid, the rest used
    consumed, released = t.consumed, t.released
    assert t.take_used_of(5) == [(0x0000, 100), (0x3000, 103)]
    assert (t.consumed, t.released) == (consumed, released + 2)
    assert [t.entry_state(i) for i in (1, 3, 4, 7)] == (
        [EntryState.EMPTY] * 3 + [EntryState.VALID])
    assert [t.record_at(i).tgid for i in (2, 5, 6)] == [6, 6, 7]
    assert t.take_used_of(5) == []
    assert t.used == t.used_count() == 3


def test_produce_onto_used_slot_wants_harvest():
    t = full_table()
    for i in range(4):
        t.consume(0x1000 * i, 5)
    assert t.produce(200) is ProduceStatus.NEEDS_HARVEST


def test_harvest_clears_used_run_without_moving_head():
    t = full_table()
    for i in range(3):
        t.consume(0x2000 + 0x1000 * i, 42)
    assert t.head_index == 1
    records = t.harvest()
    assert records == [
        HarvestRecord(va=0x2000, tgid=42, pfn=100),
        HarvestRecord(va=0x3000, tgid=42, pfn=101),
        HarvestRecord(va=0x4000, tgid=42, pfn=102),
    ]
    assert t.head_index == 1, "produce refills the freed slots itself"
    assert [t.entry_state(i) for i in t.data_indices()] == [
        EntryState.EMPTY,
        EntryState.EMPTY,
        EntryState.EMPTY,
        EntryState.VALID,
    ]
    for k in range(3):
        assert t.produce(300 + k) is ProduceStatus.PRODUCED
    assert t.head_index == 4
    assert t.produce(999) is ProduceStatus.FULL
    # the surviving old frame is still next in line
    assert t.consume(0x7000, 42) == 103


def test_harvest_record_cap():
    t = full_table()
    for i in range(4):
        t.consume(0x1000 * i, 5)
    assert len(t.harvest(max_records=2)) == 2
    assert t.used_count() == 2
    # head has not moved, so a fresh scan stops at the emptied slot;
    # the remaining records come into reach once produce walks head on.
    assert t.harvest() == []
    assert t.produce(500) is ProduceStatus.PRODUCED
    assert t.produce(501) is ProduceStatus.PRODUCED
    assert [r.pfn for r in t.harvest()] == [102, 103]


def test_random_traffic_keeps_fifo_and_counts():
    rng = random.Random(3)
    t = PreallocTable(9)
    produced, consumed, harvested = [], [], []
    next_pfn = 1
    for _ in range(3000):
        op = rng.random()
        if op < 0.45:
            status = t.produce(next_pfn)
            if status is ProduceStatus.PRODUCED:
                produced.append(next_pfn)
                next_pfn += 1
            elif status is ProduceStatus.NEEDS_HARVEST:
                harvested.extend(t.harvest())
        elif op < 0.9:
            pfn = t.consume(rng.randrange(1 << 30) << 12, 8)
            if pfn is not None:
                consumed.append(pfn)
        else:
            harvested.extend(t.harvest())
        assert t.valid_count() + t.used_count() <= t.capacity
    assert consumed == produced[: len(consumed)], "strict FIFO across wraps"
    assert {r.pfn for r in harvested} <= set(consumed)
    assert len({r.pfn for r in harvested}) == len(harvested)


def test_skip_head_advances_only_over_an_empty_slot():
    t = full_table()
    with pytest.raises(ValueError):
        t.skip_head()  # head slot holds a frame
    t.consume(0x1000, 5)
    with pytest.raises(ValueError):
        t.skip_head()  # head slot holds a used record
    t.harvest()
    t.skip_head()
    assert t.head_index == 2
    assert t.entry_state(1) is EntryState.EMPTY


def test_drain_valid_empties_table():
    t = full_table()
    t.consume(0x1000, 5)
    assert t.drain_valid() == [101, 102, 103]
    assert t.valid_count() == 0
    assert t.used_count() == 1, "drain leaves used records for bookkeeping"


def test_entry_index_bounds():
    t = PreallocTable(5)
    for bad in (0, 5, -1):
        with pytest.raises(IndexError):
            t.entry_state(bad)
        with pytest.raises(IndexError):
            t.take_used(bad)
    with pytest.raises(ValueError):
        t.record_at(1)  # empty, not used


def test_serialized_layout_golden():
    t = PreallocTable(4)
    for pfn in (100, 200, 300):
        t.produce(pfn)
    t.consume(0x7000, 5)
    expected = b"".join(
        [
            struct.pack("<IIII", 1, 2, 4, 0),  # head, tail, slots, locks
            struct.pack("<QQ", 0x7000, (100 << 30) | (5 << 14) | 0b10),
            struct.pack("<QQ", 0, (200 << 30) | 0b01),
            struct.pack("<QQ", 0, (300 << 30) | 0b01),
        ]
    )
    blob = t.to_bytes()
    assert len(blob) == 16 * t.num_entries
    assert blob == expected


def test_produce_and_consume_write_the_words_pack_word1_packs():
    # produce and consume build word1 inline; pfns and tgids past their
    # fields are masked as pack_word1 masks them
    rng = random.Random(4)
    t = PreallocTable(6)
    for _ in range(200):
        pfn, tgid = rng.getrandbits(40), rng.getrandbits(20)
        head = t.head_index
        assert t.produce(pfn) is ProduceStatus.PRODUCED
        assert t._w1[head] == pack_word1(pfn, 0, used=False, valid=True)
        tail = t.tail_index
        got = t.consume(0x1000, tgid)
        assert t._w1[tail] == pack_word1(got, tgid, used=True, valid=False)
        assert got == pfn & ((1 << 34) - 1)
        assert t.take_used(tail) == HarvestRecord(0x1000, tgid & 0xFFFF, got)


def test_cleanup_lock_is_test_and_set():
    t = PreallocTable(5)
    assert t.try_cleanup_lock()
    assert not t.try_cleanup_lock()
    t.release_cleanup_lock()
    assert t.try_cleanup_lock()


def test_cleanup_lock_mutual_exclusion_across_threads():
    t = PreallocTable(5)
    inside = []
    errors = []

    def worker():
        acquired = 0
        while acquired < 200:
            if t.try_cleanup_lock():
                inside.append(1)
                if len(inside) > 1:
                    errors.append("two holders")
                inside.pop()
                t.release_cleanup_lock()
                acquired += 1

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors


def test_spsc_streams_frames_without_loss():
    # sleep(0) on the blocked side hands the interpreter over instead of
    # burning a whole switch interval spinning. Both sides update the
    # table's used count; the short switch interval interleaves them
    # finely, and the count must still match a scan at the end.
    t = PreallocTable(1024)
    total = 20_000
    received = []

    def producer():
        pfn = 0
        while pfn < total:
            status = t.produce(pfn)
            if status is ProduceStatus.PRODUCED:
                pfn += 1
            elif status is ProduceStatus.NEEDS_HARVEST:
                t.harvest()
            else:
                time.sleep(0)

    def consumer():
        while len(received) < total:
            got = t.consume(0x1000 + len(received) * 0x1000, 6)
            if got is None:
                time.sleep(0)
            else:
                received.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pt = threading.Thread(target=producer)
        ct = threading.Thread(target=consumer)
        pt.start()
        ct.start()
        pt.join(timeout=60)
        ct.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not pt.is_alive() and not ct.is_alive()
    assert received == list(range(total))
    assert t.used == t.used_count()

