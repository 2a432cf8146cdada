"""Address checks, leaf entry bit protocol, page table, frame allocator."""
import random

import pytest

from mfoesim.vm import (
    PAGE_SIZE,
    PFN_MASK,
    PTE_LOCK,
    PTE_MFOEABLE,
    PTE_PRESENT,
    PTE_RW,
    USER_VA_LIMIT,
    CanonicalityError,
    FrameAllocator,
    OutOfMemory,
    PageTable,
    PageTableEntry,
    check_canonical,
)


# addresses


def test_canonicality():
    assert check_canonical(0) == 0
    assert check_canonical(USER_VA_LIMIT - 1) == USER_VA_LIMIT - 1
    with pytest.raises(CanonicalityError):
        check_canonical(USER_VA_LIMIT)
    with pytest.raises(CanonicalityError):
        check_canonical(-1)
    pt = PageTable()
    for va in (1 << 63, USER_VA_LIMIT, -PAGE_SIZE):
        with pytest.raises(CanonicalityError):
            pt.walk(va)
        with pytest.raises(CanonicalityError):
            pt.construct_path(va)
    assert not pt.entries


# leaf entries


def test_fresh_entry_is_empty():
    e = PageTableEntry()
    assert not e.present and not e.rw and not e.mfoeable and not e.locked
    assert e.pfn_or_tgid == 0


def test_stamp_prefault_sets_eligibility_and_tgid():
    e = PageTableEntry()
    e.stamp_prefault(0x1234, writable=True)
    assert e.mfoeable and e.rw and not e.present
    assert e.pfn_or_tgid == 0x1234
    ro = PageTableEntry()
    ro.stamp_prefault(7, writable=False)
    assert ro.mfoeable and not ro.rw


def test_stamp_preserves_lock_bit():
    e = PageTableEntry(PTE_LOCK)
    e.stamp_prefault(42, writable=True)
    assert e.locked
    e.raw &= ~PTE_LOCK
    assert not e.locked and e.mfoeable


def test_install_frame_replaces_tgid_with_pfn():
    e = PageTableEntry()
    e.stamp_prefault(0x1234, writable=True)
    e.raw |= PTE_LOCK
    e.install_frame(0xABCDE, writable=True)
    assert e.present and e.rw
    assert e.mfoeable, "eligibility marker survives installation"
    assert e.locked, "installation itself must not drop the lock"
    assert e.pfn_or_tgid == 0xABCDE
    e.raw &= ~PTE_LOCK
    assert e.raw == PTE_PRESENT | PTE_RW | PTE_MFOEABLE | (0xABCDE << 12)


def test_lock_bit_is_its_own_field():
    # The fault handler tests, sets and clears PTE_LOCK on the leaf word
    # (test_engine.py drives that protocol); no other field reads the bit.
    e = PageTableEntry()
    e.stamp_prefault(0x1234, writable=True)
    fields = (e.present, e.rw, e.mfoeable, e.pfn_or_tgid)
    e.raw |= PTE_LOCK
    assert e.locked and (e.present, e.rw, e.mfoeable, e.pfn_or_tgid) == fields
    e.raw &= ~PTE_LOCK
    assert not e.locked and (e.present, e.rw, e.mfoeable, e.pfn_or_tgid) == fields


def test_clear():
    e = PageTableEntry()
    e.stamp_prefault(9, True)
    e.clear()
    assert e.raw == 0


def test_pfn_field_masks_to_36_bits():
    e = PageTableEntry()
    e.install_frame((1 << 40) - 1, writable=True)  # wider than the field
    assert e.pfn_or_tgid == (1 << 36) - 1
    assert e.raw & ~(PFN_MASK | PTE_PRESENT | PTE_RW) == 0


# page table


def test_construct_path_returns_the_same_leaf():
    pt = PageTable()
    a = pt.construct_path(0x5000_0000)
    assert pt.construct_path(0x5000_0000) is a
    # any address within the page reaches its leaf
    assert pt.construct_path(0x5000_0FFF) is a
    assert pt.walk(0x5000_0ABC) is a


def test_walk_unbuilt_returns_none():
    pt = PageTable()
    assert pt.walk(0x4000_0000) is None
    pt.construct_path(0x4000_0000)
    assert pt.walk(0x4000_0000) is not None
    assert pt.walk(0x4000_1000) is None, "sibling leaf not created implicitly"


def test_iter_leaves_round_trips_addresses():
    pt = PageTable()
    vas = [0x1000, 0x7FFF_FFFF_F000, 0x5000_3000, 0x5000_0000 + (1 << 30)]
    for va in vas:
        pt.construct_path(va).stamp_prefault(1, True)
    seen = {va: leaf for va, leaf in pt.iter_leaves()}
    assert set(seen) == set(vas)
    assert all(leaf.mfoeable for leaf in seen.values())


def test_iter_leaves_ascends_by_address():
    # the per-page reference loops in tests/test_kernel.py unmap in this
    # order, the order terminate's bulk unmap must keep
    pt = PageTable()
    vas = [0x5000_3000, 0x7FFF_FFFF_F000, 0x1000, 0x5000_0000 + (1 << 30), 0x5000_2000]
    leaves = {va: pt.construct_path(va) for va in vas}
    assert [(va, leaf) for va, leaf in pt.iter_leaves()] == sorted(leaves.items())


# frame allocator


def test_allocator_geometry_validation():
    with pytest.raises(ValueError):
        FrameAllocator(0)


def test_out_of_memory():
    fa = FrameAllocator(2)
    fa.allocate()
    fa.allocate()
    with pytest.raises(OutOfMemory):
        fa.allocate()


def test_free_validates_ownership():
    fa = FrameAllocator(4)
    pfn = fa.allocate()
    with pytest.raises(ValueError):
        fa.free([pfn + 1])
    fa.free([pfn])
    with pytest.raises(ValueError):
        fa.free([pfn])  # double free


def _allocator_state(fa):
    return list(fa.free_list), set(fa.allocated)


@pytest.mark.parametrize("bad, message", [
    (lambda held: [held[1], held[0], held[1]], "frame 1 is freed twice"),
    (lambda held: [held[0], 7], "frame 7 is not allocated"),
], ids=["repeated", "unallocated"])
def test_free_refuses_a_bad_frame_changing_nothing(bad, message):
    fa = FrameAllocator(8)
    held = [fa.allocate() for _ in range(4)]
    before = _allocator_state(fa)
    with pytest.raises(ValueError, match=message):
        fa.free(bad(held))
    assert _allocator_state(fa) == before


def test_free_appends_frames_in_the_order_given():
    fa = FrameAllocator(6)
    held = [fa.allocate() for _ in range(5)]
    fa.free([held[3], held[0], held[4]])
    fa.free([])
    assert list(fa.free_list) == [5, 3, 0, 4]
    assert fa.allocated == {1, 2}
    assert [fa.allocate() for _ in range(4)] == [5, 3, 0, 4]


def test_conservation_under_random_traffic():
    rng = random.Random(1)
    fa = FrameAllocator(64)
    held = []
    for _ in range(2000):
        if held and (rng.random() < 0.5 or fa.free_count() == 0):
            fa.free([held.pop(rng.randrange(len(held)))])
        else:
            held.append(fa.allocate())
        assert fa.free_count() + fa.outstanding() == 64
    assert fa.outstanding() == len(held)
    assert len(set(held)) == len(held), "no frame handed out twice"
