"""Fault-path dispatch: TLB, walker, offload protocol, kernel fallback."""
import random

import pytest
from test_acceptance import _exhaust_interleavings

from mfoesim.engine import (
    MfoeEngine,
    OutcomeKind,
    PteFaultSm,
    SmResult,
    Tlb,
)
from mfoesim.kernel import KernelModel
from mfoesim.vm import PAGE_SIZE, CanonicalityError


def make_env(cores=1, width=8, enable=True, fill=True, tlb_entries=64,
             writable=True, pages=64):
    kernel = KernelModel(cores=cores, total_frames=4096, seed=1)
    engine = MfoeEngine(kernel, tlb_entries=tlb_entries)
    proc = kernel.create_process()
    if enable:
        kernel.mfoe_enable(proc, width)
        if fill:
            kernel.run_init_fill()
    vma = kernel.region_create(proc, pages * PAGE_SIZE, writable=writable)
    kernel.prefault_construct(proc, vma)
    for c in range(cores):
        engine.bind(c, proc)
    return kernel, engine, proc, vma


# TLB unit behavior


def test_tlb_requires_capacity():
    with pytest.raises(ValueError):
        Tlb(0)


def test_tlb_lru_eviction():
    tlb = Tlb(2)
    tlb.insert((1, 10), 100, True)
    tlb.insert((1, 11), 101, True)
    assert tlb.lookup((1, 10)) == (100, True)  # refresh 10
    tlb.insert((1, 12), 102, True)  # evicts 11, the stale one
    assert tlb.lookup((1, 11)) is None
    assert tlb.lookup((1, 10)) is not None
    assert tlb.lookup((1, 12)) is not None


def test_tlb_reinsert_updates_in_place():
    tlb = Tlb(2)
    tlb.insert((1, 10), 100, True)
    tlb.insert((1, 10), 200, False)
    assert len(tlb) == 1
    assert tlb.lookup((1, 10)) == (200, False)


def test_tlb_invalidate_by_tgid():
    tlb = Tlb(8)
    tlb.insert((1, 10), 100, True)
    tlb.insert((1, 11), 101, True)
    tlb.insert((2, 10), 300, True)
    tlb.invalidate_asid(1)
    assert len(tlb) == 1
    assert tlb.lookup((2, 10)) == (300, True)


@pytest.mark.parametrize("entries", [1, 3, 8])
def test_tlb_matches_a_list_lru_model(entries):
    # seeded lookups, inserts and flushes against a plain list of
    # (key, value), least recently used first; contents and LRU order
    # must agree after every operation
    rng = random.Random(f"tlb reference {entries}")
    tlb, model = Tlb(entries), []

    def held(key):
        return next((i for i, (k, _) in enumerate(model) if k == key), None)

    def place(key, value):
        i = held(key)
        if i is not None:
            del model[i]
        elif len(model) >= entries:
            del model[0]
        model.append((key, value))

    for _ in range(3000):
        op = rng.random()
        key = (rng.randrange(1, 4), rng.randrange(6))
        value = (rng.randrange(1 << 20), rng.random() < 0.5)
        if op < 0.4:
            i = held(key)
            expected = None if i is None else model[i][1]
            assert tlb.lookup(key) == expected
            if i is not None:
                model.append(model.pop(i))
        elif op < 0.95:
            tlb.insert(key, *value)
            place(key, value)
        else:
            tlb.invalidate_asid(key[0])
            model = [(k, v) for k, v in model if k[0] != key[0]]
        assert list(tlb._map.items()) == model
        assert len(tlb) == len(model)


# access() dispatch


def test_first_touch_hits_offload_engine():
    kernel, engine, proc, vma = make_env()
    expected_pfn = kernel.tables[0].valid_pfns()[0]
    out = engine.access(0, vma.start, is_write=True, now=100)
    assert out.kind is OutcomeKind.MFOE_HIT
    assert out.cycles == 78
    assert out.penalty_cycles == 0 and out.kernel_cycles == 0
    assert out.pfn == expected_pfn
    leaf = proc.page_table.walk(vma.start)
    assert leaf.present and not leaf.locked
    assert leaf.pfn_or_tgid == expected_pfn


def test_second_touch_is_tlb_hit():
    kernel, engine, proc, vma = make_env()
    first = engine.access(0, vma.start, now=0)
    again = engine.access(0, vma.start, now=1000)
    assert again.kind is OutcomeKind.TLB_HIT
    assert again.cycles == 0
    assert again.pfn == first.pfn


def test_empty_table_charges_miss_penalty():
    kernel, engine, proc, vma = make_env(fill=False)
    out = engine.access(0, vma.start, now=0)
    assert out.kind is OutcomeKind.MFOE_MISS
    assert out.penalty_cycles == 14
    assert out.kernel_cycles > 0
    assert out.cycles == 14 + out.kernel_cycles
    assert proc.page_table.walk(vma.start).present, "kernel path installed inline"


def test_disabled_engine_takes_plain_kernel_path():
    kernel, engine, proc, vma = make_env(enable=False)
    out = engine.access(0, vma.start, now=0)
    assert out.kind is OutcomeKind.KERNEL_FAULT
    assert out.penalty_cycles == 0
    assert out.cycles == out.kernel_cycles > 0


def test_walk_hit_after_tlb_eviction():
    kernel, engine, proc, vma = make_env(tlb_entries=1)
    a, b = vma.start, vma.start + PAGE_SIZE
    engine.access(0, a, now=0)
    engine.access(0, b, now=200)  # evicts a from the single-entry TLB
    out = engine.access(0, a, now=400)
    assert out.kind is OutcomeKind.WALK_HIT
    assert out.cycles == 0


def test_cross_core_touch_of_a_just_faulted_page_is_a_walk_hit():
    # serialized access() installs the page before returning, so another
    # core's touch inside the first handler's 78 cycles finds it present;
    # a contended fault is modeled only by PteFaultSm's lock protocol
    kernel, engine, proc, vma = make_env(cores=2, tlb_entries=1)
    a, b = vma.start, vma.start + PAGE_SIZE
    hit = engine.access(0, a, now=1000)
    assert hit.kind is OutcomeKind.MFOE_HIT
    engine.access(0, b, now=1010)  # evicts a's translation
    out = engine.access(1, a, now=1040)
    assert out.kind is OutcomeKind.WALK_HIT
    assert out.cycles == 0
    assert out.pfn == hit.pfn


def test_untracked_address_is_segv():
    kernel, engine, proc, vma = make_env()
    out = engine.access(0, vma.end + 0x10_0000, now=77)
    assert out.kind is OutcomeKind.SEGV
    assert len(kernel.segv_events) == 1
    ev = kernel.segv_events[0]
    assert (ev.tgid, ev.va, ev.when) == (proc.tgid, vma.end + 0x10_0000, 77)


def test_write_to_readonly_mapping_faults():
    kernel, engine, proc, vma = make_env(writable=False, tlb_entries=2)
    filled = engine.access(0, vma.start, is_write=False, now=0)
    assert filled.kind is OutcomeKind.MFOE_HIT
    denied = engine.access(0, vma.start, is_write=True, now=10)
    assert denied.kind is OutcomeKind.PROTECTION_FAULT
    assert denied.pfn == filled.pfn
    # same decision on the walk path once the TLB entry is gone
    engine.access(0, vma.start + PAGE_SIZE, now=20)
    engine.access(0, vma.start + 2 * PAGE_SIZE, now=30)
    denied_walk = engine.access(0, vma.start, is_write=True, now=500)
    assert denied_walk.kind is OutcomeKind.PROTECTION_FAULT
    assert len(kernel.protection_faults) == 2


def test_tlb_never_holds_stale_translations():
    kernel, engine, proc, vma = make_env(width=16, tlb_entries=8)
    rng = random.Random(5)
    vas = [vma.start + i * PAGE_SIZE for i in range(32)]
    for step in range(300):
        engine.access(0, rng.choice(vas), is_write=True, now=step * 100)
        for (tgid, vpn), (pfn, rw) in engine.tlb._map.items():
            leaf = proc.page_table.walk(vpn << 12)
            assert leaf is not None and leaf.present
            assert leaf.pfn_or_tgid == pfn
            assert leaf.rw == rw


def test_unbound_core_rejected():
    kernel, engine, proc, vma = make_env()
    with pytest.raises(KeyError):
        engine.access(3, vma.start)


def test_noncanonical_address_rejected():
    kernel, engine, proc, vma = make_env()
    with pytest.raises(CanonicalityError):
        engine.access(0, 1 << 55)


def test_process_exit_clears_engine_state():
    kernel, engine, proc, vma = make_env()
    engine.access(0, vma.start, now=0)
    engine.on_process_exit(proc.tgid)
    assert len(engine.tlb) == 0
    with pytest.raises(KeyError):
        engine.access(0, vma.start)


# the handler state machine, stepped by hand


def test_handler_reuses_already_present_leaf():
    kernel, engine, proc, vma = make_env()
    engine.access(0, vma.start, now=0)
    sm = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    assert sm.run() is SmResult.REUSE
    assert sm.pfn == proc.page_table.walk(vma.start).pfn_or_tgid
    assert not sm.consumed_from_table


def test_lock_loser_spins_then_reuses_winners_frame():
    kernel, engine, proc, vma = make_env(cores=2)
    va = vma.start
    before = kernel.tables[0].valid_count()
    winner = PteFaultSm(kernel, proc, 0, va, vma, mfoe_eligible=True)
    loser = PteFaultSm(kernel, proc, 1, va, vma, mfoe_eligible=True)

    winner.step()  # CHECK
    winner.step()  # TRY_LOCK acquires
    assert winner.leaf.locked and not winner.done
    loser.step()  # CHECK
    loser.step()  # TRY_LOCK loses
    assert not loser.done and loser.leaf.locked
    assert not loser.runnable(), "cannot spin forward while the lock is held"
    with pytest.raises(RuntimeError):
        loser.run()

    while not winner.done:
        winner.step()
    assert winner.result is SmResult.MFOE_HIT

    assert loser.runnable()
    loser.step()
    assert loser.result is SmResult.WAITED
    assert loser.pfn == winner.pfn
    assert kernel.tables[0].valid_count() == before - 1, "one frame for one page"
    assert not loser.consumed_from_table


def test_handler_recheck_catches_resolution_between_read_and_lock():
    kernel, engine, proc, vma = make_env()
    va = vma.start
    sm = PteFaultSm(kernel, proc, 0, va, vma, mfoe_eligible=True)
    sm.step()  # CHECK: leaf still unmapped
    assert not sm.done and not sm.leaf.locked and sm.runnable()
    # another handler resolves the fault before we take the lock
    other = PteFaultSm(kernel, proc, 0, va, vma, mfoe_eligible=True)
    assert other.run() is SmResult.MFOE_HIT
    sm.step()  # TRY_LOCK still succeeds: lock is free again
    sm.step()  # RECHECK sees present
    assert sm.done
    assert sm.result is SmResult.REUSE
    assert sm.pfn == other.pfn


def test_stepping_finished_handler_rejected():
    kernel, engine, proc, vma = make_env()
    sm = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    sm.run()
    with pytest.raises(RuntimeError):
        sm.step()


# run() drives the generator itself; step() stays the interleaving path


def _handler(scenario):
    kernel, engine, proc, vma = make_env(fill=scenario != "table-miss")
    if scenario == "present-leaf":
        engine.access(0, vma.start)
    if scenario == "unbuilt-leaf":
        # a region without prefault_construct: no leaf until the kernel
        # handler builds one
        vma = kernel.region_create(proc, 4 * PAGE_SIZE)
        assert proc.page_table.walk(vma.start) is None
    return PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)


def _observed(sm):
    return (sm.result, sm.pfn, sm.consumed_from_table, sm.allocated_inline, sm.leaf.raw)


@pytest.mark.parametrize("scenario, result", [
    ("table-hit", SmResult.MFOE_HIT),
    ("table-miss", SmResult.MFOE_MISS_KERNEL),
    ("unbuilt-leaf", SmResult.KERNEL),
])
def test_run_finishes_a_handler_stepped_any_part_of_the_way(scenario, result):
    stepped = _handler(scenario)
    steps = 0
    while not stepped.done:
        assert stepped.runnable()
        stepped.step()
        steps += 1
    assert stepped.result is result
    for k in range(steps + 1):
        sm = _handler(scenario)
        for _ in range(k):
            sm.step()
        assert sm.done == (k == steps)
        assert sm.run() is result
        assert sm.done and _observed(sm) == _observed(stepped), f"stepped {k} times first"
        assert sm.run() is result, "run() on a finished handler returns its result"


def test_run_on_a_handler_spinning_on_a_held_lock_raises_until_the_holder_finishes():
    kernel, engine, proc, vma = make_env(cores=2)
    holder = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    spinner = PteFaultSm(kernel, proc, 1, vma.start, vma, mfoe_eligible=True)
    holder.step()
    holder.step()  # takes the lock
    spinner.step()
    spinner.step()  # loses the race and spins
    for _ in range(2):
        with pytest.raises(RuntimeError):
            spinner.run()
        assert not spinner.runnable() and not spinner.done
    assert holder.run() is SmResult.MFOE_HIT
    assert spinner.runnable()
    assert spinner.run() is SmResult.WAITED
    assert spinner.pfn == holder.pfn


def test_run_blocked_on_a_held_lock_raises_and_changes_nothing():
    # a fresh handler run() while another holds the leaf lock: the first
    # yielded spin predicate is false and nothing else can make it true
    kernel, engine, proc, vma = make_env(cores=2)
    winner = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    loser = PteFaultSm(kernel, proc, 1, vma.start, vma, mfoe_eligible=True)
    while not winner.leaf.locked:
        winner.step()
    leaf = winner.leaf

    def state():
        return ([t.to_bytes() for t in kernel.tables],
                {vpn: e.raw for vpn, e in proc.page_table.entries.items()})

    before = state()
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no concurrent progress"):
            loser.run()
        assert not loser.runnable() and not loser.done and loser.result is None
        assert loser.leaf is leaf and state() == before
    assert winner.run() is SmResult.MFOE_HIT
    assert loser.runnable()
    assert loser.run() is SmResult.WAITED
    assert loser.done and loser.pfn == winner.pfn


def _step_to_the_end(sm, until=None):
    """Step sm until it is done, or until until(sm) holds; result and
    done stay unset after every step but the last."""
    while not sm.done and not (until and until(sm)):
        assert sm.result is None
        sm.step()
    assert (sm.result is not None) == sm.done
    return sm.result


@pytest.mark.parametrize("scenario, result", [
    ("table-hit", SmResult.MFOE_HIT),
    ("table-miss", SmResult.MFOE_MISS_KERNEL),
    ("unbuilt-leaf", SmResult.KERNEL),
])
def test_result_appears_only_on_the_last_step(scenario, result):
    assert _step_to_the_end(_handler(scenario)) is result


def test_race_results_appear_only_on_the_last_step():
    # REUSE: the fault is resolved between a handler's read and its lock
    kernel, engine, proc, vma = make_env()
    late = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    late.step()  # reads the leaf: not present yet
    assert late.result is None and not late.done
    early = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    assert _step_to_the_end(early) is SmResult.MFOE_HIT
    assert _step_to_the_end(late) is SmResult.REUSE
    # WAITED: the loser spins on the winner's lock, then reuses its frame
    kernel, engine, proc, vma = make_env(cores=2)
    winner = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=True)
    loser = PteFaultSm(kernel, proc, 1, vma.start, vma, mfoe_eligible=True)
    _step_to_the_end(winner, until=lambda sm: sm.leaf.locked)
    assert _step_to_the_end(loser, until=lambda sm: not sm.runnable()) is None
    assert _step_to_the_end(winner) is SmResult.MFOE_HIT
    assert _step_to_the_end(loser) is SmResult.WAITED


# the protocol's atomic actions, pinned: a refactor that merges or splits
# an action, or moves a yield, changes these counts


@pytest.mark.parametrize("fill, schedules", [(True, 48), (False, 222)])
def test_two_handler_schedule_counts_are_pinned(fill, schedules):
    assert _exhaust_interleavings(2, fill) == schedules


def _steps(sm):
    """step() calls until sm is done, and after each whether its leaf is
    locked and present."""
    bits = []
    while not sm.done:
        assert sm.runnable()
        sm.step()
        bits.append(None if sm.leaf is None else (sm.leaf.locked, sm.leaf.present))
    return bits


L, P, LP, NONE = (True, False), (False, True), (True, True), (False, False)


@pytest.mark.parametrize("scenario, result, bits", [
    ("table-hit", SmResult.MFOE_HIT, [NONE, L, L, L, LP, P]),
    ("table-miss", SmResult.MFOE_MISS_KERNEL, [NONE, L, L, L, NONE, L, L, LP, P]),
    ("unbuilt-leaf", SmResult.KERNEL, [None, L, L, LP, P]),
    ("present-leaf", SmResult.REUSE, [P]),
])
def test_uncontended_step_counts_are_pinned(scenario, result, bits):
    sm = _handler(scenario)
    assert _steps(sm) == bits
    assert sm.result is result


@pytest.mark.parametrize("eligible", [True, False])
def test_waited_and_in_lock_reuse_step_counts_are_pinned(eligible):
    # WAITED: the loser reads a held lock on its second step and spins
    # there until the holder is done, then ends on its third
    kernel, engine, proc, vma = make_env(cores=2)
    holder = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=eligible)
    loser = PteFaultSm(kernel, proc, 1, vma.start, vma, mfoe_eligible=eligible)
    holder.step()
    holder.step()
    loser.step()
    loser.step()
    assert holder.leaf.locked and not loser.runnable()
    holder.run()
    assert _steps(loser) == [P] and loser.result is SmResult.WAITED
    # in-lock REUSE: the page is installed between a handler's first step
    # and its lock; it takes the lock on its second step and sees the
    # page on its third
    kernel, engine, proc, vma = make_env()
    late = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=eligible)
    late.step()
    PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=eligible).run()
    assert _steps(late) == [LP, P] and late.result is SmResult.REUSE
