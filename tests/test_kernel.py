"""Kernel-side machinery: enablement, fill, deferred processing, cleanup,
quota enforcement, and frame accounting."""
import builtins
import random
import threading
import types
from collections import Counter

import pytest

from mfoesim import kernel as kernel_module
from mfoesim.engine import MfoeEngine
from mfoesim.kernel import VMA, BookkeepingLedger, KernelModel
from mfoesim.params import ModelParameters
from mfoesim.prealloc import EntryState, PreallocTable
from mfoesim.vm import PAGE_SIZE, PTE_LOCK, USER_VA_LIMIT, CanonicalityError


def make_kernel(cores=1, width=8, total_frames=4096, **kw):
    kernel = KernelModel(cores=cores, total_frames=total_frames, seed=1, **kw)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, width)
    kernel.run_init_fill()
    vma = kernel.region_create(proc, 64 * PAGE_SIZE)
    kernel.prefault_construct(proc, vma)
    return kernel, proc, vma


def consume_pages(kernel, proc, vma, core, count, offset=0):
    """Pull frames from one core's table the way the hardware path would."""
    out = []
    for i in range(count):
        va = vma.start + (offset + i) * PAGE_SIZE
        pfn = kernel.tables[core].consume(va, proc.tgid)
        assert pfn is not None
        proc.page_table.walk(va).install_frame(pfn, True)
        out.append((proc.tgid, va, pfn))
    return out


# processes and regions


def test_create_process_assigns_tgids():
    kernel = KernelModel()
    a = kernel.create_process()
    b = kernel.create_process()
    assert a.tgid != b.tgid
    with pytest.raises(ValueError):
        kernel.create_process(tgid=a.tgid)


def test_tgid_must_fit_table_field():
    kernel = KernelModel()
    with pytest.raises(ValueError):
        kernel.create_process(tgid=0)
    with pytest.raises(ValueError):
        kernel.create_process(tgid=1 << 16)
    kernel.create_process(tgid=(1 << 16) - 1)


def test_region_create_rounds_and_separates():
    kernel = KernelModel()
    proc = kernel.create_process()
    a = kernel.region_create(proc, 3 * PAGE_SIZE + 1)
    assert a.pages() == 4
    b = kernel.region_create(proc, PAGE_SIZE)
    assert b.start == a.end + PAGE_SIZE, "guard page between regions"
    assert proc.find_vma(a.end) is None
    with pytest.raises(ValueError):
        kernel.region_create(proc, -1)


def test_find_vma_at_region_edges_and_gaps():
    kernel = KernelModel()
    proc = kernel.create_process()
    assert proc.find_vma(0x5000_0000) is None, "no regions yet"
    a, b, c = (kernel.region_create(proc, n * PAGE_SIZE) for n in (3, 1, 5))
    for vma in (a, b, c):
        assert proc.find_vma(vma.start) is vma
        assert proc.find_vma(vma.end - PAGE_SIZE) is vma, "first byte of the last page"
        assert proc.find_vma(vma.end - 1) is vma
    for gap in (a.end, b.start - 1, b.end, c.start - 1):
        assert proc.find_vma(gap) is None, "guard page"
    assert proc.find_vma(a.start - 1) is None
    assert proc.find_vma(0) is None
    assert proc.find_vma(c.end) is None
    assert proc.find_vma(c.end + 100 * PAGE_SIZE) is None


def test_regions_inherit_offload_opt_in():
    kernel = KernelModel()
    proc = kernel.create_process()
    before = kernel.region_create(proc, PAGE_SIZE)
    kernel.mfoe_enable(proc, 8)
    after = kernel.region_create(proc, PAGE_SIZE)
    assert not before.vm_mfoe
    assert after.vm_mfoe


def test_prefault_stamps_every_page_once():
    kernel, proc, vma = make_kernel()
    stamped = {va for va, leaf in proc.page_table.iter_leaves() if leaf.mfoeable}
    assert stamped == set(range(vma.start, vma.end, PAGE_SIZE))
    leaf = proc.page_table.walk(vma.start)
    assert leaf.pfn_or_tgid == proc.tgid and not leaf.present
    assert kernel.prefault_construct(proc, vma) == 0, "second pass is a no-op"


def test_prefault_stamps_only_unfaulted_ineligible_leaves():
    kernel = KernelModel()
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    vma = kernel.region_create(proc, 6 * PAGE_SIZE, writable=False)
    pt = proc.page_table
    pt.construct_path(vma.start + 4 * PAGE_SIZE).raw = PTE_LOCK
    pt.construct_path(vma.start + 2 * PAGE_SIZE).install_frame(77, True)
    pt.construct_path(vma.start + PAGE_SIZE).stamp_prefault(9, True)
    mapped, stamped = pt.walk(vma.start + 2 * PAGE_SIZE).raw, pt.walk(vma.start + PAGE_SIZE).raw
    assert kernel.prefault_construct(proc, vma) == 4
    fresh = pt.walk(vma.start).raw
    assert fresh & PTE_LOCK == 0 and not pt.walk(vma.start).rw
    assert pt.walk(vma.start + 4 * PAGE_SIZE).raw == fresh | PTE_LOCK, "keeps its lock bit"
    assert [pt.walk(vma.start + k * PAGE_SIZE).raw for k in (1, 2)] == [stamped, mapped]
    # the leaves it built join the table in ascending address order
    assert list(pt.entries) == [vma.start // PAGE_SIZE + k for k in (4, 2, 1, 0, 3, 5)]


def test_prefault_refuses_a_region_past_the_canonical_limit_before_building():
    kernel = KernelModel()
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    vma = VMA(USER_VA_LIMIT - 2 * PAGE_SIZE, USER_VA_LIMIT + PAGE_SIZE, vm_mfoe=True)
    with pytest.raises(CanonicalityError):
        kernel.prefault_construct(proc, vma)
    assert proc.page_table.entries == {}


def test_prefault_skips_non_offload_regions():
    kernel = KernelModel()
    proc = kernel.create_process()
    vma = kernel.region_create(proc, 8 * PAGE_SIZE)  # created before enable
    kernel.mfoe_enable(proc, 8)
    assert kernel.prefault_construct(proc, vma) == 0


# enable / disable and the initial fill


def test_enable_builds_tables_and_registers():
    kernel = KernelModel(cores=2)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 256)
    assert kernel.tables[0].num_entries == 256
    assert len(kernel.tables) == 2
    # 256 slots of 16 bytes fit exactly one 4 KiB frame per core
    assert len(kernel.table_storage_frames) == 2
    # each core's table sits in its own frame, taken before any other
    assert kernel.table_storage_frames == [0, 1]
    assert kernel.mfoe_active
    assert kernel.fill_core == 0


def test_table_geometry_fixed_by_first_enable():
    kernel = KernelModel()
    a = kernel.create_process()
    b = kernel.create_process()
    kernel.mfoe_enable(a, 64)
    kernel.mfoe_enable(b, 512)  # request ignored; geometry is boot-scoped
    assert kernel.tables[0].num_entries == 64
    assert b.mfoe_enabled
    with pytest.raises(ValueError):
        kernel.mfoe_enable(a, 1)


@pytest.mark.parametrize("width", [1, 1 << 16], ids=["header-only", "past-register"])
def test_refused_enable_changes_nothing(width):
    kernel = KernelModel(cores=2, total_frames=4096)
    proc = kernel.create_process()
    with pytest.raises(ValueError, match="table width"):
        kernel.mfoe_enable(proc, width)
    assert not proc.mfoe_enabled and kernel.tables is None
    assert kernel.allocator.outstanding() == 0 and kernel.table_storage_frames == []


def test_init_fill_covers_core_zero_first():
    kernel = KernelModel(cores=2)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    for _ in range(3):
        assert kernel.fill_step()
    assert kernel.tables[0].valid_count() == 3
    assert kernel.tables[1].valid_count() == 0
    produced = kernel.run_init_fill()
    assert produced == 2 * 7 - 3
    assert all(t.valid_count() == 7 for t in kernel.tables)
    assert max(kernel.tables[0].valid_pfns()) < min(kernel.tables[1].valid_pfns())
    assert kernel.run_init_fill() == 0, "fill is one-shot"


def test_init_fill_stops_at_oom():
    kernel = KernelModel(cores=1, total_frames=6)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)  # storage takes 1 frame, 5 remain
    assert kernel.run_init_fill() == 5
    assert kernel.tables[0].valid_count() == 5
    assert kernel.allocator.free_count() == 0


def test_disable_drains_frames_once_last_user_leaves():
    kernel = KernelModel()
    a = kernel.create_process()
    b = kernel.create_process()
    kernel.mfoe_enable(a, 8)
    kernel.mfoe_enable(b, 8)
    kernel.run_init_fill()
    assert kernel.mfoe_disable(a) == 0, "b still depends on the tables"
    assert kernel.mfoe_active
    assert kernel.mfoe_disable(b) == 7
    assert not kernel.mfoe_active
    assert kernel.mfoe_disable(b) == 0


# deferred processing


def test_budget_follows_background_throughput():
    # floor(2 ms * 580169 pages/s)
    assert KernelModel().budget_per_tick == 1160
    assert KernelModel(refresh_interval_ms=4.0).budget_per_tick == 2320
    assert KernelModel(refresh_interval_ms=0.001).budget_per_tick == 0


@pytest.mark.parametrize("setting,value", [
    ("refresh_interval_ms", float("inf")),
    ("refresh_interval_ms", float("nan")),
    ("refresh_interval_ms", 0),
    ("refresh_interval_ms", -1),
    ("resource_threshold", float("nan")),
    ("resource_threshold", 0),
])
def test_out_of_range_kernel_setting_rejected(setting, value):
    with pytest.raises(ValueError, match="must be finite and positive"):
        KernelModel(**{setting: value})


def test_process_one_record_books_and_refills():
    kernel, proc, vma = make_kernel()
    (expected,) = consume_pages(kernel, proc, vma, 0, 1)
    assert kernel.tables[0].used_count() == 1
    record = kernel.process_one_record(0)
    assert (record.tgid, record.va, record.pfn) == expected
    assert kernel.ledger.records() == {expected}
    assert kernel.ledger.mm_counter[proc.tgid] == 1
    assert kernel.tables[0].used_count() == 0
    assert kernel.tables[0].valid_count() == 7, "slot restocked immediately"
    assert kernel.process_one_record(0) is None


def test_process_one_record_with_nothing_to_book_changes_nothing():
    # an empty head is restocked only on the way to a used entry: with
    # none in the table (before the fill, and after a partial one) the
    # call books nothing and produces nothing
    kernel = KernelModel(cores=1, total_frames=4096, seed=1)
    kernel.mfoe_enable(kernel.create_process(), 8)
    table = kernel.tables[0]
    for fill_steps in (0, 3):
        for _ in range(fill_steps):
            assert kernel.fill_step()
        assert table.head_is_empty()
        before = (table.to_bytes(), kernel.allocator.free_count())
        assert kernel.process_one_record(0) is None
        assert (table.to_bytes(), kernel.allocator.free_count()) == before


def test_held_cleanup_lock_raises_instead_of_spinning():
    kernel, proc, vma = make_kernel()
    consume_pages(kernel, proc, vma, 0, 1)
    assert kernel.tables[0].try_cleanup_lock()
    with pytest.raises(RuntimeError, match="cleanup lock"):
        kernel.process_one_record(0)
    assert kernel.tables[0].used_count() == 1, "nothing processed"
    kernel.tables[0].release_cleanup_lock()
    assert kernel.process_one_record(0) is not None


def test_tick_processes_backlog_and_rechecks_quotas():
    kernel, proc, vma = make_kernel(width=16)
    consumed = consume_pages(kernel, proc, vma, 0, 5)
    assert kernel.postfault_tick() == 5
    assert kernel.ledger.records() == set(consumed)
    assert kernel.tables[0].valid_count() == 15
    assert kernel.postfault_tick() == 0


def test_tick_stops_at_throughput_budget():
    # 1500 pages/s over 2 ms floors to a budget of 3 records per tick
    params = ModelParameters(background_throughput_pages_per_s=1500)
    kernel, proc, vma = make_kernel(width=16, params=params)
    consume_pages(kernel, proc, vma, 0, 10)
    assert kernel.postfault_tick() == 3
    assert kernel.tables[0].used_count() == 7
    assert kernel.postfault_tick() == 3
    assert kernel.postfault_tick() == 3
    assert kernel.postfault_tick() == 1


def test_tick_rotates_starting_core():
    params = ModelParameters(background_throughput_pages_per_s=500)  # budget 1
    kernel = KernelModel(cores=2, total_frames=4096, seed=1, params=params)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    kernel.run_init_fill()
    vma = kernel.region_create(proc, 64 * PAGE_SIZE)
    kernel.prefault_construct(proc, vma)
    consume_pages(kernel, proc, vma, 0, 2)
    consume_pages(kernel, proc, vma, 1, 2, offset=32)
    assert kernel.postfault_tick() == 1  # starts at core 0
    assert kernel.tables[0].used_count() == 1
    assert kernel.tables[1].used_count() == 2
    assert kernel.postfault_tick() == 1  # starts at core 1
    assert kernel.tables[0].used_count() == 1
    assert kernel.tables[1].used_count() == 1


def test_tick_interleaves_cores_record_by_record():
    params = ModelParameters(background_throughput_pages_per_s=1500)  # budget 3
    kernel = KernelModel(cores=2, total_frames=4096, seed=1, params=params)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    kernel.run_init_fill()
    vma = kernel.region_create(proc, 64 * PAGE_SIZE)
    kernel.prefault_construct(proc, vma)
    consume_pages(kernel, proc, vma, 0, 3)
    consume_pages(kernel, proc, vma, 1, 3, offset=32)
    # books core 0, then core 1, then core 0 again
    assert kernel.postfault_tick() == 3
    assert kernel.tables[0].used_count() == 1
    assert kernel.tables[1].used_count() == 2


def test_quota_crossed_by_a_pass_trips_at_the_next_pass():
    kernel, proc, vma = make_kernel(width=16)
    proc.quota_frames = 10
    consume_pages(kernel, proc, vma, 0, 9)
    # quotas are checked when a pass starts, before it books anything
    assert kernel.postfault_tick() == 9
    assert kernel.ledger.mm_counter[proc.tgid] == 9
    assert proc.mfoe_enabled
    assert kernel.postfault_tick() == 0
    assert not proc.mfoe_enabled
    assert proc in kernel.pending_bit_clears


def test_pass_and_cleanup_without_tables_book_nothing():
    # no process has opted in, so no table exists: a whole pass returns
    # before it starts (no tick is counted) and a cleanup scans nothing
    kernel = KernelModel()
    proc = kernel.create_process()
    assert kernel.postfault_tick() == 0
    assert kernel.error_cleanup(proc.tgid) == 0
    assert kernel.tables is None and kernel.tick_index == 0


def test_zero_budget_defers_everything():
    params = ModelParameters(background_throughput_pages_per_s=400)
    kernel, proc, vma = make_kernel(params=params)
    consume_pages(kernel, proc, vma, 0, 3)
    assert kernel.budget_per_tick == 0
    assert kernel.postfault_tick() == 0
    assert kernel.tables[0].used_count() == 3


def test_error_cleanup_targets_one_tgid_anywhere_in_ring():
    kernel = KernelModel(cores=1, total_frames=4096, seed=1)
    a = kernel.create_process()
    b = kernel.create_process()
    kernel.mfoe_enable(a, 16)
    kernel.mfoe_enable(b, 16)
    kernel.run_init_fill()
    vma_a = kernel.region_create(a, 16 * PAGE_SIZE)
    vma_b = kernel.region_create(b, 16 * PAGE_SIZE)
    kernel.prefault_construct(a, vma_a)
    kernel.prefault_construct(b, vma_b)
    # interleave the two owners in the used run
    a_recs, b_recs = [], []
    for i in range(6):
        owner, vma, sink = (a, vma_a, a_recs) if i % 2 else (b, vma_b, b_recs)
        sink.extend(consume_pages(kernel, owner, vma, 0, 1, offset=i))
    assert kernel.error_cleanup(a.tgid) == 3
    assert kernel.ledger.records() == set(a_recs)
    table = kernel.tables[0]
    assert table.used_count() == 3
    leftover = {table.record_at(i).tgid for i in table.data_indices()
                if table.entry_state(i) is EntryState.USED}
    assert leftover == {b.tgid}
    # cleanup only books: a's slots are left empty and head has not moved
    assert [table.entry_state(i) for i in (2, 4, 6)] == [EntryState.EMPTY] * 3
    assert table.head_index == 1
    assert table.valid_count() == 15 - 6
    # one pass books b's entries, restocking at head over the emptied
    # slots; it stops at a's last slot, with nothing left behind it to book
    assert kernel.postfault_tick() == 3
    assert table.used_count() == 0
    assert kernel.ledger.records() == set(a_recs) | set(b_recs)
    assert [table.entry_state(i) for i in range(1, 7)] == [EntryState.VALID] * 5 + [
        EntryState.EMPTY]
    assert table.head_index == 6
    # the next consume gives the pass work, and it restocks that slot first
    b_recs.extend(consume_pages(kernel, b, vma_b, 0, 1, offset=6))
    assert kernel.postfault_tick() == 1
    assert table.valid_count() == 15 and table.head_index == 8
    assert kernel.ledger.records() == set(a_recs) | set(b_recs)


def test_used_count_tracks_every_transition():
    # the pass passes over a table by its used count, so the count must
    # follow every way an entry becomes or stops being used, including a
    # mid-ring cleanup that leaves used entries behind a non-used head
    rng = random.Random(11)
    kernel = KernelModel(cores=2, total_frames=1 << 14, seed=1)
    procs = [kernel.create_process() for _ in range(2)]
    for proc in procs:
        kernel.mfoe_enable(proc, 8)
    next_va = {proc.tgid: 0 for proc in procs}
    mid_ring = 0
    for _ in range(4000):
        table = rng.choice(kernel.tables)
        roll = rng.random()
        if roll < 0.4:
            proc = rng.choice(procs)
            if table.consume(next_va[proc.tgid] * PAGE_SIZE, proc.tgid) is not None:
                next_va[proc.tgid] += 1
        elif roll < 0.55:
            kernel.process_one_record(rng.randrange(2))
        elif roll < 0.65:
            kernel.begin_pass()
            for _ in range(rng.randrange(4)):
                kernel.pass_step()
        elif roll < 0.72:
            table.harvest(max_records=rng.randrange(1, 4))
        elif roll < 0.8:
            kernel.error_cleanup(rng.choice(procs).tgid)
        elif roll < 0.86:
            table.take_used(rng.randrange(1, table.num_entries))
        elif roll < 0.88:
            for proc in procs:
                kernel.mfoe_disable(proc)
            for proc in procs:
                kernel.mfoe_enable(proc, 8)
        else:
            kernel.fill_step()
        for t in kernel.tables:
            assert t.used == t.used_count()
            if t.used and t.entry_state(t.head_index) is not EntryState.USED:
                mid_ring += 1
    assert mid_ring, "no step left used entries behind a non-used head"


def _pass_state(kernel):
    """Everything a pass start may change but the tick count and the
    start core, the pass budget last."""
    return (
        list(kernel.ledger.rmap.items()), dict(kernel.ledger.mm_counter),
        [table.to_bytes() for table in kernel.tables or ()],
        kernel.allocator.free_count(), list(kernel.pending_bit_clears),
        [proc.mfoe_enabled for proc in kernel.procs.values()],
        kernel.mfoe_active, kernel.fill_core, kernel.pass_budget,
    )


def random_kernel_states(rng, trial, make=KernelModel):
    """Build a kernel with make() and yield it after each of 120 seeded
    random operations, with what the operation returned.

    The operations are consumes, pass steps, cleanups, exits (each
    followed by a new process), disable/enable and fill steps, on 1-3
    cores, with quotas that trip at a pass start, a pool of 28, 48 or 4096
    frames that can run out, and pass budgets of 0 and more records. The
    first results also hold the two initial prefaults' counts, and an
    exit's the raw words of the leaves it left.
    """
    kernel = make(cores=rng.randint(1, 3), total_frames=rng.choice([28, 48, 4096]),
                  seed=trial, refresh_interval_ms=rng.choice([0.0001, 0.005, 2.0]))
    cursor = {}

    def spawn():
        proc = kernel.create_process(quota_frames=rng.choice([None, 6, 20]))
        kernel.mfoe_enable(proc, 8)
        vma = kernel.region_create(proc, 64 * PAGE_SIZE)
        cursor[proc.tgid] = (vma.start, vma.end)
        return kernel.prefault_construct(proc, vma)

    results = [spawn(), spawn()]
    for _ in range(120):
        procs = list(kernel.procs.values())
        roll = rng.random()
        if roll < 0.4:
            proc = rng.choice(procs)
            va, end = cursor[proc.tgid]
            leaf = proc.page_table.walk(va) if va < end else None
            if kernel.mfoe_active and leaf is not None and leaf.mfoeable:
                pfn = kernel.tables[rng.randrange(kernel.cores)].consume(va, proc.tgid)
                if pfn is not None:
                    leaf.install_frame(pfn, True)
                    cursor[proc.tgid] = (va + PAGE_SIZE, end)
                results.append(pfn)
        elif roll < 0.55:
            results.extend(kernel.pass_step() for _ in range(rng.randrange(4)))
        elif roll < 0.65:
            results.append(kernel.error_cleanup(rng.choice(procs).tgid))
        elif roll < 0.72:
            proc = rng.choice(procs)
            results.append(kernel.terminate(proc))
            results.append([leaf.raw for leaf in proc.page_table.entries.values()])
            results.append(spawn())
        elif roll < 0.78:
            results.extend(kernel.mfoe_disable(proc) for proc in procs)
            for proc in procs:
                kernel.mfoe_enable(proc, 8)
        else:
            results.append(kernel.fill_step())
        yield kernel, results
        results = []


def test_a_pass_start_with_no_work_leaves_the_next_none():
    # the simulator applies the ticks after a pass start that has no work
    # in one advance_passes call; that is exact only if a second start
    # then changes nothing but the tick count and the start core, and the
    # pass books nothing. Checked on seeded random kernel states
    rng = random.Random(22)
    seen = Counter()
    for trial in range(30):
        for kernel, _ in random_kernel_states(rng, trial):
            procs = list(kernel.procs.values())
            enabled = [proc.mfoe_enabled for proc in procs]
            start = _pass_state(kernel)
            if kernel.begin_pass():
                seen["trip"] += enabled != [proc.mfoe_enabled for proc in procs]
                continue
            before, tick = _pass_state(kernel), kernel.tick_index
            # the start itself did no more than grant the budget and rotate
            assert before[:-1] == start[:-1]
            assert not kernel.begin_pass()
            assert _pass_state(kernel) == before
            assert kernel.tick_index == tick + 1
            assert kernel._pass_core == tick % kernel.cores
            assert kernel.pass_step() is None
            assert _pass_state(kernel) == before
            seen["zero budget" if kernel.pass_budget == 0 else "no used entry"] += 1
            seen["starved, no frame"] += kernel.mfoe_active and any(
                not t.used and t.tail_is_empty() for t in kernel.tables)
    assert all(seen[k] for k in ("trip", "zero budget", "no used entry", "starved, no frame")), seen


def test_advancing_zero_passes_changes_nothing():
    kernel, proc, vma = make_kernel(cores=2, width=8)
    consume_pages(kernel, proc, vma, 0, 3)
    assert kernel.begin_pass()
    assert kernel.pass_step() is not None
    before = (kernel.tick_index, kernel._pass_core, kernel.pass_budget)
    kernel.advance_passes(0)
    assert (kernel.tick_index, kernel._pass_core, kernel.pass_budget) == before


@pytest.mark.parametrize("cores", [1, 2])
def test_passes_book_every_entry_a_cleanup_leaves_behind(cores):
    # cleanups empty slots anywhere in the ring, some before the fill has
    # finished; once the fill completes, passes restocking at head must
    # still reach and book every used entry
    rng = random.Random(cores)
    early_cleanups = 0
    for trial in range(150):
        kernel = KernelModel(cores=cores, total_frames=4096, seed=trial)
        procs = [kernel.create_process() for _ in range(3)]
        cursor = {}
        for proc in procs:
            kernel.mfoe_enable(proc, 16)
            vma = kernel.region_create(proc, 256 * PAGE_SIZE)
            kernel.prefault_construct(proc, vma)
            cursor[proc.tgid] = vma.start
        for _ in range(rng.randrange(10, 120)):
            roll = rng.random()
            if roll < 0.45:
                proc = rng.choice(procs)
                va = cursor[proc.tgid]
                pfn = kernel.tables[rng.randrange(cores)].consume(va, proc.tgid)
                if pfn is not None:
                    proc.page_table.walk(va).install_frame(pfn, True)
                    cursor[proc.tgid] += PAGE_SIZE
            elif roll < 0.6:
                early_cleanups += kernel.fill_core is not None
                kernel.error_cleanup(rng.choice(procs).tgid)
            elif roll < 0.7:
                kernel.postfault_tick()
            else:
                kernel.fill_step()
        kernel.run_init_fill()
        while kernel.postfault_tick():
            pass
        for table in kernel.tables:
            assert table.used_count() == 0, f"trial {trial} left entries unbooked"
        census = kernel.frame_census()
        assert census["free"] + census["outstanding"] == census["total"]
        assert census["outstanding"] == (
            census["table_valid"] + census["table_storage"] + census["mapped"])
        assert len(kernel.ledger.rmap) == census["mapped"]
    assert early_cleanups, "no cleanup ran before the fill finished"


# starved tables: an empty tail slot and no used entry, so consume finds
# nothing and no booking would restock the slot


def test_pass_restocks_a_table_a_disable_and_enable_left_starved():
    kernel, proc, vma = make_kernel(width=8)
    consume_pages(kernel, proc, vma, 0, 3)
    kernel.mfoe_disable(proc)  # drains the 4 valid frames, tail included
    kernel.mfoe_enable(proc, 8)
    kernel.run_init_fill()  # the head is used, so the fill passes the core by
    while kernel.postfault_tick():
        pass
    table = kernel.tables[0]
    assert table.consume(vma.start + 10 * PAGE_SIZE, proc.tgid) is not None
    assert table.used == 1 and table.valid_count() == 6


def test_pass_restocks_a_ring_an_exit_cleanup_emptied():
    kernel, a, vma = make_kernel(width=8)
    b = kernel.create_process()
    kernel.mfoe_enable(b, 8)
    consume_pages(kernel, a, vma, 0, 7)
    assert kernel.error_cleanup(a.tgid) == 7
    table = kernel.tables[0]
    assert table.consume(vma.start, b.tgid) is None
    assert kernel.begin_pass(), "a starved table is work for the pass"
    assert kernel.pass_step() is None
    assert table.consume(vma.start, b.tgid) is not None
    assert table.used == 1 and table.valid_count() == 6


def test_starved_table_waits_for_a_frame_without_moving():
    # 1 storage frame and 7 filled slots use up the pool
    kernel, a, vma = make_kernel(width=8, total_frames=8)
    a.quota_frames = 100  # a's 7 pages stay under the quota threshold
    b = kernel.create_process()
    kernel.mfoe_enable(b, 8)
    consume_pages(kernel, a, vma, 0, 7)
    kernel.error_cleanup(a.tgid)
    table = kernel.tables[0]
    assert kernel.allocator.free_count() == 0
    head = table.head_index
    assert not kernel.begin_pass(), "no frame on hand, so nothing to restock"
    assert kernel.pass_step() is None
    assert table.head_index == head and table.valid_count() == 0
    kernel.terminate(a)  # frees a's 7 pages; b keeps offloading on
    assert kernel.begin_pass()
    assert table.valid_count() == 7 and not kernel.begin_pass()


def test_mm_counter_is_present_pages_less_unbooked_entries():
    # criterion 8's shape with quotas, touching through the engine: every
    # present page is booked or still waits in a table as a used entry, so
    # mm_counter alone is the page count the quota check reads
    rng = random.Random(808)
    kernel = KernelModel(cores=2, total_frames=4096, seed=31)
    engine = MfoeEngine(kernel)
    procs = []
    for quota in (None, 40, 120, None, 80):
        proc = kernel.create_process(quota_frames=quota)
        kernel.mfoe_enable(proc, 32)
        vma = kernel.region_create(proc, 300 * PAGE_SIZE)
        kernel.prefault_construct(proc, vma)
        procs.append([proc, vma, 0])
    everyone = [proc for proc, _, _ in procs]
    kernel.run_init_fill()

    def check():
        used = Counter(
            table.record_at(i).tgid
            for table in kernel.tables
            for i in table.data_indices()
            if table.entry_state(i) is EntryState.USED
        )
        for proc, _, _ in procs:
            present = sum(leaf.present for _, leaf in proc.page_table.iter_leaves())
            assert kernel.ledger.mm_counter[proc.tgid] == present - used[proc.tgid]

    passes = 0
    for _ in range(5000):
        roll = rng.random()
        if roll < 0.75:
            entry = rng.choice(procs)
            proc, vma, idx = entry
            if idx >= vma.pages():
                continue
            core = rng.randrange(2)
            engine.bind(core, proc)
            engine.access(core, vma.start + idx * PAGE_SIZE, is_write=True)
            entry[2] += 1
        elif roll < 0.93:
            kernel.postfault_tick()
            passes += 1
            check()
        elif roll < 0.99:
            kernel.error_cleanup(rng.choice(procs)[0].tgid)
        elif len(procs) > 1:
            proc = procs.pop(rng.randrange(len(procs)))[0]
            kernel.terminate(proc)
            engine.on_process_exit(proc.tgid)
            assert proc.tgid not in kernel.ledger.mm_counter
    check()
    assert passes > 100
    tripped = [p.tgid for p in everyone if p.quota_frames and not p.mfoe_enabled]
    assert len(tripped) >= 2, "the quotas never tripped"


def test_cleanup_and_tick_share_tables_safely_across_threads():
    kernel, proc, vma = make_kernel(width=64, total_frames=1 << 15)
    stop = threading.Event()

    def ticker():
        while not stop.is_set():
            kernel.postfault_tick()

    th = threading.Thread(target=ticker)
    th.start()
    total = 600
    try:
        for i in range(total):
            while kernel.tables[0].consume(vma.start + i * PAGE_SIZE, proc.tgid) is None:
                pass
            if i % 7 == 0:
                kernel.error_cleanup(proc.tgid)
    finally:
        stop.set()
        th.join()
    # cleanups leave their slots empty and the passes restock them at
    # head, so passes alone book whatever the last tick left behind
    while kernel.postfault_tick():
        pass
    # the ledger write raises on any double-processed frame, so surviving
    # to this point with every fault booked exactly once is the assertion
    assert len(kernel.ledger.records()) == total


# quota enforcement


def test_resource_check_uses_strict_threshold():
    kernel = KernelModel()
    proc = kernel.create_process(quota_frames=10)
    kernel.mfoe_enable(proc, 8)
    for pfn in range(8):  # exactly 0.8 * 10
        kernel.ledger.apply(proc.tgid, pfn * PAGE_SIZE, pfn)
    assert not kernel.resource_check(proc)
    assert proc.mfoe_enabled
    kernel.ledger.apply(proc.tgid, 8 * PAGE_SIZE, 8)
    assert kernel.resource_check(proc)
    assert not proc.mfoe_enabled
    assert proc in kernel.pending_bit_clears
    assert not kernel.resource_check(proc), "already off; no second trip"


def test_bit_clears_spare_mapped_pages():
    kernel, proc, vma = make_kernel(width=8)
    consume_pages(kernel, proc, vma, 0, 2)
    assert kernel.postfault_tick() == 2
    proc.quota_frames = 2
    assert kernel.resource_check(proc)
    kernel.apply_pending_bit_clears()
    assert not vma.vm_mfoe
    mapped = proc.page_table.walk(vma.start)
    assert mapped.present and mapped.mfoeable, "installed pages keep their bits"
    waiting = proc.page_table.walk(vma.start + 10 * PAGE_SIZE)
    assert waiting.raw == 0, "unfaulted pages lose eligibility"


# teardown and accounting


def test_terminate_returns_every_frame():
    kernel, proc, vma = make_kernel(width=8)
    consume_pages(kernel, proc, vma, 0, 3)
    consume_pages(kernel, proc, vma, 0, 1, offset=10)
    freed = kernel.terminate(proc)
    assert freed == 4
    assert proc.tgid not in kernel.procs
    census = kernel.frame_census()
    assert census["mapped"] == 0
    assert census["table_valid"] == 0
    # only the table storage itself stays allocated
    assert census["outstanding"] == census["table_storage"]
    assert census["free"] + census["outstanding"] == census["total"]


def test_terminate_unbooks_so_frames_can_recycle():
    # exit must drop the dead process's reverse-map entries, otherwise a
    # recycled frame would collide with the stale booking
    kernel, proc, vma = make_kernel(width=8, total_frames=32)
    consume_pages(kernel, proc, vma, 0, 3)
    kernel.postfault_tick()
    assert len(kernel.ledger.records()) == 3
    dead_tgid = proc.tgid
    kernel.terminate(proc)
    assert kernel.ledger.records() == set()
    assert dead_tgid not in kernel.ledger.mm_counter

    other = kernel.create_process()
    kernel.mfoe_enable(other, 8)
    vma2 = kernel.region_create(other, 16 * PAGE_SIZE)
    kernel.prefault_construct(other, vma2)
    kernel.run_init_fill()
    # drain the free list through the table until a freed frame comes back
    recycled = set()
    for i in range(16):
        pfn = kernel.tables[0].consume(vma2.start + i * PAGE_SIZE, other.tgid)
        if pfn is None:
            break
        other.page_table.walk(vma2.start + i * PAGE_SIZE).install_frame(pfn, True)
        recycled.add(pfn)
        kernel.postfault_tick()
    assert recycled  # bookings above must not have raised
    assert all(tgid == other.tgid for tgid, _, _ in kernel.ledger.records())


def test_frame_census_partitions_the_pool():
    kernel, proc, vma = make_kernel(width=8)
    consume_pages(kernel, proc, vma, 0, 2)
    va = vma.start + 40 * PAGE_SIZE
    kernel.inline_install(proc, va, True, proc.page_table.construct_path(va))
    c = kernel.frame_census()
    assert c["total"] == 4096
    assert c["free"] + c["outstanding"] == c["total"]
    assert c["outstanding"] == c["table_storage"] + c["table_valid"] + c["mapped"]
    assert c["mapped"] == 3
    assert c["table_valid"] == 5


def _kernel_path_twin():
    """A kernel, its engine and process, and three regions whose first
    touches all take the kernel path: one mapped before offloading was
    on (no leaves), one after with an empty table (eligible leaves whose
    consume misses), and a read-only one."""
    kernel = KernelModel(total_frames=1024, seed=1)
    engine = MfoeEngine(kernel)
    proc = kernel.create_process()
    bare = kernel.region_create(proc, 24 * PAGE_SIZE)
    kernel.mfoe_enable(proc, 8)  # no init fill, so every consume misses
    stamped = kernel.region_create(proc, 24 * PAGE_SIZE)
    readonly = kernel.region_create(proc, 16 * PAGE_SIZE, writable=False)
    for vma in (stamped, readonly):
        kernel.prefault_construct(proc, vma)
    engine.bind(0, proc)
    return kernel, engine, proc, (bare, stamped, readonly)


def _kernel_state(kernel, proc):
    """Leaf words in build order, the allocator, and the ledger in
    booking order."""
    return ([(vpn, leaf.raw) for vpn, leaf in proc.page_table.entries.items()],
            list(kernel.allocator.free_list), kernel.allocator.allocated,
            list(kernel.ledger.rmap.items()), kernel.ledger.mm_counter)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_path_fault_with_the_handlers_leaf_matches_inline_install(seed):
    # the handler hands inline_install the leaf it holds; its twin hands
    # it the leaf construct_path finds or builds, for the same faults in
    # the same seeded order
    kernel, engine, proc, vmas = _kernel_path_twin()
    twin, _, twin_proc, _ = _kernel_path_twin()
    faults = [(va, vma.writable) for vma in vmas for va in range(vma.start, vma.end, PAGE_SIZE)]
    random.Random(seed).shuffle(faults)
    kinds = Counter()
    for va, writable in faults:
        out = engine.access(0, va)
        kinds[out.kind.value] += 1
        leaf = twin_proc.page_table.construct_path(va)
        assert out.pfn == twin.inline_install(twin_proc, va, writable, leaf)
        assert _kernel_state(kernel, proc) == _kernel_state(twin, twin_proc)
    assert kinds == {"kernel_fault": 24, "mfoe_miss": 40}


def test_terminate_refuses_a_process_the_kernel_does_not_hold():
    kernel, proc, vma = make_kernel(width=8)
    consume_pages(kernel, proc, vma, 0, 3)
    other = KernelModel().create_process(tgid=proc.tgid)

    def state():
        return (list(kernel.allocator.free_list), list(kernel.ledger.rmap.items()),
                [t.to_bytes() for t in kernel.tables], kernel.mfoe_active,
                [leaf.raw for leaf in proc.page_table.entries.values()])

    before = state()
    with pytest.raises(ValueError, match="not a live process"):
        kernel.terminate(other)
    assert state() == before
    assert kernel.terminate(proc) == 3
    before = state()
    with pytest.raises(ValueError, match="not a live process"):
        kernel.terminate(proc)
    assert state() == before


def test_ledger_remove_drops_frames_of_several_tgids():
    ledger = BookkeepingLedger()
    for pfn, tgid in ((10, 1), (11, 2), (12, 1), (13, 3), (14, 2)):
        ledger.apply(tgid, pfn * PAGE_SIZE, pfn)
    ledger.remove([12, 11, 10])
    assert list(ledger.rmap) == [13, 14]
    assert list(ledger.mm_counter.items()) == [(2, 1), (3, 1)]
    ledger.remove(13)  # one frame number stands for itself
    assert list(ledger.mm_counter.items()) == [(2, 1)]


@pytest.mark.parametrize("pfns, error, message", [
    ([11, 12, 11], ValueError, "frame 11 is removed twice"),
    ([10, 99, 11], RuntimeError, "frame 99 is not reverse-mapped"),
], ids=["repeated", "unbooked"])
def test_ledger_remove_refuses_a_bad_frame_changing_nothing(pfns, error, message):
    ledger = BookkeepingLedger()
    for pfn in (10, 11, 12):
        ledger.apply(7, pfn * PAGE_SIZE, pfn)
    before = (list(ledger.rmap.items()), list(ledger.mm_counter.items()))
    with pytest.raises(error, match=message):
        ledger.remove(pfns)
    assert (list(ledger.rmap.items()), list(ledger.mm_counter.items())) == before


# The per-page loops that prefault, exit cleanup, unmap, the table drain,
# the bit clears and the census ran before they became bulk passes, kept
# as the reference the kernel must match operation for operation.


def _ref_prefault_construct(self, proc, vma):
    if not vma.vm_mfoe:
        return 0
    stamped = 0
    for va in range(vma.start, vma.end, PAGE_SIZE):
        leaf = proc.page_table.construct_path(va)
        if leaf.present or leaf.mfoeable:
            continue
        leaf.stamp_prefault(proc.tgid, vma.writable)
        stamped += 1
    return stamped


def _ref_mfoe_disable(self, proc):
    if not proc.mfoe_enabled:
        return 0
    proc.mfoe_enabled = False
    if any(p.mfoe_enabled for p in self.procs.values()):
        return 0
    self.mfoe_active = False
    self.fill_core = None
    freed = 0
    for table in self.tables or ():
        for pfn in table.drain_valid():
            self.allocator.free([pfn])
            freed += 1
    return freed


def _ref_error_cleanup(self, tgid):
    if self.tables is None:
        return 0
    removed = 0
    for table in self.tables:
        self._acquire_cleanup_lock(table)
        try:
            for i in table.data_indices():
                if table.entry_state(i) is EntryState.USED and table.record_at(i).tgid == tgid:
                    record = table.take_used(i)
                    self.ledger.apply(record.tgid, record.va, record.pfn)
                    removed += 1
        finally:
            table.release_cleanup_lock()
    return removed


def _ref_apply_pending_bit_clears(self):
    for proc in self.pending_bit_clears:
        for vma in proc.vmas:
            if not vma.vm_mfoe:
                continue
            vma.vm_mfoe = False
            for va in range(vma.start, vma.end, PAGE_SIZE):
                leaf = proc.page_table.walk(va)
                if leaf is not None and leaf.mfoeable and not leaf.present:
                    leaf.clear()
    self.pending_bit_clears = []


def _ref_terminate(self, proc):
    self.error_cleanup(proc.tgid)
    freed = 0
    for _, leaf in proc.page_table.iter_leaves():
        if leaf.present:
            self.allocator.free([leaf.pfn_or_tgid])
            self.ledger.remove([leaf.pfn_or_tgid])
            freed += 1
        leaf.clear()
    self.mfoe_disable(proc)
    del self.procs[proc.tgid]
    return freed


def _ref_frame_census(self):
    table_valid = sum(t.valid_count() for t in self.tables) if self.tables else 0
    mapped = sum(
        1
        for proc in self.procs.values()
        for _, leaf in proc.page_table.iter_leaves()
        if leaf.present
    )
    return {
        "free": self.allocator.free_count(),
        "table_valid": table_valid,
        "table_storage": len(self.table_storage_frames),
        "mapped": mapped,
        "outstanding": self.allocator.outstanding(),
        "total": self.allocator.total_frames,
    }


def reference_kernel(**kw):
    """A KernelModel whose bulk passes are the per-page reference loops;
    its own calls among them (a quota trip's disable, an exit's cleanup)
    reach the reference too."""
    kernel = KernelModel(**kw)
    for name, loop in (
        ("prefault_construct", _ref_prefault_construct),
        ("mfoe_disable", _ref_mfoe_disable),
        ("error_cleanup", _ref_error_cleanup),
        ("apply_pending_bit_clears", _ref_apply_pending_bit_clears),
        ("terminate", _ref_terminate),
        ("frame_census", _ref_frame_census),
    ):
        setattr(kernel, name, types.MethodType(loop, kernel))
    return kernel


def _twin_state(kernel):
    return (
        list(kernel.allocator.free_list), kernel.allocator.allocated,
        list(kernel.ledger.rmap.items()), list(kernel.ledger.mm_counter.items()),
        [(t.to_bytes(), t.consumed, t.released) for t in kernel.tables or ()],
        [(tgid, [(vpn, leaf.raw) for vpn, leaf in proc.page_table.entries.items()],
          proc.mfoe_enabled, [vma.vm_mfoe for vma in proc.vmas])
         for tgid, proc in kernel.procs.items()],
        [proc.tgid for proc in kernel.pending_bit_clears],
        kernel.mfoe_active, kernel.fill_core, kernel.tick_index, kernel.pass_budget,
        kernel.frame_census(),
    )


def _run_twins(trials):
    """Drive a kernel and a reference kernel through the same seeded
    operations, each followed by a pass start, and compare everything
    either can show after every step."""
    for trial in range(trials):
        twins = zip(random_kernel_states(random.Random(trial), trial),
                    random_kernel_states(random.Random(trial), trial, make=reference_kernel))
        for step, ((kernel, results), (reference, expected)) in enumerate(twins):
            where = f"trial {trial}, step {step}"
            assert results == expected, where
            assert _twin_state(kernel) == _twin_state(reference), where
            assert kernel.begin_pass() == reference.begin_pass(), where
            assert _twin_state(kernel) == _twin_state(reference), where


def _take_every_used(table, tgid):
    return [(record.va, record.pfn) for record in (
        table.take_used(i) for i in table.data_indices()
        if table.entry_state(i) is EntryState.USED)]


@pytest.mark.parametrize("mutant", [None, "reversed unmap", "no tgid filter"])
def test_bulk_passes_match_the_per_page_reference(mutant, monkeypatch):
    # a seeded mutant of the bulk exit must show against the reference
    if mutant is None:
        _run_twins(30)
        return
    if mutant == "reversed unmap":
        monkeypatch.setattr(kernel_module, "sorted", lambda keys: builtins.sorted(keys)[::-1],
                            raising=False)
    else:
        monkeypatch.setattr(PreallocTable, "take_used_of", _take_every_used)
    with pytest.raises(AssertionError):
        _run_twins(30)


def test_kernel_refuses_zero_cores():
    # so the fill cursor always has a core 0 to start from
    with pytest.raises(ValueError, match="at least one core"):
        KernelModel(cores=0)
