"""Acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS" line with the measured
numbers; run with -s (or -rP) to see them. Tolerances and runtime
bounds are asserted, not just reported.
"""
import math
import random
import struct
import threading
import time

from mfoesim.cli import main as cli_main
from mfoesim.engine import MfoeEngine, OutcomeKind, PteFaultSm, SmResult
from mfoesim.kernel import BookkeepingLedger, KernelModel
from mfoesim.params import ModelParameters
from mfoesim.prealloc import EntryState, PreallocTable, ProduceStatus
from mfoesim.sim import SimConfig, WorkloadSpec, run
from mfoesim.trace import (
    DEFAULT_INTERVALS_MS,
    DEFAULT_WIDTHS,
    FaultTrace,
    TraceModelConfig,
    apply_model,
    sweep,
)
from mfoesim.vm import PAGE_SIZE


def _pass(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


# 1. Microbenchmark hit-rate curve


def _strided_hit_rate(threads: int) -> float:
    workload = WorkloadSpec(
        threads=threads, faults_per_thread=32768, interarrival_cycles=21000
    )
    config = SimConfig(
        workload=workload, table_width=256, refresh_interval_ms=2.0, seed=0
    )
    return run(config).hit_rate


def test_criterion_1_hit_rate_curve():
    start = time.monotonic()
    rates = {t: _strided_hit_rate(t) for t in (1, 2, 4, 8)}
    elapsed = time.monotonic() - start
    for threads in (1, 2, 4):
        assert rates[threads] >= 0.90, f"{threads} threads: {rates[threads]:.4f}"
    assert rates[8] < rates[4], f"8T {rates[8]:.4f} !< 4T {rates[4]:.4f}"
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _pass(1, "hit rates "
          + " ".join(f"{t}T={rates[t]:.4f}" for t in (1, 2, 4, 8))
          + f", {elapsed:.1f}s")


# 2. Latency constants


def test_criterion_2_latency_constants():
    def build(fill: bool):
        kernel = KernelModel(cores=1, total_frames=4096, seed=1)
        engine = MfoeEngine(kernel)
        proc = kernel.create_process()
        kernel.mfoe_enable(proc, 8)
        if fill:
            kernel.run_init_fill()
        vma = kernel.region_create(proc, 4 * PAGE_SIZE)
        kernel.prefault_construct(proc, vma)
        engine.bind(0, proc)
        return engine, vma

    engine, vma = build(fill=True)
    hit = engine.access(0, vma.start, is_write=True, now=0)
    assert hit.kind is OutcomeKind.MFOE_HIT
    assert hit.cycles == 78

    engine, vma = build(fill=False)
    miss = engine.access(0, vma.start, is_write=True, now=0)
    assert miss.kind is OutcomeKind.MFOE_MISS
    assert miss.penalty_cycles == 14

    # all-hit run: the reported critical-path speedup is the configured
    # baseline mean over the constant hit cost
    workload = WorkloadSpec(threads=1, faults_per_thread=32, interarrival_cycles=200_000)
    report = run(SimConfig(workload=workload, table_width=64, seed=0))
    assert report.hit_rate == 1.0
    assert report.mean_hit_cycles == 78.0
    assert abs(report.critical_path_speedup - 2552 / 78) < 1e-9
    assert round(report.critical_path_speedup) == 33
    _pass(2, f"hit=78cy miss_penalty=14cy speedup={report.critical_path_speedup:.2f} (rounds to 33)")


# 3. Replay-model oracle equivalence


def _reference_replay(records, width, interval_ms, cores, params):
    """Brute-force oracle: a flat pending list scanned with min(), no
    heap, no shared code with the model beyond the parameter fields."""
    hit_ns = max(0, round(params.mfoe_hit_cycles * 1e9 / params.clock_hz))
    miss_ns = max(0, round(params.mfoe_miss_penalty_cycles * 1e9 / params.clock_hz))
    init_ns = max(1, round(1e9 / params.init_throughput_pages_per_s))
    rec_ns = max(1, round(1e9 / params.background_throughput_pages_per_s))
    interval_ns = max(1, round(interval_ms * 1e6))
    budget = interval_ns * params.background_throughput_pages_per_s // 10**9

    per_core = [[] for _ in range(cores)]
    for r in records:
        per_core[r[1]].append(r)

    LANDING, TICK, FAULT = 0, 1, 2
    pending = []
    seq = 0
    for p in range(cores * width):
        seq += 1
        pending.append(((p + 1) * init_ns, LANDING, p // width, seq, None))
    seq += 1
    pending.append((cores * width * init_ns + interval_ns, TICK, 0, seq, None))
    for c in range(cores):
        if per_core[c]:
            seq += 1
            pending.append((per_core[c][0][0], FAULT, c, seq, 0))

    pool = [0] * cores
    used = [0] * cores
    shift = [0] * cores
    timeline = []
    hits = misses = saved = penalty = 0
    tick_i = 0
    done = 0
    while done < len(records):
        ev = min(pending)
        pending.remove(ev)
        t, kind, core, _, pos = ev
        if kind == LANDING:
            pool[core] += 1
        elif kind == TICK:
            remaining = budget
            landed = 0
            c = tick_i % cores
            for _ in range(cores):
                take = min(used[c], remaining)
                if take:
                    used[c] -= take
                    remaining -= take
                    for _ in range(take):
                        landed += 1
                        seq += 1
                        pending.append((t + landed * rec_ns, LANDING, c, seq, None))
                if remaining == 0:
                    break
                c = (c + 1) % cores
            tick_i += 1
            seq += 1
            pending.append((t + interval_ns, TICK, 0, seq, None))
        else:
            orig_t, _, lat = per_core[core][pos]
            if pool[core] > 0:
                pool[core] -= 1
                used[core] += 1
                hits += 1
                saved += lat - hit_ns
                shift[core] -= lat - hit_ns
                timeline.append((orig_t, t, core, 1, hit_ns))
            else:
                misses += 1
                penalty += miss_ns
                shift[core] += miss_ns
                timeline.append((orig_t, t, core, 0, lat + miss_ns))
            done += 1
            if pos + 1 < len(per_core[core]):
                seq += 1
                pending.append(
                    (per_core[core][pos + 1][0] + shift[core], FAULT, core, seq, pos + 1)
                )
    return timeline, hits, misses, saved, penalty


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(33003)
    param_choices = [
        ModelParameters(),
        ModelParameters(clock_hz=1_000_000_000),
        ModelParameters(background_throughput_pages_per_s=500),
        ModelParameters(clock_hz=1_000_000_000, background_throughput_pages_per_s=1500),
    ]
    for case in range(200):
        cores = rng.choice([1, 2])
        n = rng.randint(1, 10)
        clocks = [0] * cores
        records = []
        for _ in range(n):
            c = rng.randrange(cores)
            clocks[c] += rng.choice([1, 7, 300, 5000, rng.randint(1, 30000)])
            lat = rng.choice([1, 14, 26, 100, rng.randint(1, 4000)])
            records.append((clocks[c], c, lat))
        records.sort(key=lambda r: (r[0], r[1]))

        width = rng.choice([1, 2, 3, 8])
        interval_ms = rng.choice([0.01, 0.5, 2.0])
        params = rng.choice(param_choices)

        report = apply_model(
            FaultTrace.from_records(records),
            TraceModelConfig(width=width, refresh_interval_ms=interval_ms, cores=cores),
            params,
        )
        tl = report.timeline
        got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes,
                       tl.modeled_latency_ns))
        want, hits, misses, saved, penalty = _reference_replay(
            records, width, interval_ms, cores, params
        )
        context = f"case {case}: {records} w={width} iv={interval_ms} p={params}"
        assert got == want, context
        assert (report.hits, report.misses) == (hits, misses), context
        assert (report.saved_ns, report.penalty_ns) == (saved, penalty), context
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _pass(3, f"200 traces timeline-exact vs oracle, {elapsed:.1f}s")


# 4. Closed-form speedup


def test_criterion_4_closed_form_speedup():
    speedups = {}
    for f in (0.05, 0.10, 0.29):
        spacing = round(851 / f)
        records = [(1_200_000 + i * spacing, 0, 851) for i in range(10_000)]
        report = apply_model(
            FaultTrace.from_records(records), TraceModelConfig(width=1024)
        )
        assert report.hit_rate == 1.0, f"f={f}: hit rate {report.hit_rate}"
        predicted = 1.0 / (1.0 - f * (1.0 - 78 / 2552))
        rel_err = abs(report.speedup - predicted) / predicted
        assert rel_err < 0.01, f"f={f}: {report.speedup:.5f} vs {predicted:.5f}"
        speedups[f] = report.speedup
    assert speedups[0.29] > 1.35
    _pass(4, " ".join(f"f={f}:{s:.4f}" for f, s in speedups.items()))


# 5. Sensitivity monotonicity


def test_criterion_5_sweep_monotonicity():
    assert tuple(DEFAULT_WIDTHS) == (128, 256, 512, 1024)
    assert tuple(DEFAULT_INTERVALS_MS) == (2.0, 4.0, 8.0, 16.0, 32.0)
    records = [(i * 3000, 0, 851) for i in range(20_000)]
    grid = sweep(FaultTrace.from_records(records))
    rate = {(c.width, c.interval_ms): c.report.hit_rate for c in grid.cells}
    for width in DEFAULT_WIDTHS:
        rates = [rate[(width, iv)] for iv in DEFAULT_INTERVALS_MS]
        assert all(a >= b for a, b in zip(rates, rates[1:])), f"width {width}: {rates}"
    for interval in DEFAULT_INTERVALS_MS:
        rates = [rate[(w, interval)] for w in DEFAULT_WIDTHS]
        assert all(a <= b for a, b in zip(rates, rates[1:])), f"interval {interval}: {rates}"
    min_speedup = min(c.report.speedup for c in grid.cells)
    assert min_speedup >= 0.995, f"min speedup {min_speedup:.5f}"
    _pass(5, f"20 cells monotone both axes, min speedup {min_speedup:.5f}")


# 6. SPSC ring correctness


def test_criterion_6_spsc_stress():
    start = time.monotonic()
    table = PreallocTable(4096)
    total = 1_000_000
    received = []

    def producer():
        pfn = 0
        while pfn < total:
            status = table.produce(pfn)
            if status is ProduceStatus.PRODUCED:
                pfn += 1
            elif status is ProduceStatus.NEEDS_HARVEST:
                table.harvest()
            else:
                time.sleep(0)

    def consumer():
        count = 0
        while count < total:
            got = table.consume(0x100000 + count * PAGE_SIZE, 99)
            if got is None:
                time.sleep(0)
            else:
                received.append(got)
                count += 1

    threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - start

    assert received == list(range(total))  # nothing lost, duplicated, or reordered
    assert 1 <= table.head_index <= table.capacity
    assert 1 <= table.tail_index <= table.capacity

    # bit-exact layout golden, independent of everything above
    g = PreallocTable(4)
    for pfn in (100, 200, 300):
        assert g.produce(pfn) is ProduceStatus.PRODUCED
    assert g.consume(0x7000, 5) == 100
    golden = b"".join(
        [
            struct.pack("<IIII", 1, 2, 4, 0),  # head, tail, slots, locks
            struct.pack("<QQ", 0x7000, (100 << 30) | (5 << 14) | 0b10),
            struct.pack("<QQ", 0, (200 << 30) | 0b01),
            struct.pack("<QQ", 0, (300 << 30) | 0b01),
        ]
    )
    blob = g.to_bytes()
    assert len(blob) == 16 * g.num_entries
    assert blob == golden
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    _pass(6, f"{total} frames FIFO-exact, golden layout matches, {elapsed:.1f}s")


# 7. Race-safety of the leaf lock protocol


def _race_world(cores: int, fill: bool):
    kernel = KernelModel(cores=cores, total_frames=256, seed=9)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 4)
    if fill:
        kernel.run_init_fill()
    vma = kernel.region_create(proc, PAGE_SIZE)
    kernel.prefault_construct(proc, vma)
    sms = [PteFaultSm(kernel, proc, c, vma.start, vma, True) for c in range(cores)]
    return kernel, proc, vma, sms


def _check_single_winner(proc, vma, sms, expect_from_table: bool):
    consumed = sum(int(sm.consumed_from_table) + int(sm.allocated_inline) for sm in sms)
    assert consumed == 1, f"{consumed} frames consumed for one page"
    pfns = {sm.pfn for sm in sms}
    assert len(pfns) == 1
    leaf = proc.page_table.walk(vma.start)
    assert leaf.present and not leaf.locked
    assert leaf.pfn_or_tgid == pfns.pop()
    for sm in sms:
        if sm.consumed_from_table:
            assert sm.result is SmResult.MFOE_HIT
        elif sm.allocated_inline:
            assert sm.result in (SmResult.KERNEL, SmResult.MFOE_MISS_KERNEL)
        else:
            assert sm.result in (SmResult.REUSE, SmResult.WAITED)
    if expect_from_table:
        assert any(sm.consumed_from_table for sm in sms)


def _exhaust_interleavings(cores: int, fill: bool) -> int:
    """DFS over every schedule, rebuilding the world and replaying the
    step-choice prefix; branches wherever more than one handler can act."""
    terminal = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        _, proc, vma, sms = _race_world(cores, fill)
        for choice in prefix:
            sms[choice].step()
        avail = [i for i, sm in enumerate(sms) if not sm.done and sm.runnable()]
        if not avail:
            assert all(sm.done for sm in sms), "schedule deadlocked"
            _check_single_winner(proc, vma, sms, expect_from_table=fill)
            terminal += 1
        else:
            for i in avail:
                stack.append(prefix + (i,))
    return terminal


def test_criterion_7_lock_race_safety():
    schedules_full = _exhaust_interleavings(2, fill=True)
    schedules_empty = _exhaust_interleavings(2, fill=False)
    assert schedules_full > 1 and schedules_empty > 1

    rng = random.Random(70007)
    randomized = 0
    for cores in (4, 8):
        for fill in (True, False):
            for _ in range(100):
                _, proc, vma, sms = _race_world(cores, fill)
                while True:
                    avail = [sm for sm in sms if not sm.done and sm.runnable()]
                    if not avail:
                        break
                    rng.choice(avail).step()
                assert all(sm.done for sm in sms)
                _check_single_winner(proc, vma, sms, expect_from_table=fill)
                randomized += 1
    _pass(7, f"exhaustive 2-core: {schedules_full}+{schedules_empty} schedules; "
             f"{randomized} randomized 4/8-core schedules; one frame per page always")


# 8. Bookkeeping equivalence under termination


def test_criterion_8_bookkeeping_equivalence():
    rng = random.Random(8008)
    kernel = KernelModel(cores=2, total_frames=4096, seed=31)
    inline = BookkeepingLedger()
    applied: dict[int, list[int]] = {}

    procs = []
    for _ in range(5):
        p = kernel.create_process()
        kernel.mfoe_enable(p, 32)
        vma = kernel.region_create(p, 400 * PAGE_SIZE)
        kernel.prefault_construct(p, vma)
        procs.append([p, vma, 0])
        applied[p.tgid] = []
    kernel.run_init_fill()
    dead: set[int] = set()

    def scan_for_dead_entries():
        for table in kernel.tables:
            for i in table.data_indices():
                if table.entry_state(i) is EntryState.USED:
                    assert table.record_at(i).tgid not in dead

    for step in range(6000):
        roll = rng.random()
        if roll < 0.72 and procs:
            entry = rng.choice(procs)
            proc, vma, idx = entry
            if idx >= vma.pages():
                continue
            core = rng.randrange(2)
            va = vma.start + idx * PAGE_SIZE
            pfn = kernel.tables[core].consume(va, proc.tgid)
            if pfn is None:
                continue  # table ran dry; background refill is behind
            proc.page_table.walk(va).install_frame(pfn, True)
            inline.apply(proc.tgid, va, pfn)
            applied[proc.tgid].append(pfn)
            entry[2] += 1
        elif roll < 0.86:
            kernel.postfault_tick()
        elif roll < 0.95 and procs:
            kernel.error_cleanup(rng.choice(procs)[0].tgid)
        elif len(procs) > 1:
            victim = procs.pop(rng.randrange(len(procs)))
            proc = victim[0]
            for pfn in applied.pop(proc.tgid):
                inline.remove(pfn)
            kernel.terminate(proc)
            dead.add(proc.tgid)
            scan_for_dead_entries()

    # drain: periodic passes reach only the contiguous run at each head;
    # the full-scan cleanup is the completeness pass for anything a
    # refill stranded mid-ring
    while kernel.postfault_tick():
        pass
    for proc, _, _ in procs:
        kernel.error_cleanup(proc.tgid)

    assert kernel.ledger.records() == inline.records()
    assert kernel.ledger.equivalent(inline)
    scan_for_dead_entries()
    for table in kernel.tables:
        for i in table.data_indices():
            assert table.entry_state(i) is not EntryState.USED
    census = kernel.frame_census()
    assert census["free"] + census["outstanding"] == census["total"]
    booked = len(kernel.ledger.records())
    _pass(8, f"{booked} live bookings equal inline ledger; "
             f"{len(dead)} terminated tgids left no table entries")


# 9. Determinism of report files


def test_criterion_9_byte_identical_outputs(tmp_path):
    def twice(subdir, argv_for, filenames):
        dirs = [tmp_path / f"{subdir}_{i}" for i in (0, 1)]
        for d in dirs:
            assert cli_main(argv_for(d)) == 0
        for name in filenames:
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"{subdir}/{name} differs between runs"
        return dirs[0]

    synth_dir = twice(
        "synth",
        lambda d: ["synthesize", "--rate", "80000", "--duration", "0.05",
                   "--dist", "poisson", "--seed", "7", "--out-dir", str(d)],
        ["trace.csv"],
    )
    trace_path = str(synth_dir / "trace.csv")

    twice(
        "sim",
        lambda d: ["simulate", "--threads", "2", "--faults-per-thread", "2000",
                   "--interarrival", "3000", "--table-width", "32",
                   "--seed", "5", "--out-dir", str(d)],
        ["report.json", "faults.csv"],
    )
    twice(
        "model",
        lambda d: ["model", "--trace", trace_path, "--width", "128",
                   "--out-dir", str(d)],
        ["model_report.json", "timeline.csv"],
    )
    twice(
        "sweep",
        lambda d: ["sweep", "--trace", trace_path, "--widths", "128,256",
                   "--intervals-ms", "1,2", "--out-dir", str(d)],
        ["sweep.json", "sweep.csv"],
    )
    _pass(9, "synthesize/simulate/model/sweep all byte-identical across reruns")
