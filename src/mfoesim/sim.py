"""Deterministic event-driven simulator.

One process, one faulting thread per core, all time in integer cycles.
Threads alternate a fixed compute gap with a touch of the next page of
their region; the touches are the only events. The background actors
(initial table fill, refresh ticks, the pass steps between ticks) are
on the same time line. Each keeps the cycle it is next due at, and the
loop keeps their minimum, so one compare per touch decides whether any
background work comes before it. Their timing is the kernel's
(KernelModel.interval_cycles, fill_cost and record_cost, derived once
by params.background_timing, each its setting rounded and at least 1
cycle, since a setting that rounds lower is refused); the simulator
derives none of its own.
A pass start with no work (KernelModel.begin_pass returns False) or a
pass step that books nothing leaves the pass dry, with no step due,
until the next tick or the next touch that is neither a TLB nor a walk
hit: TLB and walk hits never wake the pass, since they change nothing
it reads. A dry pass start stands for every tick up to the touch,
applied in one call.
Everything downstream of the seed is reproducible to the byte.

The touch loop plays the MMU: it looks the page up in the engine's TLB
and walks the page table itself, running the TLB's LRU on the Tlb's own
map as Tlb.lookup and Tlb.insert do, and serves a TLB or walk hit with
no engine call. Only a fault goes to MfoeEngine.serve_fault, handed the
leaf and word the loop already read and the thread's own region VMA,
which holds every page the thread touches, so the fault path looks
nothing up; only then can the pass wake. After a walk hit or a fault
the loop fills the TLB itself, with one store, as the MMU's last step.

Every touch, TLB and walk hits included, is logged as one row of a
FaultLog: three columns (cycle, code, latency cycles), the code being
core * len(OUTCOMES) + the outcome's index in OUTCOMES, so the log costs
a few bytes per touch instead of one object. The log is the one record
of what each touch cost: the event loop keeps per core only its end
time, and the report derives every other CoreStats field, touches
included, and every total from each code's count and cycle sum.
faults.csv is formatted from its columns a block of rows at a time,
and the codes decoded, by trace.CodedLog, the one rule the replay's
timeline.csv follows too.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import compress
from typing import Iterator, Optional

from .engine import MfoeEngine, OutcomeKind
from .kernel import VMA, KernelModel
from .params import INT64_MAX, ModelParameters, check_finite_positive
from .prealloc import check_table_width
from .trace import MAX_CORES, CodedLog, JsonReport
from .vm import PAGE_SHIFT, PAGE_SIZE, PFN_MASK, PFN_SHIFT, PTE_PRESENT

# A background clock that is not running.
NEVER = math.inf

# Caps on what a run builds before its first touch, checked before
# anything is sized by them. Every page of every thread's region gets a
# page-table leaf (about 150 bytes and 1.5 us each on CPython 3.11), so
# threads x region pages is capped at 16x criterion 1's top point
# (8 x 32,768 pages); the frame allocator holds every frame number
# (about 40 bytes each), so the pool is capped at 4x the default
# million frames; and each core gets a table, so cores are capped as
# the replay caps them, and cores x table width too: a table holds two
# words of about 8 bytes per slot (1 MB for one 65,535-slot table), so
# 2**22 slots is 64 MiB of ring words.
MAX_MAPPED_PAGES = 1 << 22
MAX_TOTAL_FRAMES = 1 << 22
MAX_TABLE_SLOTS = 1 << 22
# A small region is revisited, so touches are capped apart from pages:
# 2**24 FaultLog rows, 64x criterion 1's top point, take 288 MB.
MAX_TOUCHES = 1 << 24

_PAST_64_BITS = f"a simulated cycle count passed {INT64_MAX}, the signed 64-bit limit"

# A simulation reads every ModelParameters field; simulate accepts
# --params-* for all of them.
SIM_PARAMETERS = tuple(f.name for f in fields(ModelParameters))


@dataclass
class WorkloadSpec:
    """Per-thread synthetic fault generator.

    Each thread owns a private region and touches it with a fixed stride,
    one touch per interarrival_cycles of compute. region_pages_per_thread
    defaults to faults_per_thread so every touch faults a fresh page.
    """

    threads: int = 1
    faults_per_thread: int = 32768
    interarrival_cycles: int = 21000
    region_pages_per_thread: Optional[int] = None
    stride_pages: int = 1

    def validate(self) -> None:
        if self.threads < 1:
            raise ValueError("need at least one thread")
        if self.faults_per_thread < 1:
            raise ValueError("need at least one fault per thread")
        if self.interarrival_cycles < 1:
            raise ValueError("interarrival must be at least one cycle")
        if self.stride_pages < 1:
            raise ValueError("stride must be at least one page")
        if self.region_pages_per_thread is not None and self.region_pages_per_thread < 1:
            raise ValueError("region must hold at least one page")

    def region_pages(self) -> int:
        return self.region_pages_per_thread or self.faults_per_thread

    def pages(self, first: int) -> Iterator[int]:
        """A thread's page numbers in touch order, for a region whose
        first page is first: touch i is page first + (i * stride_pages)
        % region_pages(), for i < faults_per_thread. Lazy, so a run
        stores no column of them."""
        region = self.region_pages()
        steps = range(0, self.faults_per_thread * self.stride_pages, self.stride_pages)
        return map(first.__add__, map(region.__rmod__, steps))


@dataclass
class SimConfig:
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    params: ModelParameters = field(default_factory=ModelParameters)
    cores: Optional[int] = None
    tlb_entries: int = 64
    table_width: int = 256
    refresh_interval_ms: float = 2.0
    total_frames: int = 1 << 20
    seed: int = 0
    quota_frames: Optional[int] = None
    resource_threshold: float = 0.8

    def validate(self) -> None:
        self.workload.validate()
        self.params.validate()
        check_table_width(self.table_width)
        if self.tlb_entries < 1:
            raise ValueError("tlb_entries must be positive")
        check_finite_positive("refresh interval", self.refresh_interval_ms)
        check_finite_positive("resource threshold", self.resource_threshold)
        if self.cores is not None and self.cores < self.workload.threads:
            raise ValueError("fewer cores than threads")
        mapped = self.workload.threads * self.workload.region_pages()
        if mapped > MAX_MAPPED_PAGES:
            raise ValueError(
                f"threads x region pages is {mapped}, more than the {MAX_MAPPED_PAGES} "
                "pages a run maps"
            )
        touches = self.workload.threads * self.workload.faults_per_thread
        if touches > MAX_TOUCHES:
            raise ValueError(f"{touches} touches, more than the {MAX_TOUCHES} a run logs")
        if self.total_frames > MAX_TOTAL_FRAMES:
            raise ValueError(
                f"total frames must be at most {MAX_TOTAL_FRAMES}, got {self.total_frames}"
            )
        if self.effective_cores() > MAX_CORES:
            raise ValueError(f"cores must be at most {MAX_CORES}, got {self.effective_cores()}")
        slots = self.effective_cores() * self.table_width
        if slots > MAX_TABLE_SLOTS:
            raise ValueError(
                f"cores x table width is {slots}, more than the {MAX_TABLE_SLOTS} "
                "table slots a run builds"
            )

    def effective_cores(self) -> int:
        return self.cores or self.workload.threads


# A FaultLog's code is core * _WIDTH + the outcome's index in OUTCOMES,
# OutcomeKind's declaration order: the fault kinds first.
_FAULT_KINDS = (OutcomeKind.MFOE_HIT, OutcomeKind.MFOE_MISS, OutcomeKind.KERNEL_FAULT)
OUTCOMES = tuple(OutcomeKind)
_WIDTH = len(OUTCOMES)
_HIT_CODE, _MISS_CODE, _KERNEL_CODE, _TLB_CODE, _WALK_CODE = map(
    OUTCOMES.index,
    (OutcomeKind.MFOE_HIT, OutcomeKind.MFOE_MISS, OutcomeKind.KERNEL_FAULT,
     OutcomeKind.TLB_HIT, OutcomeKind.WALK_HIT),
)
_CODE = {kind: code for code, kind in enumerate(OUTCOMES)}
_IS_FAULT = [kind in _FAULT_KINDS for kind in OUTCOMES]


class FaultLog(CodedLog):
    """One row per touch, kept as columns: the touch's cycle, its code in
    an array("H") (below MAX_CORES * _WIDTH), and its latency in cycles."""

    HEADER = "timestamp_cycles,core,outcome,latency_cycles"
    ROW = "%d,%s,%d\n"
    NAMES = tuple(kind.value for kind in OUTCOMES)
    COLUMNS = ("t", "codes", "cycles")

    def __init__(self) -> None:
        self.t = array("q")
        self.codes = array("H")
        self.cycles = array("q")


@dataclass(slots=True)
class CoreStats:
    """One core's totals. A run sets end_time; the report fills the
    rest from the FaultLog."""

    core: int
    touches: int = 0
    mfoe_hits: int = 0
    mfoe_misses: int = 0
    kernel_faults: int = 0
    tlb_hits: int = 0
    walk_hits: int = 0
    compute_cycles: int = 0
    fault_cycles: int = 0
    end_time: int = 0


@dataclass
class SimReport(JsonReport):
    config: dict
    per_core: list[CoreStats]
    records: FaultLog
    hit_rate: float
    mfoe_hits: int
    mfoe_misses: int
    kernel_faults: int
    mean_hit_cycles: float
    mean_miss_penalty_cycles: float
    mean_fault_cycles: float
    p95_fault_cycles: int
    critical_path_speedup: float
    total_fault_cycles: int
    sim_cycles: int
    fill_complete_cycle: int
    background_processed: int

    def to_json_dict(self) -> dict:
        """Every field but the per-fault records, which go to faults.csv."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        d["per_core"] = [asdict(cs) for cs in self.per_core]
        d["schema"] = "mfoesim.simreport/1"
        return d


def percentile(values: list[int], fraction: float) -> int:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


class Simulation:
    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        cores = config.effective_cores()
        self.kernel = KernelModel(
            params=config.params,
            cores=cores,
            total_frames=config.total_frames,
            seed=config.seed,
            refresh_interval_ms=config.refresh_interval_ms,
            resource_threshold=config.resource_threshold,
        )
        self.engine = MfoeEngine(self.kernel, config.tlb_entries)
        self.proc = self.kernel.create_process(quota_frames=config.quota_frames)
        self.kernel.mfoe_enable(self.proc, config.table_width)

        wl = config.workload
        # each thread's region, handed to the engine with each of its
        # faults, and the pages it touches there, in order
        self._vmas: list[VMA] = []
        self._pages: list[Iterator[int]] = []
        for _ in range(wl.threads):
            vma = self.kernel.region_create(self.proc, wl.region_pages() * PAGE_SIZE)
            # Path construction happens before the run; it is off the
            # fault critical path and the touch loop starts afterwards.
            self.kernel.prefault_construct(self.proc, vma)
            self._vmas.append(vma)
            self._pages.append(wl.pages(vma.start >> PAGE_SHIFT))
        for core in range(cores):
            self.engine.bind(core, self.proc)

        # The cycles of the next fill step, tick and pass step, and the
        # first of them: no background work falls before _due. No tick
        # runs until the fill is done, and no step until the first tick.
        # The pass is dry (_next_step is NEVER) from a pass start with no
        # work or a step that books nothing to the next tick or the next
        # touch that is neither a TLB nor a walk hit: steps until then
        # would book nothing. The kernel keeps the step costs and the
        # tick interval.
        self._fill_at = self.kernel.fill_cost
        self._first_tick = self._tick_at = self._next_step = NEVER
        self._due = self._fill_at
        self.records = FaultLog()
        # The engine's TLB map and fault entry, the page table, the
        # columns' appends and the interarrival, bound once: _on_fault
        # runs once per touch.
        self._tgid = self.proc.tgid
        self._tlb_map = self.engine.tlb._map
        self._tlb_entries = self.engine.tlb.entries
        self._leaves = self.proc.page_table.entries
        self._serve_fault = self.engine.serve_fault
        self._interarrival = wl.interarrival_cycles
        self._log = (self.records.t.append, self.records.codes.append, self.records.cycles.append)
        self.stats = [CoreStats(core=c) for c in range(cores)]
        self.fill_complete_cycle = 0
        self.background_processed = 0
        self._ran = False

    def run(self) -> SimReport:
        # A second run would serve more touches into the stats and log
        # the first report shares.
        if self._ran:
            raise RuntimeError("a Simulation runs once")
        self._ran = True
        # One pending touch per core, so (cycle, core) is unique and
        # same-cycle touches run in core order. A thread with no page
        # left ends at its last completion, one gap before its entry's
        # cycle, and leaves before any background work is run for it.
        interarrival, pages = self._interarrival, self._pages
        heap = [(interarrival, core) for core in range(len(pages))]
        try:
            while heap:
                t, core = heap[0]
                vpn = next(pages[core], None)
                if vpn is None:
                    heapq.heappop(heap)
                    self.stats[core].end_time = t - interarrival
                    continue
                if t >= self._due:
                    self._advance_background(t)
                heapq.heapreplace(heap, (self._on_fault(t, core, vpn), core))
        except OverflowError:
            # the FaultLog's columns refuse a cycle or latency past 64 bits
            raise ValueError(_PAST_64_BITS) from None
        if any(s.end_time > INT64_MAX for s in self.stats):
            raise ValueError(_PAST_64_BITS)
        return self._build_report()

    def _advance_background(self, t: int) -> None:
        """Run every background step due at or before cycle t, then set
        _due to the next one.

        At equal cycles the fill step comes first, then the tick, then
        the pass step, and all of them before the fault at t. The fill
        steps every kernel.fill_cost cycles; once it is done, a tick
        comes every kernel.interval_cycles, and pass steps fall every
        kernel.record_cost cycles after the first tick (never at it). A
        tick whose pass start has work schedules the first step at or
        after it; one with no work leaves the pass dry and stands for
        every tick up to t, applied in one advance_passes call: only a
        fault gives a pass work.
        """
        kernel = self.kernel
        interval = kernel.interval_cycles
        while self._fill_at <= t:
            if kernel.fill_step():
                self._fill_at += kernel.fill_cost
            else:
                self.fill_complete_cycle = self._fill_at
                self._first_tick = self._tick_at = self._fill_at + interval
                self._fill_at = NEVER
        while self._tick_at <= t:
            tick = self._tick_at
            self._run_pass(tick - 1)
            self._tick_at = tick + interval
            if kernel.begin_pass():
                self._next_step = self._step_after(tick - 1)
            else:
                self._next_step = NEVER
                # every tick left up to t would begin an idle pass too
                count = (t - tick) // interval
                kernel.advance_passes(count)
                self._tick_at += count * interval
        self._run_pass(t)
        self._due = min(self._fill_at, self._tick_at, self._next_step)

    def _step_after(self, cycle: int) -> int:
        """The cycle of the first pass step after cycle: steps fall at
        the first tick + k * kernel.record_cost, for k >= 1."""
        first, cost = self._first_tick, self.kernel.record_cost
        return first + max(1, (cycle - first) // cost + 1) * cost

    def _run_pass(self, until: int) -> None:
        """Run the pass steps due at or before cycle until, up to one
        that books nothing: that leaves the kernel as it is until the next
        tick or fault, so the pass is dry and later steps would book
        nothing either. The run is single-threaded, so each step is
        KernelModel.serial_pass_step."""
        step, cost = self.kernel.serial_pass_step, self.kernel.record_cost
        while self._next_step <= until:
            if not step():
                self._next_step = NEVER
            else:
                self.background_processed += 1
                self._next_step += cost

    def _on_fault(self, t: int, core: int, vpn: int) -> int:
        """Serve one touch of page vpn; the cycle of the thread's next touch.

        The touch is a write. Its TLB lookup, walk and TLB fill run here,
        as MfoeEngine.access runs them through Tlb and PageTable, on the
        engine's own TLB map: a TLB hit or a walk hit is served with no
        engine call. A fault goes to MfoeEngine.serve_fault with the
        thread's region VMA, in place of a find_vma search, and only then
        can the pass wake: a TLB or walk hit changes nothing a pass step
        or a pass start reads (the budget, the tables, the frame
        allocator, the quotas, the pending bit clears).
        """
        key = (self._tgid, vpn)
        tlb_map = self._tlb_map
        # Every region a Simulation maps is writable, so every present
        # leaf and every translation the TLB holds is too: a write through
        # either is a hit, and a fault's translation is (pfn, True).
        if key in tlb_map:
            tlb_map.move_to_end(key)
            code, cycles = core * _WIDTH + _TLB_CODE, 0
        else:
            # every page of every region has its leaf from __init__
            leaf = self._leaves[vpn]
            raw = leaf.raw
            if raw & PTE_PRESENT:
                pfn = (raw & PFN_MASK) >> PFN_SHIFT
                code, cycles = core * _WIDTH + _WALK_CODE, 0
            else:
                kind, cycles, _, _, pfn = self._serve_fault(
                    core, self.proc, vpn << PAGE_SHIFT, leaf, raw, self._vmas[core], t)
                code = core * _WIDTH + _CODE[kind]
                if self._next_step == NEVER and t >= self._first_tick:
                    # wake the dry pass at its first step after this touch
                    self._next_step = step = self._step_after(t)
                    if step < self._due:
                        self._due = step
            # Tlb.insert after a miss
            if len(tlb_map) >= self._tlb_entries:
                tlb_map.popitem(last=False)
            tlb_map[key] = (pfn, True)
        log_t, log_code, log_cycles = self._log
        log_t(t)
        log_code(code)
        log_cycles(cycles)
        return t + cycles + self._interarrival

    # reporting

    def _build_report(self) -> SimReport:
        log = self.records
        counts = Counter(log.codes)
        code_cycles = [0] * (len(self.stats) * _WIDTH)
        for code, cycles in zip(log.codes, log.cycles):
            code_cycles[code] += cycles
        # the latencies of the touches that faulted, picked by code
        is_fault = _IS_FAULT * len(self.stats)
        fault_cycles = list(compress(log.cycles, map(is_fault.__getitem__, log.codes)))

        for stats in self.stats:
            base = stats.core * _WIDTH
            stats.mfoe_hits = counts[base + _HIT_CODE]
            stats.mfoe_misses = counts[base + _MISS_CODE]
            stats.kernel_faults = counts[base + _KERNEL_CODE]
            stats.tlb_hits = counts[base + _TLB_CODE]
            stats.walk_hits = counts[base + _WALK_CODE]
            stats.touches = sum(counts[base + code] for code in range(_WIDTH))
            stats.compute_cycles = stats.touches * self._interarrival
            stats.fault_cycles = sum(code_cycles[base:base + _WIDTH])
            # the log's cycles against the event chain's end time
            identity = stats.compute_cycles + stats.fault_cycles
            if stats.end_time != identity:
                raise AssertionError(
                    f"core {stats.core} accounting mismatch: "
                    f"end={stats.end_time} parts={identity}"
                )

        hits = sum(s.mfoe_hits for s in self.stats)
        misses = sum(s.mfoe_misses for s in self.stats)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        penalty = self.config.params.mfoe_miss_penalty_cycles
        mean_hit = sum(code_cycles[_HIT_CODE::_WIDTH]) / hits if hits else 0.0
        baseline = self.config.params.baseline_fault_mean_cycles
        speedup = baseline / mean_hit if mean_hit else 1.0

        return SimReport(
            config=asdict(self.config),
            per_core=self.stats,
            records=self.records,
            hit_rate=hit_rate,
            mfoe_hits=hits,
            mfoe_misses=misses,
            kernel_faults=sum(s.kernel_faults for s in self.stats),
            mean_hit_cycles=mean_hit,
            mean_miss_penalty_cycles=float(penalty) if misses else 0.0,
            mean_fault_cycles=sum(fault_cycles) / len(fault_cycles) if fault_cycles else 0.0,
            p95_fault_cycles=percentile(fault_cycles, 0.95),
            critical_path_speedup=speedup,
            total_fault_cycles=sum(s.fault_cycles for s in self.stats),
            sim_cycles=max((s.end_time for s in self.stats), default=0),
            fill_complete_cycle=self.fill_complete_cycle,
            background_processed=self.background_processed,
        )


def run(config: SimConfig) -> SimReport:
    return Simulation(config).run()
