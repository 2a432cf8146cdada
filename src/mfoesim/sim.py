"""Deterministic event-driven simulator.

One process, one faulting thread per core, all time in integer cycles.
Threads alternate a fixed compute gap with a touch of the next page of
their region; the background actors (initial table fill, the periodic
deferred-processing pass) run as events on the same clock. Everything
downstream of the seed is reproducible to the byte.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .engine import MfoeEngine, OutcomeKind
from .kernel import KernelModel
from .params import ModelParameters, check_finite_positive
from .vm import PAGE_SIZE

# Event ordering at equal timestamps: supply lands before the periodic
# pass bookkeeping, which runs before any same-cycle fault.
PRIO_FILL = 0
PRIO_TICK = 1
PRIO_BG = 2
PRIO_FAULT = 3

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
        return self.region_pages_per_thread or max(1, self.faults_per_thread)


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
        if self.table_width < 2:
            raise ValueError("table_width must cover header plus one entry")
        if self.tlb_entries < 1:
            raise ValueError("tlb_entries must be positive")
        check_finite_positive("refresh interval", self.refresh_interval_ms)
        check_finite_positive("resource threshold", self.resource_threshold)
        if self.cores is not None and self.cores < self.workload.threads:
            raise ValueError("fewer cores than threads")

    def effective_cores(self) -> int:
        return self.cores or self.workload.threads


@dataclass
class FaultRecord:
    t: int
    core: int
    kind: str
    cycles: int


@dataclass
class CoreStats:
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
class SimReport:
    config: dict
    per_core: list[CoreStats]
    records: list[FaultRecord]
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def csv_rows(self):
        yield "timestamp_cycles,core,outcome,latency_cycles"
        for r in self.records:
            yield f"{r.t},{r.core},{r.kind},{r.cycles}"


def percentile(values: list[int], fraction: float) -> int:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


class _Thread:
    """Address generator of the thread on one core; its touch count and
    end time live in that core's CoreStats."""

    __slots__ = ("region_start", "pages", "stride")

    def __init__(self, region_start: int, pages: int, stride: int):
        self.region_start = region_start
        self.pages = pages
        self.stride = stride

    def va(self, touch: int) -> int:
        page = (touch * self.stride) % self.pages
        return self.region_start + page * PAGE_SIZE


class Simulation:
    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        params = config.params
        cores = config.effective_cores()
        self.kernel = KernelModel(
            params=params,
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
        self.threads: list[_Thread] = []
        for t in range(wl.threads):
            vma = self.kernel.region_create(self.proc, wl.region_pages() * PAGE_SIZE)
            # Path construction happens before the run; it is off the
            # fault critical path and the touch loop starts afterwards.
            self.kernel.prefault_construct(self.proc, vma)
            self.threads.append(_Thread(vma.start, wl.region_pages(), wl.stride_pages))
        for core in range(cores):
            self.engine.bind(core, self.proc)

        self.interval_cycles = max(1, round(config.refresh_interval_ms * 1e-3 * params.clock_hz))
        self.fill_cost = max(1, round(params.clock_hz / params.init_throughput_pages_per_s))
        self.record_cost = max(
            1, round(params.clock_hz / params.background_throughput_pages_per_s)
        )

        # (when, prio, core) is unique among pending events: one pending
        # fault per core, and one fill, one tick and one background chain.
        self._heap: list[tuple[int, int, int]] = []
        self.records: list[FaultRecord] = []
        self.stats = [CoreStats(core=c) for c in range(cores)]
        self.fill_complete_cycle = 0
        self.background_processed = 0
        self._bg_scheduled = False
        self._live_threads = 0

    # event plumbing

    def _push(self, when: int, prio: int, core: int) -> None:
        heapq.heappush(self._heap, (when, prio, core))

    def run(self) -> SimReport:
        wl = self.config.workload
        for core in range(len(self.threads)):
            self._push(wl.interarrival_cycles, PRIO_FAULT, core)
        self._live_threads = len(self.threads)
        if self.kernel.fill_task is not None:
            self._push(self.fill_cost, PRIO_FILL, 0)

        while self._live_threads > 0 and self._heap:
            when, prio, core = heapq.heappop(self._heap)
            if prio == PRIO_FAULT:
                self._on_fault(when, core)
            elif prio == PRIO_BG:
                self._on_bg_step(when)
            elif prio == PRIO_TICK:
                self._on_tick(when)
            else:
                self._on_fill_step(when)
        return self._build_report()

    # handlers

    def _on_fault(self, t: int, core: int) -> None:
        stats = self.stats[core]
        va = self.threads[core].va(stats.touches)
        out = self.engine.access(core, va, is_write=True, now=t)
        stats.touches += 1
        stats.compute_cycles += self.config.workload.interarrival_cycles
        stats.fault_cycles += out.cycles
        kind = out.kind
        if kind is OutcomeKind.MFOE_HIT:
            stats.mfoe_hits += 1
        elif kind is OutcomeKind.MFOE_MISS:
            stats.mfoe_misses += 1
        elif kind is OutcomeKind.KERNEL_FAULT:
            stats.kernel_faults += 1
        elif kind is OutcomeKind.TLB_HIT:
            stats.tlb_hits += 1
        elif kind is OutcomeKind.WALK_HIT:
            stats.walk_hits += 1
        self.records.append(FaultRecord(t, core, kind.value, out.cycles))
        completion = t + out.cycles
        if stats.touches < self.config.workload.faults_per_thread:
            self._push(completion + self.config.workload.interarrival_cycles, PRIO_FAULT, core)
        else:
            stats.end_time = completion
            self._live_threads -= 1

    def _on_fill_step(self, t: int) -> None:
        task = self.kernel.fill_task
        if task is None:
            return
        if task.step(self.kernel):
            self._push(t + self.fill_cost, PRIO_FILL, 0)
        else:
            self.fill_complete_cycle = t
            self._push(t + self.interval_cycles, PRIO_TICK, 0)

    def _on_tick(self, t: int) -> None:
        self.kernel.begin_pass()
        self._push(t + self.interval_cycles, PRIO_TICK, 0)
        if not self._bg_scheduled:
            self._bg_scheduled = True
            self._push(t + self.record_cost, PRIO_BG, 0)

    def _on_bg_step(self, t: int) -> None:
        if self.kernel.pass_step() is not None:
            self.background_processed += 1
        self._push(t + self.record_cost, PRIO_BG, 0)

    # reporting

    def _build_report(self) -> SimReport:
        hits = sum(s.mfoe_hits for s in self.stats)
        misses = sum(s.mfoe_misses for s in self.stats)
        kernel_faults = sum(s.kernel_faults for s in self.stats)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0

        hit_cycles = [r.cycles for r in self.records if r.kind == "mfoe_hit"]
        penalty = self.config.params.mfoe_miss_penalty_cycles
        fault_cycles = [
            r.cycles for r in self.records if r.kind in ("mfoe_hit", "mfoe_miss", "kernel_fault")
        ]
        mean_hit = sum(hit_cycles) / len(hit_cycles) if hit_cycles else 0.0
        baseline = self.config.params.baseline_fault_mean_cycles
        speedup = baseline / mean_hit if mean_hit else 1.0

        for stats in self.stats:
            identity = stats.compute_cycles + stats.fault_cycles
            if stats.end_time != identity:
                raise AssertionError(
                    f"core {stats.core} accounting mismatch: "
                    f"end={stats.end_time} parts={identity}"
                )

        return SimReport(
            config=asdict(self.config),
            per_core=self.stats,
            records=self.records,
            hit_rate=hit_rate,
            mfoe_hits=hits,
            mfoe_misses=misses,
            kernel_faults=kernel_faults,
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
