"""The serialized touch and fault paths and pass step against their
references.

A Simulation runs each touch's TLB lookup, walk and TLB fill in its own
loop, on the TLB's map, and calls MfoeEngine.serve_fault only for a
fault; ResolveSimulation below sends every touch through
MfoeEngine.access instead, which calls Tlb.lookup, PageTable.walk,
serve_fault and Tlb.insert. serve_fault serves a fault in straight-line
code, on the VMA it is handed, with the table's consume, the leaf's
install_frame and the kernel's inline_install taken inline, and fills
no TLB entry. PteFaultSm's generator, which calls those helpers, stays
the model of the lock protocol; GeneratorEngine below serves every
fault through PteFaultSm(...).run() instead, on the VMA find_vma finds.
A Simulation books deferred records through
KernelModel.serial_pass_step's straight-line code; LockedPassSimulation
below books them through the locked pass_step and process_one_record
instead. Each test here runs a path and its reference on the same
inputs and compares everything they leave, and each reference counts
what it ran, so a comparison of a path with itself fails.
"""
import contextlib
import random
import threading

import pytest

from mfoesim import sim as sim_module
from mfoesim.engine import (
    KERNEL_FAULT,
    MFOE_HIT,
    MFOE_MISS,
    PROTECTION_FAULT,
    SEGV,
    TLB_HIT,
    WALK_HIT,
    MfoeEngine,
    OutcomeKind,
    PteFaultSm,
    SmResult,
)
from mfoesim.kernel import FaultEvent, KernelModel
from mfoesim.prealloc import PreallocTable
from mfoesim.sim import NEVER, OUTCOMES, SimConfig, Simulation, WorkloadSpec
from mfoesim.vm import (
    PAGE_SHIFT,
    PAGE_SIZE,
    PTE_MFOEABLE,
    PTE_PRESENT,
    OutOfMemory,
)


class GeneratorEngine(MfoeEngine):
    """MfoeEngine whose serve_fault serves a fault by running a PteFaultSm
    to completion. It walks again and calls ProcessModel.find_vma rather
    than trust the leaf, word and VMA it is handed, and, like serve_fault,
    fills no TLB entry. The engine counts the handlers it builds in
    handlers."""

    def __init__(self, kernel, tlb_entries=64):
        super().__init__(kernel, tlb_entries)
        self.handlers = 0

    def serve_fault(self, core, proc, va, leaf, raw, vma, now):
        vma = proc.find_vma(va)
        if vma is None:
            self.kernel.segv_events.append(FaultEvent(proc.tgid, va, now))
            return SEGV, 0, 0, 0, None

        self.handlers += 1
        sm = PteFaultSm(self.kernel, proc, core, va, vma, self.kernel.mfoe_active)
        result = sm.run()
        if result is SmResult.MFOE_HIT:
            return MFOE_HIT, self.params.mfoe_hit_cycles, 0, 0, sm.pfn
        kernel_cycles = self.kernel.sample_baseline_cycles()
        if result is SmResult.MFOE_MISS_KERNEL:
            penalty = self.params.mfoe_miss_penalty_cycles
            return MFOE_MISS, penalty + kernel_cycles, penalty, kernel_cycles, sm.pfn
        assert result is SmResult.KERNEL, result
        return KERNEL_FAULT, kernel_cycles, 0, kernel_cycles, sm.pfn


class HandoffEngine(MfoeEngine):
    """MfoeEngine whose serve_fault checks that the leaf it is handed is
    not present and that the VMA it is handed is the one
    ProcessModel.find_vma finds, and counts the checks in checked."""

    def __init__(self, kernel, tlb_entries=64):
        super().__init__(kernel, tlb_entries)
        self.checked = 0

    def serve_fault(self, core, proc, va, leaf, raw, vma, now):
        assert not raw & PTE_PRESENT and raw == leaf.raw, (va, raw)
        assert vma is not None and vma is proc.find_vma(va), (va, vma)
        self.checked += 1
        return super().serve_fault(core, proc, va, leaf, raw, vma, now)


class ResolveSimulation(Simulation):
    """Simulation whose every touch goes through MfoeEngine.access, the
    reference the touch loop's own TLB lookup and walk are checked
    against; any outcome but a TLB or walk hit wakes a dry pass. It
    works out each touch's page from its own count of the core's
    touches, the strided formula, and checks the page it is handed
    against it. It counts its access calls in resolves."""

    def __init__(self, config):
        super().__init__(config)
        self.resolves = 0
        self.touches = [0] * config.workload.threads

    def _on_fault(self, t, core, vpn):
        wl = self.config.workload
        page = (self.touches[core] * wl.stride_pages) % wl.region_pages()
        va = self._vmas[core].start + page * PAGE_SIZE
        assert vpn == va >> PAGE_SHIFT, (core, self.touches[core], vpn, va)
        self.touches[core] += 1
        self.resolves += 1
        kind, cycles, _, _, _ = self.engine.access(core, va, True, t)
        if kind not in (TLB_HIT, WALK_HIT) and self._next_step == NEVER \
                and t >= self._first_tick:
            self._next_step = step = self._step_after(t)
            self._due = min(self._due, step)
        self.records.t.append(t)
        self.records.codes.append(core * len(OUTCOMES) + OUTCOMES.index(kind))
        self.records.cycles.append(cycles)
        return t + cycles + self._interarrival


class LockedPassSimulation(Simulation):
    """Simulation whose pass steps book through the locked, thread-safe
    KernelModel.pass_step, the reference serial_pass_step is checked
    against."""

    def _run_pass(self, until):
        kernel = self.kernel
        while self._next_step <= until:
            if kernel.pass_step() is None:
                self._next_step = NEVER
            else:
                self.background_processed += 1
                self._next_step += kernel.record_cost


def _state(kernel, engine):
    """Everything a fault can change, in a form == compares exactly."""
    return {
        "census": kernel.frame_census(),
        "ledger": kernel.ledger.records(),
        "rmap": list(kernel.ledger.rmap.items()),
        "mm_counter": dict(kernel.ledger.mm_counter),
        "tables": [t.to_bytes() for t in kernel.tables or ()],
        "table_counts": [(t.consumed, t.released) for t in kernel.tables or ()],
        "leaves": {
            tgid: [(vpn, leaf.raw) for vpn, leaf in proc.page_table.entries.items()]
            for tgid, proc in kernel.procs.items()
        },
        "free_list": list(kernel.allocator.free_list),
        "tlb": list(engine.tlb._map.items()),
        "segv": kernel.segv_events,
        "protection": kernel.protection_faults,
        "rng": kernel.rng.getstate(),
    }


# Simulation runs: the whole event loop over each engine


def _sim_cases():
    shapes = {
        # a slow rate and a wide table: every fault hits
        "hits": dict(threads=1, faults_per_thread=48, interarrival_cycles=200_000,
                     table_width=64),
        # a narrow table at a tight rate runs dry: hits and misses
        "misses": dict(threads=3, faults_per_thread=300, interarrival_cycles=800, table_width=8),
        # the criterion-1 shape, small: the pass saturates
        "saturated": dict(threads=8, faults_per_thread=96, table_width=16,
                          refresh_interval_ms=0.1),
        # a 40-frame quota trips mid-run: offloading goes off, and the
        # eligibility bits of the untouched half of each region are cleared
        "quota": dict(threads=2, faults_per_thread=150, region_pages_per_thread=300,
                      interarrival_cycles=1000, table_width=16, quota_frames=40,
                      refresh_interval_ms=0.01),
        # a low threshold on a larger quota trips later
        "threshold": dict(threads=2, faults_per_thread=200, interarrival_cycles=900,
                          table_width=16, quota_frames=160, resource_threshold=0.5,
                          refresh_interval_ms=0.02),
        # two 6-page regions revisited through a 10-entry TLB: TLB and
        # walk hits
        "revisit": dict(threads=2, faults_per_thread=400, region_pages_per_thread=6,
                        tlb_entries=10, interarrival_cycles=1500, table_width=16),
        # strided touches over a region the stride wraps around
        "stride": dict(threads=3, faults_per_thread=200, stride_pages=7,
                       region_pages_per_thread=90, interarrival_cycles=1100, table_width=8),
    }
    return {f"{name}-{seed}": dict(shape, seed=seed)
            for name, shape in shapes.items() for seed in (1, 2, 3)}


_SIM_CASES = _sim_cases()


def _config(settings):
    workload_keys = set(WorkloadSpec.__dataclass_fields__)
    workload = WorkloadSpec(**{k: v for k, v in settings.items() if k in workload_keys})
    return SimConfig(workload=workload,
                     **{k: v for k, v in settings.items() if k not in workload_keys})


def _simulate(settings, engine_class, monkeypatch, simulation_class=Simulation, prepare=None):
    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "MfoeEngine", engine_class)
        simulation = simulation_class(_config(settings))
    assert type(simulation.engine) is engine_class
    if prepare is not None:
        prepare(simulation)
    report = simulation.run()
    outputs = {"report.json": report.to_json(),
               "faults.csv": "".join(report.records.csv_blocks())}
    return simulation, report, outputs


def _compare(settings, monkeypatch, engine_class=MfoeEngine, simulation_class=Simulation,
             prepare=None):
    """A Simulation over MfoeEngine against a reference run of settings
    through engine_class and simulation_class: the reference simulation,
    the report under test, and the names of the outputs and _state
    entries that differ. prepare, if given, runs on both simulations
    before their runs, so a break it installs shows only where the
    reference runs other code than the simulation under test."""
    ref_sim, _, ref_out = _simulate(settings, engine_class, monkeypatch, simulation_class,
                                    prepare)
    sim, report, out = _simulate(settings, MfoeEngine, monkeypatch, Simulation, prepare)
    state, ref_state = _state(sim.kernel, sim.engine), _state(ref_sim.kernel, ref_sim.engine)
    differ = [name for name in out if out[name] != ref_out[name]]
    differ += [name for name in state if state[name] != ref_state[name]]
    return ref_sim, report, differ


def _faults(report):
    return report.mfoe_hits + report.mfoe_misses + report.kernel_faults


@pytest.mark.parametrize("name", _SIM_CASES)
def test_simulation_matches_the_generator_reference(name, monkeypatch):
    ref_sim, report, differ = _compare(_SIM_CASES[name], monkeypatch, GeneratorEngine)
    assert differ == []
    # the reference ran: every fault went through a handler's generator
    assert ref_sim.engine.handlers == _faults(report) > 0

    kinds = {OUTCOMES[o] for o in report.records.outcomes}
    assert MFOE_HIT in kinds
    if name.startswith(("misses", "saturated")):
        assert MFOE_MISS in kinds
    if name.startswith(("quota", "threshold")):
        # offloading was on, then turned off mid-run
        assert KERNEL_FAULT in kinds and not ref_sim.kernel.mfoe_active
    if name.startswith("quota"):
        cleared = [leaf for leaf in ref_sim.proc.page_table.entries.values() if leaf.raw == 0]
        assert cleared, "the quota trip cleared no eligibility bit"
    if name.startswith("revisit"):
        assert {TLB_HIT, WALK_HIT} <= kinds


@pytest.mark.parametrize("name", _SIM_CASES)
def test_simulation_matches_the_resolve_reference(name, monkeypatch):
    ref_sim, report, differ = _compare(_SIM_CASES[name], monkeypatch,
                                       simulation_class=ResolveSimulation)
    assert differ == []
    # the reference ran: every touch went through access
    assert ref_sim.resolves == len(report.records) > 0


@pytest.mark.parametrize("name", _SIM_CASES)
def test_the_simulation_hands_each_fault_its_vma(name, monkeypatch):
    # every region is writable, so a wrong VMA changes no output; the
    # handoff is checked at each fault instead
    simulation, report, _ = _simulate(_SIM_CASES[name], HandoffEngine, monkeypatch)
    assert simulation.engine.checked == _faults(report) > 0


class _TlbMapBreak:
    """The touch loop's view of the engine's TLB map, passing every call
    through to the map except the one it breaks: skip names the call
    that does nothing, the store after a walk hit or a fault
    ("__setitem__") or the TLB hit's move_to_end."""

    def __init__(self, tlb_map, skip):
        self.tlb_map, self.skip = tlb_map, skip

    def __contains__(self, key):
        return key in self.tlb_map

    def popitem(self, last):
        return self.tlb_map.popitem(last=last)

    def __len__(self):
        return len(self.tlb_map)

    def move_to_end(self, key):
        if self.skip != "move_to_end":
            self.tlb_map.move_to_end(key)

    def __setitem__(self, key, value):
        if self.skip != "__setitem__":
            self.tlb_map[key] = value


# The revisit cases take TLB hits, walk hits and faults; in the
# saturated cases every touch faults, so only the store runs.
_TOUCH_LOOP_BREAKS = [
    pytest.param(name, skip, id=f"{name}-{label}")
    for name in _SIM_CASES
    for skip, label in (("__setitem__", "skips-the-store"),
                        ("move_to_end", "tlb-hit-skips-move-to-end"))
    if name.startswith("revisit") or (name.startswith("saturated") and skip == "__setitem__")
]


@pytest.mark.parametrize("name, skip", _TOUCH_LOOP_BREAKS)
def test_the_resolve_reference_catches_a_broken_touch_loop(name, skip, monkeypatch):
    # the same comparison, with the touch loop's TLB broken on both sides:
    # a reference that ran the touch loop too would match it, so the
    # difference shows the reference runs code of its own. In the
    # saturated cases it shows that access catches a fault that leaves
    # no translation.
    calls = []

    def prepare(simulation):
        calls.append(type(simulation))
        simulation._tlb_map = _TlbMapBreak(simulation._tlb_map, skip)

    ref_sim, _, differ = _compare(_SIM_CASES[name], monkeypatch,
                                  simulation_class=ResolveSimulation, prepare=prepare)
    assert calls == [ResolveSimulation, Simulation]
    assert "tlb" in differ, differ
    if name.startswith("revisit"):
        assert "faults.csv" in differ, differ


class _TableBreak:
    """A core's table as kernel.tables holds it, passing every attribute
    read, attribute write and method call through to the table except
    the writes it breaks: skip names the attribute whose stores do
    nothing. PreallocTable's own methods store on the table itself, so
    only code that writes the table's attributes from outside, as the
    engine's inline table hit does, is broken."""

    def __init__(self, table, skip):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "skip", skip)

    def __getattr__(self, name):
        return getattr(self.table, name)

    def __setattr__(self, name, value):
        if name != self.skip:
            setattr(self.table, name, value)


@pytest.mark.parametrize("skip", ["tail_index", "consumed"],
                         ids=["hit-keeps-the-tail", "hit-skips-the-count"])
@pytest.mark.parametrize("name", [name for name in _SIM_CASES
                                  if name.startswith(("hits", "saturated"))])
def test_the_generator_reference_catches_a_broken_table_hit(name, skip, monkeypatch):
    # the same comparison, with the tables broken on both sides: the
    # reference consumes through PreallocTable.consume, which the break
    # leaves whole, so the difference shows it runs code of its own
    calls = []

    def prepare(simulation):
        calls.append(type(simulation.engine))
        tables = simulation.kernel.tables
        tables[:] = [_TableBreak(table, skip) for table in tables]

    ref_sim, _, differ = _compare(_SIM_CASES[name], monkeypatch, GeneratorEngine,
                                  prepare=prepare)
    assert calls == [GeneratorEngine, MfoeEngine]
    assert ref_sim.engine.handlers > 0
    assert "table_counts" in differ, differ
    if skip == "tail_index":
        assert "faults.csv" in differ, differ


def test_the_simulation_builds_no_handler_object(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a PteFaultSm was built")

    monkeypatch.setattr(PteFaultSm, "__init__", refuse)
    report = Simulation(_config(_SIM_CASES["saturated-1"])).run()
    assert report.mfoe_hits and report.mfoe_misses
    assert report.mfoe_hits + report.mfoe_misses + report.kernel_faults == 8 * 96


# The pass step: serial_pass_step against the locked pass_step


def _cleanup_every(touches):
    """A prepare hook: error_cleanup of the simulated process before every
    touches-th touch, which books every used entry and leaves its slot
    empty, so the pass meets empty slots ahead of the oldest used entry."""

    def prepare(simulation):
        on_fault = simulation._on_fault
        count = 0

        def on_fault_after_cleanup(t, core, vpn):
            nonlocal count
            count += 1
            if count % touches == 0:
                simulation.kernel.error_cleanup(simulation.proc.tgid)
            return on_fault(t, core, vpn)

        simulation._on_fault = on_fault_after_cleanup

    return prepare


def _pass_cases():
    """The 21 fault-path configs, three of their shapes with a pass that
    books, and configs that take the serial step into process_one_record."""
    cases = {name: (settings, None) for name, settings in _SIM_CASES.items()}
    for seed in (1, 2, 3):
        # no tick falls within these runs at the 2 ms default
        for shape in ("misses", "revisit", "stride"):
            cases[f"{shape}-fast-pass-{seed}"] = (
                dict(_SIM_CASES[f"{shape}-{seed}"], refresh_interval_ms=0.02), None)
        # 2 storage frames, 30 filled and 6 to spare: once they are gone a
        # booking cannot restock its slot, and process_one_record skips it
        cases[f"small-pool-{seed}"] = (
            dict(threads=2, faults_per_thread=14, table_width=16, total_frames=38,
                 refresh_interval_ms=0.01, seed=seed), None)
        cases[f"cleanup-{seed}"] = (
            dict(_SIM_CASES[f"saturated-{seed}"]), _cleanup_every(97))
    return cases


_PASS_CASES = _pass_cases()


@pytest.mark.parametrize("name", _PASS_CASES)
def test_serial_pass_step_matches_the_locked_reference(name, monkeypatch):
    settings, prepare = _PASS_CASES[name]
    ref_sim, _, ref_out = _simulate(
        settings, MfoeEngine, monkeypatch, LockedPassSimulation, prepare)
    fallbacks, skips = [], []
    process_one_record = KernelModel.process_one_record
    skip_head = PreallocTable.skip_head

    def counted_record(kernel, core):
        fallbacks.append(core)
        return process_one_record(kernel, core)

    def counted_skip(table):
        skips.append(table)
        return skip_head(table)

    with monkeypatch.context() as patch:
        patch.setattr(KernelModel, "process_one_record", counted_record)
        patch.setattr(PreallocTable, "skip_head", counted_skip)
        sim, report, out = _simulate(settings, MfoeEngine, monkeypatch, Simulation, prepare)
    assert out == ref_out
    assert _state(sim.kernel, sim.engine) == _state(ref_sim.kernel, ref_sim.engine)

    idle = name in _SIM_CASES and name.startswith(("misses", "revisit", "stride"))
    assert (report.background_processed > 0) != idle
    if name.startswith(("small-pool", "cleanup", "quota")):
        # the fallback ran: no frame to restock with, empty slots ahead
        # of the oldest used entry, or offloading turned off
        assert fallbacks
    if name.startswith(("small-pool", "quota")):
        assert skips
    if name.startswith(("hits", "saturated")):
        # offloading stays on with frames on hand and nothing empties a
        # slot: every booking is straight-line
        assert not fallbacks


def _pass_world():
    """A kernel whose two tables hold used entries, at a pass start."""
    kernel = KernelModel(cores=2, total_frames=1024, seed=4)
    engine = MfoeEngine(kernel)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    kernel.run_init_fill()
    vma = kernel.region_create(proc, 16 * PAGE_SIZE)
    kernel.prefault_construct(proc, vma)
    for core in range(2):
        engine.bind(core, proc)
    for page in range(6):
        engine.access(page % 2, vma.start + page * PAGE_SIZE, is_write=True)
    kernel.begin_pass()
    assert kernel.pass_budget and all(table.used for table in kernel.tables)
    return kernel, engine


@contextlib.contextmanager
def _held_beside_an_idle_thread(table):
    """Hold table's cleanup lock while another thread waits on an Event.

    The thread releases the lock after 10 s, so a step that waited for
    the lock would go on without raising instead of hanging the suite."""
    assert table.try_cleanup_lock()
    stop = threading.Event()

    def idle():
        if not stop.wait(timeout=10):
            table.release_cleanup_lock()

    watcher = threading.Thread(target=idle, daemon=True)
    watcher.start()
    try:
        yield
    finally:
        stop.set()
        watcher.join(timeout=10)
    assert not watcher.is_alive()


def test_a_held_cleanup_lock_fails_fast_with_other_threads_alive():
    # pass_step would wait for another thread to release the lock; in a
    # single-threaded caller none can, so the serial step raises at once,
    # before any change, whatever threads are alive
    kernel, engine = _pass_world()
    table = kernel.tables[kernel._pass_core]
    with _held_beside_an_idle_thread(table):
        before = _state(kernel, engine)
        budget, start = kernel.pass_budget, kernel._pass_core
        with pytest.raises(RuntimeError, match="cleanup lock is held"):
            kernel.serial_pass_step()
        assert _state(kernel, engine) == before
        assert (kernel.pass_budget, kernel._pass_core) == (budget, start)
    # released, the step books as the locked pass_step does
    table.release_cleanup_lock()
    ref_kernel, ref_engine = _pass_world()
    assert kernel.serial_pass_step() and ref_kernel.pass_step() is not None
    assert _state(kernel, engine) == _state(ref_kernel, ref_engine)


def test_a_held_cleanup_lock_stops_a_simulation_with_other_threads_alive():
    simulation = Simulation(_config(_SIM_CASES["saturated-1"]))
    with _held_beside_an_idle_thread(simulation.kernel.tables[0]):
        with pytest.raises(RuntimeError, match="cleanup lock is held"):
            simulation.run()


def test_a_double_booking_raises_as_the_ledger_does():
    # a frame already in the reverse map raises apply's RuntimeError, and
    # both steps leave the same state behind
    states = []
    for step in ("pass_step", "serial_pass_step"):
        kernel, engine = _pass_world()
        table = kernel.tables[kernel._pass_core]
        pfn = table.record_at(table.head_index).pfn
        kernel.ledger.rmap[pfn] = (1, 0)
        with pytest.raises(RuntimeError, match=f"frame {pfn} already reverse-mapped"):
            getattr(kernel, step)()
        states.append(_state(kernel, engine))
    assert states[1] == states[0]


# Engine-level cases: the paths a Simulation reaches rarely or never


def _engine_env(engine_class, case):
    kernel = KernelModel(cores=2, total_frames=2048, seed=5)
    engine = engine_class(kernel, tlb_entries=8)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    if case != "empty-table":
        kernel.run_init_fill()
    vma = kernel.region_create(proc, 24 * PAGE_SIZE)
    if case != "unbuilt-leaf":
        kernel.prefault_construct(proc, vma)
    readonly = kernel.region_create(proc, 8 * PAGE_SIZE, writable=False)
    kernel.prefault_construct(proc, readonly)
    if case == "offload-off":
        kernel.mfoe_disable(proc)
    if case == "cleared-bit":
        for vpn, leaf in proc.page_table.entries.items():
            if vpn % 3 == 0:
                leaf.raw &= ~PTE_MFOEABLE
    for core in range(2):
        engine.bind(core, proc)
    return kernel, engine, [vma, readonly]


_ENGINE_CASES = ("unbuilt-leaf", "offload-off", "empty-table", "cleared-bit", "mixed")


def _touches(case, regions):
    """A seeded run of (core, va, is_write): revisits, reads of the
    read-only region, writes to it, and touches past every region."""
    rng = random.Random(f"fault path {case}")
    vma, readonly = regions
    touches = []
    for _ in range(160):
        region = readonly if rng.random() < 0.2 else vma
        page = rng.randrange(region.pages() + 1)  # one past the end: a segv
        touches.append((rng.randrange(2), region.start + page * PAGE_SIZE + rng.randrange(64),
                        rng.random() < 0.7))
    return touches


@pytest.mark.parametrize("case", _ENGINE_CASES)
def test_engine_matches_the_generator_reference(case):
    worlds = [_engine_env(cls, case) for cls in (GeneratorEngine, MfoeEngine)]
    outcomes = [[], []]
    for touch in _touches(case, worlds[0][2]):
        for world, log in zip(worlds, outcomes):
            kernel, engine, _ = world
            log.append(engine.access(*touch, now=len(log)))
    assert outcomes[1] == outcomes[0]
    assert _state(*worlds[1][:2]) == _state(*worlds[0][:2])
    kinds = {kind for kind, *_ in outcomes[1]}
    expect = {
        "unbuilt-leaf": {KERNEL_FAULT, MFOE_HIT},
        "offload-off": {KERNEL_FAULT},
        "empty-table": {MFOE_MISS},
        "cleared-bit": {KERNEL_FAULT, MFOE_HIT},
        "mixed": {MFOE_HIT},
    }[case]
    assert expect | {WALK_HIT, SEGV, PROTECTION_FAULT} <= kinds
    if case in ("offload-off", "empty-table"):
        assert MFOE_HIT not in kinds


@pytest.mark.parametrize("case", _ENGINE_CASES)
def test_serve_fault_leaves_the_tlb_alone(case):
    # the fault half fills no TLB entry, a segv's included; access's own
    # touches first give the TLB entries to disturb
    kernel, engine, regions = _engine_env(MfoeEngine, case)
    touches = _touches(case, regions)
    for touch in touches[:40]:
        engine.access(*touch)
    assert len(engine.tlb) == engine.tlb.entries
    kinds = set()
    for core, va, _ in touches[40:]:
        proc = engine.core_proc[core]
        leaf = proc.page_table.walk(va)
        raw = 0 if leaf is None else leaf.raw
        if raw & PTE_PRESENT:
            continue
        tlb = list(engine.tlb._map.items())
        kinds.add(engine.serve_fault(core, proc, va, leaf, raw, proc.find_vma(va), 0)[0])
        assert list(engine.tlb._map.items()) == tlb
    assert SEGV in kinds and kinds - {SEGV}


@pytest.mark.parametrize("case", _ENGINE_CASES)
def test_resolve_fills_the_tlb_after_each_fault(case):
    kernel, engine, regions = _engine_env(MfoeEngine, case)
    faults = 0
    for core, va, is_write in _touches(case, regions):
        kind, *_, pfn = engine.access(core, va, is_write)
        if kind in (MFOE_HIT, MFOE_MISS, KERNEL_FAULT):
            proc = engine.core_proc[core]
            newest = next(reversed(engine.tlb._map.items()))
            assert newest == ((proc.tgid, va >> PAGE_SHIFT), (pfn, proc.find_vma(va).writable))
            faults += 1
    assert faults


# The kernel path's errors: no frame left, or a frame already booked


@pytest.mark.parametrize("case", ["offload-off", "empty-table", "unbuilt-leaf"])
def test_out_of_memory_raises_before_any_change(case):
    # offloading off, an empty table (a miss, then the kernel path) and an
    # unbuilt leaf, which the kernel path builds before it allocates
    states, engines = [], []
    for engine_class in (GeneratorEngine, MfoeEngine):
        kernel, engine, (vma, _) = _engine_env(engine_class, case)
        engines.append(engine)
        while kernel.allocator.free_list:
            kernel.allocator.allocate()
        before = _state(kernel, engine)
        with pytest.raises(OutOfMemory):
            engine.access(0, vma.start, True)
        states.append(_state(kernel, engine))
        changed = [name for name in before if before[name] != states[-1][name]]
        # an unbuilt leaf is built, empty, before the frame is asked for
        assert changed == (["leaves"] if case == "unbuilt-leaf" else [])
    assert states[1] == states[0]
    assert engines[0].handlers == 1


@pytest.mark.parametrize("case", ["offload-off", "empty-table"])
def test_a_double_booking_on_the_kernel_path_raises_as_the_ledger_does(case):
    # the frame allocate hands out is already in the reverse map: apply's
    # RuntimeError, raised after the frame is taken and before the leaf,
    # the ledger, the latency draw or the TLB changes
    states, engines = [], []
    for engine_class in (GeneratorEngine, MfoeEngine):
        kernel, engine, (vma, _) = _engine_env(engine_class, case)
        engines.append(engine)
        pfn = kernel.allocator.free_list[0]
        kernel.ledger.rmap[pfn] = (1, 0)
        before = _state(kernel, engine)
        with pytest.raises(RuntimeError, match=f"frame {pfn} already reverse-mapped"):
            engine.access(0, vma.start, True)
        states.append(_state(kernel, engine))
        changed = [name for name in before if before[name] != states[-1][name]]
        assert changed == ["census", "free_list"]
        assert states[-1]["census"]["outstanding"] == before["census"]["outstanding"] + 1
    assert states[1] == states[0]
    assert engines[0].handlers == 1


@pytest.mark.parametrize("case", ["mixed", "empty-table", "offload-off"])
def test_a_fault_on_a_read_only_page_leaves_a_read_only_translation(case):
    # a table hit, a miss and the kernel path: the translation each leaves
    # in the TLB carries the region's rw, so a write through it is a
    # protection fault
    outcomes, states = [], []
    for engine_class in (GeneratorEngine, MfoeEngine):
        kernel, engine, (_, readonly) = _engine_env(engine_class, case)
        outcomes.append([engine.access(0, readonly.start, False)[0],
                         engine.access(0, readonly.start, True)[0]])
        states.append(_state(kernel, engine))
    fault = {"mixed": MFOE_HIT, "empty-table": MFOE_MISS, "offload-off": KERNEL_FAULT}[case]
    assert outcomes == [[fault, PROTECTION_FAULT]] * 2
    assert states[1] == states[0]


# A held leaf lock: no handler in a serialized run can release it


def _lock_world(engine_class, offload):
    kernel = KernelModel(cores=2, total_frames=1024, seed=3)
    engine = engine_class(kernel)
    proc = kernel.create_process()
    kernel.mfoe_enable(proc, 8)
    kernel.run_init_fill()
    vma = kernel.region_create(proc, 4 * PAGE_SIZE)
    kernel.prefault_construct(proc, vma)
    if not offload:
        kernel.mfoe_disable(proc)
    for core in range(2):
        engine.bind(core, proc)
    # touch a neighbour first, so the TLB and ledger are not empty
    engine.access(1, vma.start + PAGE_SIZE, is_write=True)
    holder = PteFaultSm(kernel, proc, 0, vma.start, vma, mfoe_eligible=offload)
    while not holder.leaf.locked:
        holder.step()
    return kernel, engine, vma, holder


@pytest.mark.parametrize("offload", [True, False], ids=["eligible", "offload-off"])
def test_a_touch_of_a_locked_leaf_raises_and_changes_nothing(offload):
    kernel, engine, vma, holder = _lock_world(MfoeEngine, offload)
    assert bool(holder.leaf.raw & PTE_MFOEABLE) and kernel.mfoe_active == offload
    before = _state(kernel, engine)
    for core in (0, 1):
        with pytest.raises(RuntimeError, match="no concurrent progress"):
            engine.access(core, vma.start + 5, is_write=True)
        assert _state(kernel, engine) == before
    # once the holder finishes, the page is a walk hit on its frame
    assert holder.run() is (SmResult.MFOE_HIT if offload else SmResult.KERNEL)
    out = engine.access(0, vma.start, is_write=True)
    assert (out.kind, out.pfn) == (OutcomeKind.WALK_HIT, holder.pfn)


@pytest.mark.parametrize("offload", [True, False], ids=["eligible", "offload-off"])
def test_a_locked_leaf_matches_the_generator_reference(offload):
    states = []
    for engine_class in (GeneratorEngine, MfoeEngine):
        kernel, engine, vma, holder = _lock_world(engine_class, offload)
        with pytest.raises(RuntimeError, match="no concurrent progress"):
            engine.access(0, vma.start, True)
        states.append(_state(kernel, engine))
    assert states[1] == states[0]
