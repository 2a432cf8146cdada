"""Event-loop simulator: accounting, determinism, and report plumbing."""
import hashlib
import json
import math
import random
import sys
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from helpers import block_rows
from test_cli import IN_RANGE_VALUES

from mfoesim import sim as sim_module
from mfoesim.cli import main as cli_main
from mfoesim.engine import OutcomeKind
from mfoesim.kernel import KernelModel
from mfoesim.params import ModelParameters
from mfoesim.sim import (
    MAX_MAPPED_PAGES,
    MAX_TOTAL_FRAMES,
    MAX_TOUCHES,
    NEVER,
    OUTCOMES,
    FaultLog,
    SimConfig,
    Simulation,
    WorkloadSpec,
    percentile,
    run,
)
from mfoesim.trace import MAX_CORES, write_blocks
from mfoesim.vm import OutOfMemory


def small_config(**kw):
    wl_keys = {f for f in WorkloadSpec.__dataclass_fields__}
    wl = WorkloadSpec(**{k: kw.pop(k) for k in list(kw) if k in wl_keys})
    return SimConfig(workload=wl, **kw)


# validation


def test_workload_validation():
    with pytest.raises(ValueError, match="thread"):
        WorkloadSpec(threads=0).validate()
    with pytest.raises(ValueError, match="fault"):
        WorkloadSpec(faults_per_thread=0).validate()
    with pytest.raises(ValueError, match="interarrival"):
        WorkloadSpec(interarrival_cycles=0).validate()
    with pytest.raises(ValueError, match="stride"):
        WorkloadSpec(stride_pages=0).validate()
    with pytest.raises(ValueError, match="region"):
        WorkloadSpec(region_pages_per_thread=0).validate()


def test_config_validation():
    with pytest.raises(ValueError, match="table_width"):
        SimConfig(table_width=0).validate()
    with pytest.raises(ValueError, match="tlb"):
        SimConfig(tlb_entries=0).validate()
    with pytest.raises(ValueError, match="refresh"):
        SimConfig(refresh_interval_ms=0).validate()
    with pytest.raises(ValueError, match="cores"):
        SimConfig(workload=WorkloadSpec(threads=4), cores=2).validate()


def test_region_defaults_to_one_page_per_fault():
    assert WorkloadSpec(faults_per_thread=100).region_pages() == 100
    assert WorkloadSpec(faults_per_thread=100, region_pages_per_thread=8).region_pages() == 8


def test_effective_cores():
    assert SimConfig(workload=WorkloadSpec(threads=3)).effective_cores() == 3
    assert SimConfig(workload=WorkloadSpec(threads=3), cores=8).effective_cores() == 8


# percentile helper


def test_percentile_nearest_rank():
    assert percentile([], 0.95) == 0
    assert percentile([7], 0.5) == 7
    values = list(range(1, 101))
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.5) == 50
    assert percentile(values, 1.0) == 100
    assert percentile([3, 1, 2], 0.99) == 3, "input order must not matter"


# small end-to-end runs


def test_every_touch_is_classified():
    report = run(small_config(faults_per_thread=200, interarrival_cycles=1000,
                              table_width=16))
    assert len(report.records) == 200
    stats = report.per_core[0]
    assert stats.touches == 200
    classified = (stats.mfoe_hits + stats.mfoe_misses + stats.kernel_faults
                  + stats.tlb_hits + stats.walk_hits)
    assert classified == 200
    assert 0.0 <= report.hit_rate <= 1.0
    assert report.fill_complete_cycle > 0
    assert report.sim_cycles == stats.end_time


def test_fresh_pages_never_revisit_tlb_or_walker():
    report = run(small_config(faults_per_thread=150, interarrival_cycles=2000,
                              table_width=32))
    stats = report.per_core[0]
    assert stats.tlb_hits == 0
    assert stats.walk_hits == 0


def test_event_timestamps_monotone():
    report = run(small_config(faults_per_thread=300, interarrival_cycles=900,
                              table_width=16))
    times = list(report.records.t)
    assert times == sorted(times)
    assert times[0] == 900, "first fault lands after one compute gap"


def test_slow_rate_wide_table_hits_every_fault():
    report = run(small_config(faults_per_thread=32, interarrival_cycles=200_000,
                              table_width=64))
    assert report.hit_rate == 1.0
    assert report.mfoe_hits == 32
    assert report.mean_hit_cycles == 78.0
    assert report.mean_fault_cycles == 78.0
    assert report.p95_fault_cycles == 78
    assert report.critical_path_speedup == pytest.approx(2552 / 78)


def test_accounting_identity_with_mixed_outcomes():
    # tight rate forces misses during the fill window; the report builder
    # refuses to emit when compute + fault misses the end time
    report = run(small_config(faults_per_thread=400, interarrival_cycles=800,
                              table_width=32, threads=2))
    for stats in report.per_core:
        assert stats.end_time == stats.compute_cycles + stats.fault_cycles
    assert report.mfoe_misses > 0


def test_quota_trip_falls_back_to_kernel_path():
    report = run(small_config(faults_per_thread=300, interarrival_cycles=1000,
                              table_width=16, quota_frames=40,
                              refresh_interval_ms=0.01))
    assert report.kernel_faults > 0, "offloading should have been shut off"
    assert report.mfoe_hits + report.mfoe_misses + report.kernel_faults == 300
    outcomes = [OUTCOMES[code] for code in report.records.outcome]
    tripped_at = outcomes.index(OutcomeKind.KERNEL_FAULT)
    assert all(kind is OutcomeKind.KERNEL_FAULT for kind in outcomes[tripped_at:])


def test_replay_seeded_is_byte_stable():
    config = small_config(faults_per_thread=250, interarrival_cycles=1200,
                          table_width=16)
    a = run(replace(config, seed=7))
    b = run(replace(config, seed=7))
    assert a.to_json() == b.to_json()
    again = run(replace(config, seed=7))
    assert again.to_json() == a.to_json()


def test_seed_is_inert_when_no_latency_is_sampled():
    # an all-hit run never draws from the baseline sampler
    config = small_config(faults_per_thread=32, interarrival_cycles=200_000,
                          table_width=64)
    a, b = run(replace(config, seed=1)), run(replace(config, seed=2))
    for column in ("t", "core", "outcome", "cycles"):
        assert getattr(a.records, column) == getattr(b.records, column)
    assert a.per_core == b.per_core


def test_second_run_is_refused_and_leaves_the_first_report_alone():
    simulation = Simulation(small_config(threads=2, faults_per_thread=50,
                                         table_width=16))
    report = simulation.run()
    doc, rows = report.to_json(), list(block_rows(report.records.csv_blocks()))
    with pytest.raises(RuntimeError, match="runs once"):
        simulation.run()
    assert len(report.records) == 100
    assert report.to_json() == doc, "per_core must not take the second run's touches"
    assert list(block_rows(report.records.csv_blocks())) == rows


def test_seeds_agree_on_hit_rate_within_noise():
    config = small_config(faults_per_thread=2000, interarrival_cycles=3000,
                          table_width=256)
    rates = [run(replace(config, seed=s)).hit_rate for s in (0, 1, 2)]
    assert max(rates) - min(rates) < 0.05


# report serialization


def test_report_json_schema():
    report = run(small_config(faults_per_thread=50, interarrival_cycles=1500,
                              table_width=8))
    doc = json.loads(report.to_json())
    assert doc["schema"] == "mfoesim.simreport/1"
    for key in ("hit_rate", "mfoe_hits", "mfoe_misses", "kernel_faults",
                "critical_path_speedup", "per_core", "config", "sim_cycles"):
        assert key in doc
    assert doc["config"]["table_width"] == 8
    assert len(doc["per_core"]) == 1
    assert doc["per_core"][0]["touches"] == 50


def test_report_csv_layout():
    report = run(small_config(faults_per_thread=25, interarrival_cycles=1500,
                              table_width=8))
    rows = list(block_rows(report.records.csv_blocks()))
    assert rows[0] == "timestamp_cycles,core,outcome,latency_cycles"
    assert len(rows) == 26
    t, core, outcome, cycles = rows[1].split(",")
    assert int(t) == 1500 and core == "0"
    assert outcome in ("mfoe_hit", "mfoe_miss", "kernel_fault")
    int(cycles)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_fault_log_csv_matches_per_row_reference(tmp_path, rows):
    rng = random.Random(rows)
    width = len(OUTCOMES)
    cores = [rng.randrange(MAX_CORES) for _ in range(rows)]
    outcomes = [rng.randrange(width) for _ in range(rows)]
    if rows:
        # the top code, which must be written as 1023 and the last outcome
        cores[-1], outcomes[-1] = MAX_CORES - 1, width - 1
    log = FaultLog()
    log.t = array("q", sorted(rng.randrange(1 << 62) for _ in range(rows)))
    log.codes = array("H", [core * width + code for core, code in zip(cores, outcomes)])
    log.cycles = array("q", [rng.randrange(1, 1 << 40) for _ in range(rows)])
    assert list(log.core) == cores
    assert list(log.outcome) == outcomes
    lines = ["timestamp_cycles,core,outcome,latency_cycles"] + [
        f"{t},{core},{OUTCOMES[code].value},{cycles}"
        for t, core, code, cycles in zip(log.t, cores, outcomes, log.cycles)
    ]
    if rows:
        assert lines[-1].split(",")[1:3] == [f"{MAX_CORES - 1}", OUTCOMES[-1].value]
    path = tmp_path / "faults.csv"
    write_blocks(path, log.csv_blocks())
    assert path.read_text() == "".join(line + "\n" for line in lines)
    assert list(block_rows(log.csv_blocks())) == lines


# Seeded configs whose logs hold, between them, every outcome a touch
# can log: each case MFOE hits and the kind it is named for.
_REPORT_CASES = {
    # two 24-page regions, revisited, fit the engine's one 64-entry TLB
    "tlb-hits": (OutcomeKind.TLB_HIT, dict(
        threads=2, faults_per_thread=300, region_pages_per_thread=24, table_width=16, seed=1)),
    # two 128-page regions do not: revisits walk
    "walk-hits": (OutcomeKind.WALK_HIT, dict(
        threads=2, faults_per_thread=600, region_pages_per_thread=128, table_width=16,
        seed=2)),
    # a narrow table at a tight rate runs dry: hits and misses
    "misses": (OutcomeKind.MFOE_MISS, dict(
        threads=3, faults_per_thread=400, interarrival_cycles=800, table_width=8, seed=3)),
    # a 40-frame quota trips and shuts the offload off
    "kernel-faults": (OutcomeKind.KERNEL_FAULT, dict(
        threads=2, faults_per_thread=300, interarrival_cycles=1000, table_width=16,
        quota_frames=40, refresh_interval_ms=0.01, seed=4)),
}


@pytest.mark.parametrize("name", _REPORT_CASES)
def test_report_matches_per_row_recount(name):
    kind, settings = _REPORT_CASES[name]
    config = small_config(**settings)
    report = run(config)
    log = report.records
    cores, outcomes, cycles = list(log.core), list(log.outcome), list(log.cycles)
    # the code rule, core * len(OUTCOMES) + outcome, read back
    assert list(log.codes) == [c * len(OUTCOMES) + o for c, o in zip(cores, outcomes)]
    rows = [(c, OUTCOMES[o], n) for c, o, n in zip(cores, outcomes, cycles)]
    assert {kind, OutcomeKind.MFOE_HIT} <= {k for _, k, _ in rows}

    gap = config.workload.interarrival_cycles
    assert [s.core for s in report.per_core] == list(range(config.workload.threads))
    for stats in report.per_core:
        mine = [(t, k, n) for t, (c, k, n) in zip(log.t, rows) if c == stats.core]
        # each core's rows are one thread's chain of touches
        ends = [t + n for t, _, n in mine]
        assert [t for t, _, _ in mine] == [gap + end for end in [0] + ends[:-1]]
        assert stats.touches == len(mine)
        assert stats.mfoe_hits == sum(k is OutcomeKind.MFOE_HIT for _, k, _ in mine)
        assert stats.mfoe_misses == sum(k is OutcomeKind.MFOE_MISS for _, k, _ in mine)
        assert stats.kernel_faults == sum(k is OutcomeKind.KERNEL_FAULT for _, k, _ in mine)
        assert stats.tlb_hits == sum(k is OutcomeKind.TLB_HIT for _, k, _ in mine)
        assert stats.walk_hits == sum(k is OutcomeKind.WALK_HIT for _, k, _ in mine)
        assert stats.compute_cycles == len(mine) * gap
        assert stats.fault_cycles == sum(n for _, _, n in mine)
        assert stats.end_time == ends[-1]

    fault_kinds = {OutcomeKind.MFOE_HIT, OutcomeKind.MFOE_MISS, OutcomeKind.KERNEL_FAULT}
    faults = sorted(n for _, k, n in rows if k in fault_kinds)
    hits = [n for _, k, n in rows if k is OutcomeKind.MFOE_HIT]
    misses = sum(k is OutcomeKind.MFOE_MISS for _, k, _ in rows)
    assert report.mfoe_hits == len(hits)
    assert report.mfoe_misses == misses
    assert report.kernel_faults == sum(k is OutcomeKind.KERNEL_FAULT for _, k, _ in rows)
    assert report.hit_rate == len(hits) / (len(hits) + misses)
    assert report.mean_hit_cycles == (sum(hits) / len(hits) if hits else 0.0)
    assert report.mean_fault_cycles == sum(faults) / len(faults)
    assert report.p95_fault_cycles == faults[math.ceil(0.95 * len(faults)) - 1]
    assert report.total_fault_cycles == sum(cycles)
    assert report.sim_cycles == max(s.end_time for s in report.per_core)


def test_frame_exhaustion_raises_out_of_memory():
    # the library raises; the CLI turns it into "error: ..." and exit 2
    with pytest.raises(OutOfMemory):
        run(small_config(threads=2, faults_per_thread=3000, total_frames=4000))


_PINNED = [
    # the criterion-9 simulate configuration
    (["--threads", "2", "--faults-per-thread", "2000", "--interarrival", "3000",
      "--table-width", "32", "--seed", "5"],
     "9bafb49b5cb4b1699ef4db9c90813648cf2d21ea18b6fd17f92b1f32414cbbcd",
     "7d52a17e7d9776f19b414d86441dc38389428e35dc6e398776a8bc5b26416ff9"),
    # revisited pages: most pass steps find nothing to book
    (["--threads", "2", "--faults-per-thread", "3000", "--region-pages", "64",
      "--table-width", "16", "--seed", "1"],
     "83dfe06915b2ef825ee41c2de66b92f72a67ac89f5dd439e4e5804f1517888e9",
     "f30a715a111b69adc0bff1a9a453a53f86e2ea1baa11e820479460602c79af06"),
    # record_cost 6000 and interval 12000 cycles: every tick shares its
    # cycle with a pass step
    (["--threads", "3", "--faults-per-thread", "2000", "--region-pages", "300",
      "--params-background-throughput-pages-per-s", "500000",
      "--refresh-interval-ms", "0.004", "--table-width", "16", "--seed", "7"],
     "ed435917fb0c7f46c168a80eb1e45a451f3b9e22cc4d77e324e6eab4682f4bfd",
     "093e746e219d8eb996d30c290a37f900f83f6f22dd85a8e26506b7da7a0a0884"),
    # the quota trips mid-run and the rest are kernel faults
    (["--threads", "2", "--faults-per-thread", "600", "--interarrival", "3000",
      "--refresh-interval-ms", "0.1", "--quota-frames", "300", "--table-width", "16",
      "--seed", "5"],
     "56ed8c406d21b5b96f45064f7381b40ec0330227ceb0dfd96ac01000f965d428",
     "85c3c86bee104d147f4452a7c0179747cb50ca2af01949189e95108e324535af"),
    # a stride of 3 over 700-page regions revisits every page through the
    # walker, three regions, and a fourth core with no thread
    (["--threads", "3", "--cores", "4", "--faults-per-thread", "1500", "--region-pages", "700",
      "--stride", "3", "--table-width", "16", "--seed", "11"],
     "a49a24172392064948033e77ae06811b8dc7341a3e1a21ce89368b18468468f3",
     "131512a632f72eb1da6629ced9c8ece7f91f49f8b9c0275886f7bc2505931e0c"),
    # the two other baseline latency distributions, with most faults
    # missing so that each draws its baseline latency
    (["--threads", "3", "--faults-per-thread", "2000", "--interarrival", "800",
      "--table-width", "16", "--refresh-interval-ms", "0.05",
      "--params-baseline-fault-dist", "two_point", "--seed", "9"],
     "285398d73e1c54d3f95455878e88bbb0346439e1080e00e54ee96d6286d98302",
     "13a390e2742580ea95b5eeeb56a25d4d0d8ef862ff345e69e314f68d8cabeb2a"),
    (["--threads", "3", "--faults-per-thread", "2000", "--interarrival", "800",
      "--table-width", "16", "--refresh-interval-ms", "0.05",
      "--params-baseline-fault-dist", "constant", "--seed", "9"],
     "70cf89d9abbd947d12528b5730fe36b814693cdb872e4a41b8bf180b07411b41",
     "ff7b5e882f4f2974b38b1a48165f5bb219c3eee393e276188da6ecd74463cf1e"),
]


@pytest.mark.parametrize("argv, faults_csv, report_json", _PINNED,
                         ids=["criterion-9", "idle-passes", "tick-meets-pass-step",
                              "quota-trip", "stride-spare-cores", "two-point-baseline",
                              "constant-baseline"])
def test_simulate_report_digests_are_pinned(tmp_path, argv, faults_csv, report_json):
    # a refactor of the fault protocol, the deferred pass or the event
    # loop must leave both files byte-identical
    assert cli_main(["simulate", *argv, "--out-dir", str(tmp_path)]) == 0

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert digest("faults.csv") == faults_csv
    assert digest("report.json") == report_json


def _background_states(config, simulation_class=Simulation):
    """A run's report files, and the tick clock and the pass state,
    pending bit clears included, as each touch begins. The next pass
    step's cycle is left out: a loop that wakes the pass on every touch
    has one where a dry pass has none."""
    simulation = simulation_class(config)
    kernel, serve, states = simulation.kernel, simulation._on_fault, []

    def noted(t, core):
        states.append((t, simulation._tick_at, kernel.tick_index,
                       kernel._pass_core, kernel.pass_budget, len(kernel.pending_bit_clears),
                       simulation.background_processed))
        return serve(t, core)

    simulation._on_fault = noted
    report = simulation.run()
    # one state per touch: a run that bypassed _on_fault would record none
    assert len(states) == config.workload.threads * config.workload.faults_per_thread
    return report.to_json(), "".join(report.records.csv_blocks()), states


def _spy_passes(monkeypatch):
    """Lists of what each begin_pass call returned and of advance_passes
    counts. begin_pass advances one pass itself, so sum(advanced) counts
    the ticks and sum(advanced) - len(begun) the idle ticks applied at
    once."""
    begun, advanced = [], []
    begin, advance = KernelModel.begin_pass, KernelModel.advance_passes
    monkeypatch.setattr(KernelModel, "begin_pass",
                        lambda self: begun.append(begin(self)) or begun[-1])
    monkeypatch.setattr(KernelModel, "advance_passes",
                        lambda self, count: advanced.append(count) or advance(self, count))
    return begun, advanced


def _begin_every_pass(monkeypatch):
    """The tick-by-tick reference: begin_pass reports work on every tick,
    so the loop begins one pass per tick and applies none at once."""
    begin = KernelModel.begin_pass
    monkeypatch.setattr(KernelModel, "begin_pass", lambda self: begin(self) or True)


@pytest.mark.parametrize("kw", [
    # every tick finds the pass idle: each touch is booked before the next tick
    dict(threads=1, faults_per_thread=40, interarrival_cycles=20_000_000, seed=1),
    dict(threads=2, faults_per_thread=400, interarrival_cycles=300_000,
         refresh_interval_ms=0.05, seed=3),
    # the quota trips on a tick between idle runs; bit clears are pending on the next
    dict(threads=2, faults_per_thread=300, interarrival_cycles=100_000,
         refresh_interval_ms=0.02, quota_frames=100, seed=5),
    dict(threads=2, faults_per_thread=600, interarrival_cycles=3000,
         refresh_interval_ms=0.1, quota_frames=300, seed=5),
    # revisited pages and a spare core
    dict(threads=3, cores=4, faults_per_thread=500, region_pages_per_thread=40,
         interarrival_cycles=1_000_000, refresh_interval_ms=0.1, table_width=8, seed=7),
], ids=["idle", "two-cores", "quota-idle", "quota-tight", "revisit"])
def test_idle_tick_skip_matches_the_tick_by_tick_loop(monkeypatch, kw):
    kw.setdefault("table_width", 16)
    begun, advanced = _spy_passes(monkeypatch)
    trips, check = [], KernelModel.resource_check
    monkeypatch.setattr(KernelModel, "resource_check",
                        lambda self, proc: trips.append(check(self, proc)) or trips[-1])
    fast = _background_states(small_config(**kw))
    assert False in begun, "no tick found the pass idle"
    assert any(trips) == ("quota_frames" in kw)
    # the reference: begin_pass on every tick, one pass step at a time
    _begin_every_pass(monkeypatch)
    begun.clear()
    advanced.clear()
    assert _background_states(small_config(**kw)) == fast
    assert advanced == [1] * len(begun)


@pytest.mark.parametrize("kw", [
    # a backlog outlasts a pass's budget, and then only walk hits follow
    dict(threads=2, faults_per_thread=3000, region_pages_per_thread=300, tlb_entries=4,
         table_width=128, interarrival_cycles=500, refresh_interval_ms=0.02, seed=11),
    dict(threads=2, faults_per_thread=1500, region_pages_per_thread=400, quota_frames=300,
         interarrival_cycles=3000, refresh_interval_ms=0.1, seed=5),
    dict(threads=3, faults_per_thread=1200, region_pages_per_thread=100, stride_pages=3,
         tlb_entries=8, interarrival_cycles=2000, refresh_interval_ms=0.05, seed=13),
], ids=["revisit-tiny-tlb", "quota", "short-interval"])
def test_dry_pass_skip_matches_waking_on_every_touch(monkeypatch, kw):
    # TLB and walk hits leave a dry pass dry, so the loop skips the
    # background catch-up until the next tick or other outcome; waking the
    # pass on every touch and beginning one pass per tick instead gives
    # the same reports and the same background state as each touch begins
    kw.setdefault("table_width", 16)
    caught_up, advance = [], Simulation._advance_background
    monkeypatch.setattr(Simulation, "_advance_background",
                        lambda self, t: caught_up.append(t) or advance(self, t))
    # whether the pass has a step to come as each touch ends
    awake, serve, wake_every_touch = [], Simulation._on_fault, False

    def served(self, t, core):
        after = serve(self, t, core)
        if wake_every_touch and self._next_step == NEVER and t >= self._first_tick:
            # the reference: every touch wakes a dry pass, hits included
            self._next_step = step = self._step_after(t)
            if step < self._due:
                self._due = step
        awake.append(self._next_step != NEVER)
        return after

    monkeypatch.setattr(Simulation, "_on_fault", served)
    fast = _background_states(small_config(**kw))
    report = json.loads(fast[0])
    touches = kw["threads"] * kw["faults_per_thread"]
    assert sum(c["walk_hits"] + c["tlb_hits"] for c in report["per_core"]) > touches // 2
    assert report["background_processed"] > 0
    # the quota turns offloading off, after which faults go to the kernel
    assert (report["kernel_faults"] > 0) == ("quota_frames" in kw)
    assert len(caught_up) < touches, "no touch skipped the background catch-up"
    fast_awake = sum(awake)
    assert fast_awake < touches, "no touch left the pass dry"
    wake_every_touch = True
    _begin_every_pass(monkeypatch)
    awake.clear()
    assert _background_states(small_config(**kw)) == fast
    # the reference really stayed awake: its TLB and walk hits woke the
    # pass where the loop under test left it dry
    assert sum(awake) > fast_awake


def test_background_is_caught_up_only_when_something_is_due():
    # at a saturated point the pass stays awake, with a step due every
    # 5,171 cycles, while 8 threads touch every 21,000 cycles each, about
    # once per 2,600 cycles: most touches have no fill step, tick or pass
    # step due before them and skip the catch-up, and each catch-up runs
    # at least one fill step, pass start or pass step
    caught_up, events = [], []
    simulation = Simulation(small_config(threads=8, faults_per_thread=128, table_width=16,
                                         refresh_interval_ms=0.1, seed=1))
    kernel = simulation.kernel
    advance = simulation._advance_background
    simulation._advance_background = lambda t: caught_up.append(t) or advance(t)
    for name in ("fill_step", "begin_pass", "serial_pass_step"):
        real = getattr(kernel, name)
        setattr(kernel, name, lambda *a, real=real: events.append(None) or real(*a))
    report = simulation.run()
    touches = 8 * 128
    assert 0 < report.hit_rate < 0.6 and report.background_processed > 0
    assert len(caught_up) <= len(events)
    assert len(caught_up) < touches // 2, f"{len(caught_up)} catch-ups for {touches} touches"


class _EveryStep(Simulation):
    """The tick-by-tick, wake-on-every-touch reference: every fill step,
    tick and pass step in cycle order, none skipped or batched, before
    each touch. At equal cycles the fill step comes first, then the tick,
    then the pass step. Each tick begins its own pass, and a pass step
    runs on every step cycle, first tick + k * record_cost for k >= 1,
    whether or not the step before it booked anything."""

    def __init__(self, config):
        super().__init__(config)
        # the loop's one compare always catches up; the first tick is
        # kept apart from _first_tick, so no touch wakes the loop's pass
        self._due = 0
        self._step_at = NEVER

    def _advance_background(self, t):
        kernel = self.kernel
        while self._fill_at <= t:
            if kernel.fill_step():
                self._fill_at += kernel.fill_cost
            else:
                self.fill_complete_cycle = self._fill_at
                self._tick_at = self._fill_at + kernel.interval_cycles
                self._step_at = self._tick_at + kernel.record_cost
                self._fill_at = NEVER
        while min(self._tick_at, self._step_at) <= t:
            if self._tick_at <= self._step_at:
                kernel.begin_pass()
                self._tick_at += kernel.interval_cycles
            else:
                if kernel.pass_step() is not None:
                    self.background_processed += 1
                self._step_at += kernel.record_cost


def _clock_cases():
    """Small configs for the background clock's differential test: 20
    drawn from the CLI fuzz's in-range values, and four that place the
    clock's edges."""
    rng = random.Random("background clock")
    values = [float(v) for v in IN_RANGE_VALUES]
    counts = [int(v) for v in values if v == int(v)]
    clock = ModelParameters().clock_hz
    cases = {}
    for i in range(20):
        cases[f"draw-{i:02d}"] = dict(
            threads=rng.choice([c for c in counts if c <= 3]),
            faults_per_thread=rng.choice((16, 32, 64)),
            interarrival_cycles=int(rng.choice(values) * 1000),
            region_pages_per_thread=rng.choice((None, 16, 48)),
            stride_pages=rng.choice([c for c in counts if c <= 3]),
            tlb_entries=rng.choice(counts),
            table_width=rng.choice([c for c in counts if c >= 2]),
            refresh_interval_ms=rng.choice(values) / 100,
            quota_frames=rng.choice((None, None, None, 40)),
            params=ModelParameters(background_throughput_pages_per_s=rng.choice(
                (580_169, 500_000, clock // 1000))),
            seed=rng.randrange(1000),
        )
    # record_cost 6000 and interval 12000: every other step is on a tick
    cases["step-on-tick"] = dict(
        threads=3, faults_per_thread=64, interarrival_cycles=2000, region_pages_per_thread=48,
        table_width=16, refresh_interval_ms=0.004,
        params=ModelParameters(background_throughput_pages_per_s=500_000), seed=7)
    # record_cost and fill_cost 1: every cycle is a step, and the tables
    # stay full, so every fault hits and the threads touch in lockstep; a
    # wake that took the waking touch's own cycle for a step after it
    # would book that fault before the next core's touch at that cycle
    cases["every-cycle"] = dict(
        threads=3, faults_per_thread=32, interarrival_cycles=3000, table_width=16,
        refresh_interval_ms=0.005, params=ModelParameters(
            background_throughput_pages_per_s=clock, init_throughput_pages_per_s=clock),
        seed=2)
    # the fill ends at cycle 85,095 and the first tick comes 480,000
    # cycles later, with faults in between
    cases["before-first-tick"] = dict(
        threads=2, faults_per_thread=64, interarrival_cycles=16000, table_width=16,
        refresh_interval_ms=0.16, seed=3)
    # 100 idle ticks between touches
    cases["long-idle"] = dict(
        threads=2, faults_per_thread=16, interarrival_cycles=3_000_000, table_width=3,
        refresh_interval_ms=0.01, seed=4)
    return cases


_CLOCK_CASES = _clock_cases()


@pytest.mark.parametrize("name", _CLOCK_CASES)
def test_background_clock_matches_stepping_every_step(name):
    # one next-due cycle per touch gives the reports and the background
    # state, as each touch begins, of running every fill step, tick and
    # pass step in turn and never letting the pass go dry
    config = small_config(**_CLOCK_CASES[name])
    fast = _background_states(config)
    assert _background_states(config, _EveryStep) == fast
    kernel = Simulation(config).kernel
    interval, cost = kernel.interval_cycles, kernel.record_cost
    report = json.loads(fast[0])
    fill_end = report["fill_complete_cycle"]
    quiet = {OutcomeKind.TLB_HIT.value, OutcomeKind.WALK_HIT.value}
    rows = [row.split(",") for row in fast[1].splitlines()[1:]]
    touches = [int(t) for t, _, _, _ in rows]
    faults = [int(t) for t, _, outcome, _ in rows if outcome not in quiet]
    if name == "step-on-tick":
        assert interval % cost == 0 < report["background_processed"]
    elif name == "every-cycle":
        assert cost == 1 and report["hit_rate"] == 1.0
        assert len(set(touches)) == len(touches) // 3
    elif name == "before-first-tick":
        assert any(fill_end < t < fill_end + interval for t in faults)
    elif name == "long-idle":
        # each state holds the touch's cycle and the ticks begun by then
        assert all(b[2] - a[2] >= 90 for a, b in zip(fast[2], fast[2][1:]) if b[0] > a[0])


def test_zero_budget_ticks_are_applied_at_once(monkeypatch):
    # a 0.1 us interval grants each pass 0.058 records, rounded down to 0, so
    # no pass books anything while used entries pile up; the ticks between
    # touches are applied in one call, and the reports and background
    # state are those of the tick-by-tick loop
    kw = dict(threads=2, faults_per_thread=100, refresh_interval_ms=0.0001,
              table_width=16, seed=3)
    begun, advanced = _spy_passes(monkeypatch)
    fast = _background_states(small_config(**kw))
    touches = 2 * 100
    ticks = fast[2][-1][2]
    assert ticks > 10 * touches
    assert len(begun) <= touches and len(advanced) - len(begun) <= touches
    assert json.loads(fast[0])["background_processed"] == 0
    _begin_every_pass(monkeypatch)
    begun.clear()
    assert _background_states(small_config(**kw)) == fast
    assert len(begun) == ticks


def test_long_idle_span_is_skipped_at_once(tmp_path, monkeypatch):
    # about 667,000 ticks fall before each of 3 touches 4e12 cycles
    # apart; each run of them is applied in one step, and the reports are
    # those of the tick-by-tick loop
    begun, advanced = _spy_passes(monkeypatch)
    assert cli_main(["simulate", "--threads", "1", "--faults-per-thread", "3",
                     "--interarrival", "4000000000000", "--out-dir", str(tmp_path)]) == 0
    # one idle pass begun per touch, and the ticks after it up to the touch
    assert begun == [False] * 3 and sum(advanced) - len(begun) > 1_900_000

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert digest("faults.csv") == (
        "2c8375cc936790bca1de8d8acd26bdc767ae5ff1d192d9a1750532db48415df9")
    assert digest("report.json") == (
        "e0e3e327825ffb67667897a55373fedd6034ff2ae9dca24b33ab0b93a30ec3e6")


@pytest.mark.parametrize("kw, message", [
    (dict(region_pages_per_thread=99_999_999_999_999_999), "pages a run maps"),
    # the region defaults to one page per fault
    (dict(faults_per_thread=99_999_999_999_999_999), "pages a run maps"),
    (dict(threads=200, faults_per_thread=32_768), "pages a run maps"),
    # a revisited region maps few pages however many touches log rows
    (dict(faults_per_thread=80_000_000_000_000, region_pages_per_thread=8),
     "touches, more than"),
    (dict(threads=2, faults_per_thread=(1 << 23) + 1, region_pages_per_thread=8),
     "touches, more than"),
    (dict(total_frames=99_999_999_999), "total frames"),
    (dict(threads=1, cores=1025), "cores"),
], ids=["region", "faults", "threads", "touches", "threads-x-touches", "frames", "cores"])
def test_sizes_are_capped_before_anything_is_built(monkeypatch, kw, message):
    built = []
    real = sim_module.KernelModel
    monkeypatch.setattr(sim_module, "KernelModel", lambda **a: built.append(a) or real(**a))
    with pytest.raises(ValueError, match=message):
        Simulation(small_config(**kw))
    assert built == []
    Simulation(small_config(threads=2, faults_per_thread=64))
    assert len(built) == 1


@pytest.mark.parametrize("faults", [1, 2], ids=["last-completion", "logged-touch"])
def test_simulated_time_past_64_bits_is_a_value_error(faults):
    # one touch at cycle 2**63 - 1 completes past it; a second touch
    # would be logged past it
    with pytest.raises(ValueError, match="simulated cycle count passed 9223372036854775807"):
        run(small_config(threads=1, faults_per_thread=faults,
                         interarrival_cycles=(1 << 63) - 1))


def test_caps_admit_criterion_1_and_a_million_frame_pool():
    top = small_config(threads=8, faults_per_thread=32_768, total_frames=1 << 20)
    top.validate()
    assert 8 * 32_768 <= MAX_MAPPED_PAGES and 1 << 20 <= MAX_TOTAL_FRAMES
    assert 8 * 32_768 <= MAX_TOUCHES


def test_idle_pass_is_not_polled(monkeypatch):
    # a pass step that books nothing waits for the next tick or fault,
    # so the idle steps are bounded by ticks + touches; and the pass
    # passes over a table with no used entry, so only booking steps
    # reach a table at all: a step reaches one exactly when its budget
    # is left and some table holds a used entry. Offloading stays on and
    # frames stay on hand here, so every booking is straight-line and a
    # step that calls process_one_record has reached a table it need not
    calls, table_calls, fallbacks = [], [], []
    serial_pass_step = KernelModel.serial_pass_step
    process_one_record = KernelModel.process_one_record

    def counted(self):
        calls.append(None)
        if self.pass_budget > 0 and any(t.consumed != t.released for t in self.tables):
            table_calls.append(None)
        return serial_pass_step(self)

    def counted_record(self, core):
        fallbacks.append(core)
        return process_one_record(self, core)

    monkeypatch.setattr(KernelModel, "serial_pass_step", counted)
    monkeypatch.setattr(KernelModel, "process_one_record", counted_record)
    simulation = Simulation(small_config(threads=2, faults_per_thread=3000,
                                         region_pages_per_thread=64, table_width=16,
                                         seed=1))
    report = simulation.run()
    touches = sum(s.touches for s in report.per_core)
    assert len(calls) <= report.background_processed + touches + simulation.kernel.tick_index
    assert len(table_calls) == report.background_processed
    assert fallbacks == []


# Python-level calls per fault (sys.setprofile "call" events, generator
# resumes included) over 8 threads x 128 touches, width 16, seed 1, with
# a 0.1 ms refresh interval so the background pass runs and saturates
# (hit rate 0.534, 434 records booked); at the default 2 ms no tick
# falls within the run and the booking path would go uncounted. Measured
# on CPython 3.11: 5,325 calls for 1,024 faults, 5.20 a fault, since
# MfoeEngine.serve_fault is handed the thread's region VMA and takes the
# table's consume, the leaf's install_frame and the kernel's
# inline_install inline, so a table hit makes no call of its own and a
# miss calls only FrameAllocator.allocate and the latency draw; moving
# the TLB fill from the engine's fault half into the touch loop left
# that count unchanged (9,339 and 9.12 while each fault called
# ProcessModel.find_vma and those helpers, with the pass booking a
# record in KernelModel.serial_pass_step's straight-line code and the
# TLB's LRU inline; the touch loop's own TLB lookup and walk, which call
# the engine's fault half for a fault where resolve was called before,
# left that unchanged; 15,293 and 14.93 while each booking went through
# pass_step, process_one_record and their helpers and each touch called
# Tlb.lookup and Tlb.insert; 24,928 and 24.34 while each fault built a
# PteFaultSm and resumed its protocol generator about 7.4 times; 25,497
# and 24.90 while the background catch-up ran on every touch with the
# pass awake; 30,477 and 29.76 before the handler took and released its
# lock on the leaf word in place and the kernel path stopped walking to
# the leaf it holds). The bound is that plus a 10% margin. A change that
# adds calls on purpose re-pins the numbers here and says why, as a
# pinned digest is re-pinned.
_CALLS_PER_FAULT = 5.20
_CALLS_MARGIN = 1.10

# Python-level calls per touch, counted the same way, over 2 threads x
# 4096 touches of 128-page regions at the defaults (64 TLB entries, seed
# 1): each thread cycles through more pages than the TLB holds, so after
# the 256 first touches every touch is a walk hit. Measured on CPython
# 3.11: 13,002 calls for 8,192 touches, 1.59 a touch, with the TLB
# lookup and the walk in the touch loop and no engine call on a hit
# (20,938 and 2.56 with a call to MfoeEngine.resolve on every touch;
# 39,365 and 4.81 with a Tlb.lookup and a Tlb.insert call on every walk
# hit; 42,074 and 5.14 with a background catch-up on every touch while
# the pass was awake; 50,894 and 6.21 with a call to check_canonical on
# every touch). Each count moves by a few dozen one-time calls with the
# tests that ran before it.
_CALLS_PER_WALK_TOUCH = 1.59

# The same over 2 threads x 4096 touches of 16-page regions: both fit
# the 64-entry TLB, so after the 32 first touches every touch is a TLB
# hit. Measured on CPython 3.11: 11,645 calls for 8,192 touches, 1.42 a
# touch (19,805 and 2.42 with a call to MfoeEngine.resolve on every
# touch).
_CALLS_PER_TLB_TOUCH = 1.42

# Python-level calls made inside the pass steps, the steps' own calls
# included, per record booked, at the _CALLS_PER_FAULT config: 434 calls
# for 434 records, 1.00 a record, since serial_pass_step books in
# straight-line code (4,340 and 10.00 through pass_step ->
# process_one_record -> try_cleanup_lock, take_used and its
# HarvestRecord, ledger.apply, _restock_head -> allocate and produce, and
# release_cleanup_lock).
_CALLS_PER_RECORD = 1.00


def _count_calls(simulation, within=None):
    """simulation.run()'s report and the Python-level calls it made, as a
    Counter by code object; with within, a function, only the calls made
    while it runs, its own included."""
    calls = Counter()
    inside = 0
    code = within and within.__code__

    def count(frame, event, arg):
        nonlocal inside
        if event == "call":
            if frame.f_code is code:
                inside += 1
            if inside or code is None:
                calls[frame.f_code] += 1
        elif event == "return" and frame.f_code is code:
            inside -= 1

    sys.setprofile(count)
    try:
        report = simulation.run()
    finally:
        sys.setprofile(None)
    return report, calls


def _calls_message(calls, count, unit):
    """A bound's failure message: the calls per unit, and the five
    functions called most often."""
    total = calls.total()
    top = ", ".join(f"{code.co_qualname} {n}" for code, n in calls.most_common(5))
    return f"{total / count:.2f} calls a {unit} ({total} for {count}); most called: {top}"


def _saturated_guard_config():
    return small_config(threads=8, faults_per_thread=128, table_width=16,
                        refresh_interval_ms=0.1, seed=1)


def test_a_saturated_fault_costs_a_bounded_number_of_calls():
    report, calls = _count_calls(Simulation(_saturated_guard_config()))
    faults = report.mfoe_hits + report.mfoe_misses + report.kernel_faults
    # the pass books records and still falls behind: hits and misses both
    assert faults == 8 * 128 and report.background_processed > 0
    assert report.mfoe_hits and report.mfoe_misses
    assert calls.total() / faults <= _CALLS_PER_FAULT * _CALLS_MARGIN, (
        _calls_message(calls, faults, "fault"))


def test_a_booked_record_costs_a_bounded_number_of_calls():
    report, calls = _count_calls(Simulation(_saturated_guard_config()),
                                 within=KernelModel.serial_pass_step)
    records = report.background_processed
    assert records == 434
    assert calls.total() / records <= _CALLS_PER_RECORD * _CALLS_MARGIN, (
        _calls_message(calls, records, "record"))


def test_a_walk_hit_costs_a_bounded_number_of_calls():
    report, calls = _count_calls(Simulation(small_config(
        threads=2, faults_per_thread=4096, region_pages_per_thread=128, seed=1)))
    touches = 2 * 4096
    walk_hits = sum(s.walk_hits for s in report.per_core)
    faults = report.mfoe_hits + report.mfoe_misses + report.kernel_faults
    # a region larger than the TLB: no TLB hit, and every revisit walks
    assert faults == 2 * 128 and walk_hits == touches - faults
    assert calls.total() / touches <= _CALLS_PER_WALK_TOUCH * _CALLS_MARGIN, (
        _calls_message(calls, touches, "touch"))


def test_a_tlb_hit_costs_a_bounded_number_of_calls():
    report, calls = _count_calls(Simulation(small_config(
        threads=2, faults_per_thread=4096, region_pages_per_thread=16, seed=1)))
    touches = 2 * 4096
    tlb_hits = sum(s.tlb_hits for s in report.per_core)
    faults = report.mfoe_hits + report.mfoe_misses + report.kernel_faults
    # regions the TLB holds: no walk hit, and every revisit hits the TLB
    assert faults == 2 * 16 and tlb_hits == touches - faults
    assert calls.total() / touches <= _CALLS_PER_TLB_TOUCH * _CALLS_MARGIN, (
        _calls_message(calls, touches, "touch"))


def test_saturated_teardown_conserves_frames_and_free_list_order(monkeypatch):
    # a saturated run ends with consumed entries the pass has not booked;
    # terminate's error_cleanup books them and leaves their slots empty,
    # allocating nothing, so the free list's order pins the unmap and
    # table drain FIFO
    simulation = Simulation(small_config(threads=4, faults_per_thread=512, table_width=16,
                                         total_frames=1 << 14, seed=3))
    report = simulation.run()
    assert 0 < report.hit_rate < 0.6
    kernel = simulation.kernel
    census = kernel.frame_census()
    assert census["free"] + census["outstanding"] == census["total"]
    assert census["outstanding"] == (
        census["table_valid"] + census["table_storage"] + census["mapped"])
    used = sum(t.used_count() for t in kernel.tables)
    assert used, "nothing left for error_cleanup to book"
    assert len(kernel.ledger.rmap) + used == census["mapped"]

    allocate, allocated = kernel.allocator.allocate, []

    def counted():
        allocated.append(allocate())
        return allocated[-1]

    monkeypatch.setattr(kernel.allocator, "allocate", counted)
    assert kernel.terminate(simulation.proc) == census["mapped"]
    assert allocated == [], "exit cleanup restocks no slot"
    after = kernel.frame_census()
    assert after["outstanding"] == after["table_storage"]
    assert after["free"] + after["outstanding"] == after["total"]
    order = ",".join(map(str, kernel.allocator.free_list)).encode()
    assert hashlib.sha256(order).hexdigest() == (
        "84545a7bda0a6280f541751cb5291e692a0cfab48c647beec9809d23fbd4207e")


# (a)-(f) reach slow and tight arrivals, narrow and wide tables, a quota
# trip, revisited regions with TLB and walk hits, and a changed hit cost;
# (g) logs all five outcome kinds in one run and leaves a core spare
_FIELD_MATRIX = [
    ["--interarrival", "3000", "--table-width", "16", "--refresh-interval-ms", "0.1"],
    ["--interarrival", "200000", "--table-width", "64"],
    ["--interarrival", "3000", "--table-width", "16", "--refresh-interval-ms", "0.1",
     "--quota-frames", "300"],
    ["--interarrival", "3000", "--region-pages", "8"],
    ["--interarrival", "3000", "--region-pages", "128", "--tlb-entries", "16"],
    ["--interarrival", "200000", "--faults-per-thread", "300",
     "--params-mfoe-hit-cycles", "100"],
    ["--cores", "3", "--interarrival", "600", "--region-pages", "40", "--table-width", "8",
     "--quota-frames", "50", "--refresh-interval-ms", "0.01"],
]


def _simulate_field_matrix(extra, out):
    argv = ["simulate", "--threads", "2", "--seed", "5",
            "--faults-per-thread", "600", *extra, "--out-dir", str(out)]
    assert cli_main(argv) == 0


def test_every_report_field_varies(tmp_path):
    # a report field that reads the same on every run depends on nothing
    seen = {}
    for i, extra in enumerate(_FIELD_MATRIX):
        out = tmp_path / str(i)
        _simulate_field_matrix(extra, out)
        doc = json.loads((out / "report.json").read_text())
        for key, value in doc.items():
            if key in ("config", "schema"):
                continue
            if key == "per_core":
                for core in value:
                    for field, v in core.items():
                        seen.setdefault(f"per_core.{field}", set()).add(v)
            else:
                seen.setdefault(key, set()).add(value)
    constant = sorted(name for name, values in seen.items() if len(values) == 1)
    assert not constant, f"report fields that never vary: {constant}"


@pytest.mark.parametrize("extra", _FIELD_MATRIX, ids="abcdefg")
def test_fault_summaries_match_a_recount_of_faults_csv(tmp_path, extra):
    _simulate_field_matrix(extra, tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    rows = [line.split(",") for line in (tmp_path / "faults.csv").read_text().splitlines()[1:]]
    hits = [int(cycles) for _, _, outcome, cycles in rows if outcome == "mfoe_hit"]
    faults = [int(cycles) for _, _, outcome, cycles in rows
              if outcome in ("mfoe_hit", "mfoe_miss", "kernel_fault")]
    ordered = sorted(faults)
    assert doc["mfoe_hits"] == len(hits)
    assert doc["mfoe_misses"] == sum(1 for row in rows if row[2] == "mfoe_miss")
    assert doc["kernel_faults"] == sum(1 for row in rows if row[2] == "kernel_fault")
    assert doc["mean_hit_cycles"] == (sum(hits) / len(hits) if hits else 0.0)
    assert doc["mean_fault_cycles"] == (sum(faults) / len(faults) if faults else 0.0)
    assert doc["p95_fault_cycles"] == (ordered[math.ceil(0.95 * len(ordered)) - 1]
                                       if ordered else 0)
    # every per_core field, touches and end_time from the event loop included
    interarrival = int(extra[extra.index("--interarrival") + 1])
    fields = {"mfoe_hit": "mfoe_hits", "mfoe_miss": "mfoe_misses",
              "kernel_fault": "kernel_faults", "tlb_hit": "tlb_hits", "walk_hit": "walk_hits"}
    expected = []
    for core in range(len(doc["per_core"])):
        mine = [(int(t), outcome, int(cycles)) for t, c, outcome, cycles in rows
                if int(c) == core]
        counts = dict.fromkeys(fields.values(), 0)
        for _, outcome, _ in mine:
            counts[fields[outcome]] += 1
        expected.append({
            "core": core,
            "touches": len(mine),
            **counts,
            "compute_cycles": len(mine) * interarrival,
            "fault_cycles": sum(cycles for _, _, cycles in mine),
            "end_time": max((t + cycles for t, _, cycles in mine), default=0),
        })
    assert doc["per_core"] == expected

