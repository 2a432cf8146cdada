"""mfoesim benchmark: host cost of the simulator and the replay model.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--size full|smoke] [--out DIR]

Every workload goes through the package's own CLI (`mfoesim.cli.main`,
in process), so the reports it writes and re-validates are the ones a
user gets. The benchmark repeats the workload until --seconds have
passed (at least MIN_REPS times) and reports the interquartile mean of
the repetitions (see `iqm`). All times are host
time, rescaled to a reference host speed (see hostspeed.py); numbers
computed by the model itself are labelled *simulated*.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced repetitions instead: the traced ones record spans around the
package's public functions (see spans.py) and yield the per-layer
metrics, and the gap between the two kinds of repetition is reported as
the tracing overhead.

Outputs are checked on every repetition (see the `Checks` calls); a
failed check makes the run incorrect. The last line on stdout is one
JSON object; a fuller results file, with the environment and the report
digests, goes under --out.

BENCHMARK.json at the repository root lists the metrics, and
bench/README.md says which layer metric should move which end-to-end
metric on which workload.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

from hostspeed import CALIBRATION_LOOPS, REFERENCE_LOOP_S, HostSpeed
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Claims of a later change are checked once more on this seed, which is
# never used while that change is tuned.
HELD_OUT_SEED = 1009

MIN_REPS = 3
TRACE_SETUP_REPS = 5
INTERARRIVAL = 21000
TABLE_WIDTH = 256
REFRESH_MS = 2.0
TRACE_CORES = 4

SIM_WORKLOADS = ("sim-saturated-8t", "sim-revisit-2t")
REPLAY_WORKLOADS = ("replay-gcc", "sweep-gcc")
WORKLOADS = SIM_WORKLOADS + REPLAY_WORKLOADS

SIZES = {
    "full": {
        "sim-saturated-8t": {"threads": 8, "faults_per_thread": 1024, "region_pages": None},
        "sim-revisit-2t": {"threads": 2, "faults_per_thread": 16384, "region_pages": 1024},
        "replay-gcc": {"duration_s": 0.05, "widths": [256], "intervals_ms": [REFRESH_MS]},
        "sweep-gcc": {
            "duration_s": 0.025,
            "widths": [128, 256, 512, 1024],
            "intervals_ms": [2.0, 8.0],
        },
    },
    "smoke": {
        "sim-saturated-8t": {"threads": 8, "faults_per_thread": 64, "region_pages": None},
        "sim-revisit-2t": {"threads": 2, "faults_per_thread": 512, "region_pages": 64},
        "replay-gcc": {"duration_s": 0.004, "widths": [256], "intervals_ms": [REFRESH_MS]},
        "sweep-gcc": {"duration_s": 0.004, "widths": [128, 256], "intervals_ms": [2.0]},
    },
}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

PER_LAYER_UNITS = {
    "sim.run_self_s": "s",
    "engine.sm_steps_per_fault": "count",
    "engine.access_self_ns_per_call": "ns",
    "engine.sm_self_ns_per_fault": "ns",
    "engine.tlb_ns_per_call": "ns",
    "engine.tlb_hit_ratio": "ratio",
    "vm.walks_per_touch": "count",
    "vm.walk_ns_per_call": "ns",
    "vm.frame_alloc_ns_per_call": "ns",
    "prealloc.consume_hit_ratio": "ratio",
    "prealloc.consume_ns_per_call": "ns",
    "kernel.bg_useful_ratio": "ratio",
    "kernel.bg_record_ns_per_call": "ns",
    "kernel.inline_install_ns_per_call": "ns",
    "params.sample_ns_per_call": "ns",
    "kernel.terminate_ns_per_page": "ns",
    "trace.ingest_ns_per_line": "ns",
    "cli.self_ns_per_fault": "ns",
    "trace.apply_model_ns_per_fault": "ns",
    "trace.sweep_rss_mb_per_cell": "MB",
    "trace.synthesize_ns_per_fault": "ns",
    "trace.write_trace_ns_per_line": "ns",
    "bench.trace_overhead_s": "s",
    "sim.hit_rate": "ratio",
    "sim.sim_cycles": "cycles",
    "sim.background_processed": "count",
    "model.hit_rate": "ratio",
    "model.speedup": "ratio",
}

# Simulated outputs: exact counts from the model, not host measurements.
SIMULATED = {
    "sim.hit_rate",
    "sim.sim_cycles",
    "sim.background_processed",
    "model.hit_rate",
    "model.speedup",
}


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the values.

    As robust to a few outliers as the median, but it averages over
    more of the samples, so it moves less from run to run.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def count_rows(path: Path) -> int:
    """Data rows of a CSV file, header excluded."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


class Checks:
    """Output checks; each one counts as attempted, and failed if false."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


TIMES = ("setup_s", "wall_s", "core_s", "teardown_s")


class RepTimes:
    """One repetition's phases, each timed between calibration blocks.

    `times` holds the phases' seconds at the reference speed, `raw` the
    seconds as measured. In a traced repetition each phase is also the
    root span of the calls made in it.
    """

    def __init__(self, speed: HostSpeed, tracer: Optional[Tracer]):
        self.speed = speed
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.raw: dict[str, float] = {}
        self.scales: dict[str, float] = {}

    def run(self, key: str, step):
        def phase_step():
            if self.tracer is None:
                return step()
            with self.tracer.phase(f"bench.{key.removesuffix('_s')}"):
                return step()

        result, raw, scale = self.speed.time(phase_step)
        self.add(key, raw, scale)
        return result

    def add(self, key: str, raw: float, scale: float) -> None:
        self.raw[key] = raw
        self.scales[key] = scale
        self.times[key] = raw * scale

    def sample(self, **extra) -> dict:
        return {**self.times, "raw": self.raw, "scales": self.scales, **extra}


def quiet(fn, *args):
    """Call fn with stdout discarded (the CLI prints a summary)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class SimBench:
    """simulate through the CLI on a Simulation built during set-up.

    The CLI builds its own Simulation inside `sim.run`; the benchmark
    replaces `sim.run` with a hook that hands back the one built (and
    timed) in set-up, after checking the configs match. That separates
    set-up from the run and keeps the Simulation so that its process can
    be terminated afterwards, which the CLI never does.
    """

    def __init__(self, name: str, size: dict, seed: int, out_dir: Path, checks: Checks,
                 speed: HostSpeed):
        from mfoesim import cli, sim

        self.speed = speed
        self.cli = cli
        self.sim = sim
        self.size = size
        self.seed = seed
        self.out_dir = out_dir / "reports"
        self.checks = checks
        self.ops = size["threads"] * size["faults_per_thread"]
        self.faults_per_rep = self.ops
        self.setup_spans: list = []
        self._prepared = None
        self._core_s = 0.0
        sim.run = self._run_prepared

    def config(self):
        sim = self.sim
        return sim.SimConfig(
            workload=sim.WorkloadSpec(
                threads=self.size["threads"],
                faults_per_thread=self.size["faults_per_thread"],
                interarrival_cycles=INTERARRIVAL,
                region_pages_per_thread=self.size["region_pages"],
            ),
            table_width=TABLE_WIDTH,
            refresh_interval_ms=REFRESH_MS,
            seed=self.seed,
        )

    def argv(self) -> list[str]:
        argv = [
            "simulate",
            "--threads", str(self.size["threads"]),
            "--faults-per-thread", str(self.size["faults_per_thread"]),
            "--interarrival", str(INTERARRIVAL),
            "--table-width", str(TABLE_WIDTH),
            "--refresh-interval-ms", str(REFRESH_MS),
            "--seed", str(self.seed),
            "--out-dir", str(self.out_dir),
        ]
        if self.size["region_pages"] is not None:
            argv += ["--region-pages", str(self.size["region_pages"])]
        return argv

    def _run_prepared(self, config):
        prepared, self._prepared = self._prepared, None
        if prepared is None or config != prepared.config:
            raise RuntimeError("simulate asked for a configuration the benchmark did not set up")
        t0 = time.perf_counter()
        report = prepared.run()
        self._core_s = time.perf_counter() - t0
        return report

    def setup(self) -> list[float]:
        return []

    def rep(self, tracer: Optional[Tracer]) -> dict:
        check = self.checks.expect
        times = RepTimes(self.speed, tracer)
        simulation = times.run("setup_s", lambda: self.sim.Simulation(self.config()))
        self._prepared = simulation
        self._core_s = 0.0
        rc = times.run("main_s", lambda: quiet(self.cli.main, self.argv()))
        times.add("core_s", self._core_s, times.scales["main_s"])
        check(rc == 0, "simulate exits 0")
        check(self._core_s > 0, "Simulation.run was timed")

        kernel = simulation.kernel
        census = kernel.frame_census()
        check(
            census["outstanding"]
            == census["table_valid"] + census["table_storage"] + census["mapped"],
            f"frame census before terminate: {census}",
        )
        used = sum(t.used_count() for t in kernel.tables)
        check(
            len(kernel.ledger.rmap) + used == census["mapped"],
            f"ledger {len(kernel.ledger.rmap)} + used {used} != mapped {census['mapped']}",
        )
        touches = sum(s.touches for s in simulation.stats)
        check(touches == self.ops, f"touches {touches} != {self.ops}")
        digests = {
            name: sha256_file(self.out_dir / name) for name in ("report.json", "faults.csv")
        }
        report = json.loads((self.out_dir / "report.json").read_text(encoding="utf-8"))

        times.run("teardown_s", lambda: kernel.terminate(simulation.proc))
        after = kernel.frame_census()
        check(
            after["outstanding"] == after["table_storage"],
            f"frame census after terminate: {after}",
        )
        shutil.rmtree(self.out_dir)
        return times.sample(
            wall_s=times.times["main_s"] + times.times["teardown_s"],
            digests=digests,
            simulated={
                "sim.hit_rate": report["hit_rate"],
                "sim.sim_cycles": report["sim_cycles"],
                "sim.background_processed": report["background_processed"],
            },
        )


class ReplayBench:
    """model (one cell) or sweep (a grid) through the CLI on a trace file.

    Set-up writes the trace in child processes (make_trace.py). The
    benchmark times the replay itself by wrapping the call the command
    makes for it: `trace.apply_model` for model, `trace.sweep` for sweep,
    so the sweep's time is its elapsed time however it runs its cells.
    It also wraps `trace.ingest` to note the peak RSS once the trace is
    read. The replay has no simulated process to terminate; its teardown
    step collects the reference cycles the command leaves behind.
    """

    def __init__(self, name: str, size: dict, seed: int, out_dir: Path, checks: Checks,
                 speed: HostSpeed):
        from mfoesim import cli, trace

        self.speed = speed
        self.cli = cli
        self.size = size
        self.seed = seed
        self.work_dir = out_dir
        self.out_dir = out_dir / "reports"
        self.trace_path = out_dir / "trace.csv"
        self.checks = checks
        self.is_sweep = name == "sweep-gcc"
        self.cells = len(size["widths"]) * len(size["intervals_ms"])
        self.faults = 0
        self.ops = 0
        self.faults_per_rep = 0
        self.setup_spans: list = []
        self._core_s = 0.0
        self.rss_after_ingest_mb = 0.0
        core_name = "sweep" if self.is_sweep else "apply_model"
        core, ingest = getattr(trace, core_name), trace.ingest

        def timed_core(*args, **kwargs):
            t0 = time.perf_counter()
            result = core(*args, **kwargs)
            self._core_s += time.perf_counter() - t0
            return result

        def noted_ingest(*args, **kwargs):
            result = ingest(*args, **kwargs)
            self.rss_after_ingest_mb = peak_rss_mb()
            return result

        setattr(trace, core_name, timed_core)
        trace.ingest = noted_ingest

    def _make_trace(self, spans: Optional[Path]) -> dict:
        cmd = [
            sys.executable, str(BENCH_DIR / "make_trace.py"),
            "--out", str(self.trace_path),
            "--duration", repr(self.size["duration_s"]),
            "--cores", str(TRACE_CORES),
            "--seed", str(self.seed),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        self.checks.expect(proc.returncode == 0, f"make_trace exits 0: {proc.stderr[-500:]}")
        if proc.returncode != 0:
            raise RuntimeError(f"trace set-up failed: {proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self, traced: bool = False) -> list[float]:
        """Write the trace several times; the last copy is the one replayed.

        A traced run writes it once untraced and once traced instead.
        Each set-up process rescales its own time (see hostspeed.py).
        """
        runs = [self._make_trace(None) for _ in range(1 if traced else TRACE_SETUP_REPS)]
        if traced:
            traced_run = self._make_trace(self.work_dir / "setup_spans.csv")
            self.setup_spans = traced_run["spans"]
            runs.append(traced_run)
        self.faults = runs[0]["faults"]
        self.ops = self.faults * self.cells
        self.faults_per_rep = self.faults
        for other in runs[1:]:
            self.checks.expect(
                other["sha256"] == runs[0]["sha256"], "trace.csv identical across set-ups"
            )
        return [r["setup_s"] for r in runs if "spans" not in r]

    def argv(self) -> list[str]:
        common = ["--trace", str(self.trace_path), "--cores", str(TRACE_CORES),
                  "--out-dir", str(self.out_dir)]
        if self.is_sweep:
            return ["sweep", *common,
                    "--widths", ",".join(str(w) for w in self.size["widths"]),
                    "--intervals-ms", ",".join(repr(i) for i in self.size["intervals_ms"])]
        return ["model", *common,
                "--width", str(self.size["widths"][0]),
                "--refresh-interval-ms", repr(self.size["intervals_ms"][0])]

    def rep(self, tracer: Optional[Tracer]) -> dict:
        check = self.checks.expect
        times = RepTimes(self.speed, tracer)
        self._core_s = 0.0
        rc = times.run("main_s", lambda: quiet(self.cli.main, self.argv()))
        times.add("core_s", self._core_s, times.scales["main_s"])
        check(rc == 0, f"{'sweep' if self.is_sweep else 'model'} exits 0")
        check(self._core_s > 0, f"trace.{'sweep' if self.is_sweep else 'apply_model'} was timed")

        if self.is_sweep:
            names = ("sweep.csv",)
            grid = json.loads((self.out_dir / "sweep.json").read_text(encoding="utf-8"))
            reports = grid["cells"]
            rows = count_rows(self.out_dir / "sweep.csv")
            check(rows == self.cells, f"sweep.csv has {rows} rows, grid has {self.cells} cells")
        else:
            names = ("model_report.json", "timeline.csv")
            reports = [json.loads((self.out_dir / "model_report.json").read_text(encoding="utf-8"))]
            rows = count_rows(self.out_dir / "timeline.csv")
            check(rows == self.faults, f"timeline.csv has {rows} rows, trace {self.faults}")
        for r in reports:
            check(r["hits"] + r["misses"] == self.faults, f"hits + misses != {self.faults}")
            check(
                r["modeled_runtime_ns"]
                == r["baseline_runtime_ns"] - r["saved_ns"] + r["penalty_ns"],
                "modeled runtime != baseline - saved + penalty",
            )
        digests = {name: sha256_file(self.out_dir / name) for name in names}
        cell = next(
            r for r in reports
            if r["config"]["width"] == TABLE_WIDTH
            and r["config"]["refresh_interval_ms"] == REFRESH_MS
        )

        # The command leaves reference cycles (its argparse parsers) behind.
        times.run("teardown_s", gc.collect)
        shutil.rmtree(self.out_dir)
        return times.sample(
            wall_s=times.times["main_s"],
            digests=digests,
            simulated={"model.hit_rate": cell["hit_rate"], "model.speedup": cell["speedup"]},
        )


def install_spans(tracer) -> None:
    """Wrap the public calls of every layer the workloads reach."""
    from mfoesim import cli, engine, kernel, params, prealloc, sim, trace, vm

    not_none = lambda r: int(r is not None)  # noqa: E731
    wraps = [
        (cli, "main", "cli.main", None),
        (sim.Simulation, "run", "sim.Simulation.run", None),
        (engine.MfoeEngine, "access", "engine.MfoeEngine.access", None),
        (engine.Tlb, "lookup", "engine.Tlb.lookup", not_none),
        (engine.Tlb, "insert", "engine.Tlb.insert", None),
        (engine.PteFaultSm, "__init__", "engine.PteFaultSm.__init__", None),
        (engine.PteFaultSm, "run", "engine.PteFaultSm.run", None),
        (engine.PteFaultSm, "step", "engine.PteFaultSm.step", None),
        (vm.PageTable, "walk", "vm.PageTable.walk", None),
        (vm.PageTable, "construct_path", "vm.PageTable.construct_path", None),
        (vm.FrameAllocator, "allocate", "vm.FrameAllocator.allocate", None),
        (prealloc.PreallocTable, "consume", "prealloc.PreallocTable.consume", not_none),
        (kernel.KernelModel, "process_one_record", "kernel.process_one_record", not_none),
        (kernel.KernelModel, "inline_install", "kernel.inline_install", None),
        (kernel.KernelModel, "terminate", "kernel.terminate", int),
        (params.LatencySampler, "sample_int", "params.LatencySampler.sample_int", None),
        (trace, "ingest", "trace.ingest", len),
        (trace, "apply_model", "trace.apply_model", lambda r: r.hits + r.misses),
        (trace, "sweep", "trace.sweep", None),
    ]
    for owner, attr, name, outcome in wraps:
        tracer.wrap(owner, attr, name, outcome)


def merge(total: dict, part: dict) -> None:
    for key, agg in part.items():
        acc = total.setdefault(key, [0, 0, 0, 0])
        for i, v in enumerate(agg):
            acc[i] += v


def layer_metrics(spans: dict, setup_spans: dict, traced_reps: int, faults_per_rep: int) -> dict:
    """Per-layer metrics from span aggregates; 0 where a layer is not reached."""

    def get(name: str, phase: str = "bench.main") -> list[int]:
        return spans.get((phase, name), [0, 0, 0, 0])

    def div(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls, total, self_ns, outcome = 0, 1, 2, 3
    access = get("engine.MfoeEngine.access")
    sm_runs = get("engine.PteFaultSm.run")
    sm_steps = get("engine.PteFaultSm.step")
    sm_init = get("engine.PteFaultSm.__init__")
    lookup, insert = get("engine.Tlb.lookup"), get("engine.Tlb.insert")
    walk, construct = get("vm.PageTable.walk"), get("vm.PageTable.construct_path")
    alloc = get("vm.FrameAllocator.allocate")
    consume = get("prealloc.PreallocTable.consume")
    bg = get("kernel.process_one_record")
    inline = get("kernel.inline_install")
    sample = get("params.LatencySampler.sample_int")
    terminate = get("kernel.terminate", "bench.teardown")
    ingest = get("trace.ingest")
    apply_model = get("trace.apply_model")
    cli_main = get("cli.main")
    synth = setup_spans.get("trace.synthesize_profile", [0, 0, 0, 0])
    write = setup_spans.get("trace.write_trace", [0, 0, 0, 0])
    return {
        "sim.run_self_s": div(get("sim.Simulation.run")[self_ns], traced_reps) / 1e9,
        "engine.sm_steps_per_fault": div(sm_steps[calls], sm_runs[calls]),
        "engine.access_self_ns_per_call": div(access[self_ns], access[calls]),
        "engine.sm_self_ns_per_fault": div(
            sm_init[self_ns] + sm_runs[self_ns] + sm_steps[self_ns], sm_runs[calls]
        ),
        "engine.tlb_ns_per_call": div(lookup[total] + insert[total], lookup[calls] + insert[calls]),
        "engine.tlb_hit_ratio": div(lookup[outcome], lookup[calls]),
        "vm.walks_per_touch": div(walk[calls] + construct[calls], access[calls]),
        "vm.walk_ns_per_call": div(walk[total] + construct[total], walk[calls] + construct[calls]),
        "vm.frame_alloc_ns_per_call": div(alloc[total], alloc[calls]),
        "prealloc.consume_hit_ratio": div(consume[outcome], consume[calls]),
        "prealloc.consume_ns_per_call": div(consume[total], consume[calls]),
        "kernel.bg_useful_ratio": div(bg[outcome], bg[calls]),
        "kernel.bg_record_ns_per_call": div(bg[total], bg[calls]),
        "kernel.inline_install_ns_per_call": div(inline[total], inline[calls]),
        "params.sample_ns_per_call": div(sample[total], sample[calls]),
        "kernel.terminate_ns_per_page": div(terminate[total], terminate[outcome]),
        "trace.ingest_ns_per_line": div(ingest[total], ingest[outcome]),
        "cli.self_ns_per_fault": div(cli_main[self_ns], traced_reps * faults_per_rep),
        "trace.apply_model_ns_per_fault": div(apply_model[total], apply_model[outcome]),
        "trace.synthesize_ns_per_fault": div(synth[total], synth[outcome]),
        # write_trace writes the header line plus one line per fault.
        "trace.write_trace_ns_per_line": div(write[total], synth[outcome] + write[calls]),
    }


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
    }


def run_untraced(bench, seconds: float) -> tuple[dict, list[dict]]:
    setup_samples = bench.setup()
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(bench.rep(None))
    setup_samples = setup_samples or [r["setup_s"] for r in reps]
    metrics = {
        # A repetition whose core call went untimed has failed a check.
        "ops_per_s": iqm(bench.ops / r["core_s"] if r["core_s"] > 0 else 0.0 for r in reps),
        "wall_s": iqm(r["wall_s"] for r in reps),
        "setup_s": iqm(setup_samples),
        "teardown_s": iqm(r["teardown_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, reps


def run_traced(bench, seconds: float, spans_path: Path) -> tuple[dict, list[dict]]:
    if isinstance(bench, ReplayBench):
        bench.setup(traced=True)
    setup_spans: dict = {}
    for _, name, *agg in bench.setup_spans:
        setup_spans[name] = agg

    plain = [bench.rep(None)]
    # Only what the cells add: the trace is ingested once, not per cell.
    cell_rss_growth = (
        peak_rss_mb() - bench.rss_after_ingest_mb if isinstance(bench, ReplayBench) else 0.0
    )
    traced: list[dict] = []
    totals: dict = {}
    tracer = None
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(traced) == len(plain):
            plain.append(bench.rep(None))
            continue
        tracer = Tracer()
        install_spans(tracer)
        try:
            traced.append(bench.rep(tracer))
        finally:
            tracer.restore()
        # Rescale span times with the scale of the phase they ran in.
        scales = traced[-1]["scales"]
        summary = tracer.summary()
        for (phase, _), agg in summary.items():
            scale = scales[phase.removeprefix("bench.") + "_s"]
            agg[1] = round(agg[1] * scale)
            agg[2] = round(agg[2] * scale)
        merge(totals, summary)
    tracer.write(spans_path)

    metrics = layer_metrics(totals, setup_spans, len(traced), bench.faults_per_rep)
    metrics["trace.sweep_rss_mb_per_cell"] = (
        cell_rss_growth / bench.cells if isinstance(bench, ReplayBench) else 0.0
    )
    metrics["bench.trace_overhead_s"] = (
        iqm(r["wall_s"] for r in traced) - iqm(r["wall_s"] for r in plain)
    )
    simulated = {name: 0 for name in SIMULATED}
    simulated.update(plain[0]["simulated"])
    metrics.update(simulated)
    return metrics, plain + traced


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--out", default=str(ROOT / ".bench_out"), help="directory for run outputs")
    args = ap.parse_args(argv)

    if not (SRC / "mfoesim" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    size = SIZES[args.size][args.workload]
    work_dir = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    checks = Checks()
    speed = HostSpeed()
    kind = SimBench if args.workload in SIM_WORKLOADS else ReplayBench
    bench = kind(args.workload, size, args.seed, work_dir, checks, speed)
    # Objects that exist before the first repetition (modules, the
    # benchmark's own state) are never garbage; freezing them keeps the
    # collections the workload triggers, and the replay teardown's
    # gc.collect(), to the objects the workload itself creates.
    gc.collect()
    gc.freeze()

    if args.trace:
        values, reps = run_traced(bench, args.seconds, work_dir / "spans.csv")
        units = PER_LAYER_UNITS
    else:
        values, reps = run_untraced(bench, args.seconds)
        units = END_TO_END_UNITS

    first = reps[0]["digests"]
    for r in reps[1:]:
        checks.expect(r["digests"] == first, f"report digests differ between repetitions: {r['digests']}")
    error_rate = len(checks.failed) / checks.attempted
    # Printed and kept in the results file, but left out of the result
    # line that BENCHMARK.json bounds. teardown_s is KernelModel.terminate
    # on the sim workloads, where wall_s includes it; the replay has no
    # process to terminate, and the garbage it leaves takes a fraction of
    # a millisecond to collect, too little to measure steadily. error_rate
    # is 0 when all is well, and a bounded metric must never be 0, so
    # pass_rate carries it.
    unbounded = {}
    if not args.trace:
        values["pass_rate"] = 1.0 - error_rate
        unbounded = {
            "teardown_s": {"value": values["teardown_s"], "unit": "s"},
            "error_rate": {"value": error_rate, "unit": "ratio"},
        }

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    results = {
        "workload": args.workload,
        "size": {"name": args.size, **size},
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions": len(reps),
        "environment": environment(args.seed),
        "digests": first,
        "samples": {key: [r[key] for r in reps if key in r] for key in TIMES},
        "raw_samples": {key: [r["raw"][key] for r in reps if key in r["raw"]] for key in TIMES},
        "calibration": {
            "reference_loop_s": REFERENCE_LOOP_S,
            "loops_per_block": CALIBRATION_LOOPS,
            "block_mean_loop_s": speed.blocks,
            "scales": [r["scales"] for r in reps],
        },
        "checks": {"attempted": checks.attempted, "failed": checks.failed},
        "metrics": metrics,
        "unbounded_metrics": unbounded,
    }
    (work_dir / "results.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    for key, value in results["environment"].items():
        print(f"env {key}={value}")
    print(f"workload {args.workload} size={args.size} repetitions={len(reps)} "
          f"median host speed scale={statistics.median(r['scales']['main_s'] for r in reps)!r}")
    for name, digest in first.items():
        print(f"sha256 {name} {digest}")
    for name, m in metrics.items():
        label = " (simulated)" if name in SIMULATED else ""
        print(f"metric {name} = {m['value']!r} {m['unit']}{label}")
    for name, m in unbounded.items():
        print(f"metric {name} = {m['value']!r} {m['unit']} (not bounded)")
    print(f"checks attempted={checks.attempted} failed={len(checks.failed)}")
    for what in checks.failed:
        print(f"FAILED {what}")
    print(json.dumps({
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
