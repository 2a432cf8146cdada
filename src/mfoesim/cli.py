"""Command-line front end.

Subcommands: simulate, model, sweep, synthesize. Configuration comes
from defaults, then an optional flat key=value config file (--config,
or the MFOESIM_CONFIG environment variable), then command-line flags;
later layers win. Config keys are the running command's flag names
without the leading dashes; any other key is an error. Each command
accepts --params-<field> for exactly the model parameters its
computation reads: simulate for sim.SIM_PARAMETERS, model and sweep for
trace.MODEL_PARAMETERS, synthesize for none.

Reports are written to --out-dir and validated after writing; the exit
code is 0 only when the outputs parsed back cleanly.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import sim, trace
from .params import ModelParameters
from .vm import OutOfMemory

CONFIG_ENV_VAR = "MFOESIM_CONFIG"

SIM_REPORT_KEYS = (
    "schema",
    "hit_rate",
    "mfoe_hits",
    "mfoe_misses",
    "critical_path_speedup",
    "per_core",
)
MODEL_REPORT_KEYS = ("schema", "hit_rate", "speedup", "modeled_runtime_ns")


class CliError(Exception):
    pass


def _param_flag(name: str) -> str:
    return "--params-" + name.replace("_", "-")


def _add_param_overrides(parser: argparse.ArgumentParser, names: tuple[str, ...]) -> None:
    for f in dataclasses.fields(ModelParameters):
        if f.name not in names:
            continue
        if f.type == "str" or isinstance(f.default, str):
            ftype = str
        elif isinstance(f.default, int) and not isinstance(f.default, bool):
            ftype = int
        else:
            ftype = float
        parser.add_argument(
            _param_flag(f.name),
            dest="params_" + f.name,
            type=ftype,
            default=None,
            help=f"override model parameter {f.name} (default {f.default})",
        )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--out-dir", default=".", help="directory for report files")


def _csv_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfoesim",
        description="Simulator and trace replay model for hardware-offloaded minor faults",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the event-driven simulator")
    _add_common(p_sim)
    _add_param_overrides(p_sim, sim.SIM_PARAMETERS)
    p_sim.add_argument("--seed", type=int, default=0, help="seed for the latency draws")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.add_argument("--faults-per-thread", type=int, default=32768)
    p_sim.add_argument("--interarrival", type=int, default=21000,
                       help="compute cycles between touches on one thread")
    p_sim.add_argument("--region-pages", type=int, default=None)
    p_sim.add_argument("--stride", type=int, default=1)
    p_sim.add_argument("--cores", type=int, default=None)
    p_sim.add_argument("--tlb-entries", type=int, default=64)
    p_sim.add_argument("--table-width", type=int, default=256,
                       help="pre-allocation table slots per core, header included")
    p_sim.add_argument("--refresh-interval-ms", type=float, default=2.0)
    p_sim.add_argument("--total-frames", type=int, default=1 << 20)
    p_sim.add_argument("--quota-frames", type=int, default=None)
    p_sim.add_argument("--resource-threshold", type=float, default=0.8)

    p_model = sub.add_parser("model", help="replay a fault trace against a configuration")
    _add_common(p_model)
    _add_param_overrides(p_model, trace.MODEL_PARAMETERS)
    # not argparse-required so a config file can supply it
    p_model.add_argument("--trace", default=None, help="trace CSV path")
    p_model.add_argument("--width", type=int, default=256,
                         help="pre-allocated frames per core")
    p_model.add_argument("--refresh-interval-ms", type=float, default=2.0)
    p_model.add_argument("--cores", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="replay a trace across a geometry grid")
    _add_common(p_sweep)
    _add_param_overrides(p_sweep, trace.MODEL_PARAMETERS)
    p_sweep.add_argument("--trace", default=None)
    p_sweep.add_argument("--widths", type=_csv_ints, default=list(trace.DEFAULT_WIDTHS))
    p_sweep.add_argument(
        "--intervals-ms", type=_csv_floats, default=list(trace.DEFAULT_INTERVALS_MS)
    )
    p_sweep.add_argument("--cores", type=int, default=None)

    p_synth = sub.add_parser("synthesize", help="generate a synthetic fault trace")
    _add_common(p_synth)
    p_synth.add_argument("--seed", type=int, default=0,
                         help="seed for the arrival and latency draws")
    p_synth.add_argument("--rate", type=float, default=None, help="faults per second per core")
    p_synth.add_argument("--duration", type=float, default=1.0, help="seconds")
    p_synth.add_argument("--dist", choices=("uniform", "poisson"), default=None,
                         help="arrival process (default: uniform with --rate, "
                              "poisson with --profile)")
    p_synth.add_argument("--cores", type=int, default=1)
    p_synth.add_argument("--latency-mean-ns", type=int, default=None)
    p_synth.add_argument("--latency-p95-ns", type=int, default=None)
    p_synth.add_argument("--profile", default=None,
                         help="named workload profile (overrides rate/latency)")
    p_synth.add_argument("--trace-out", default="trace.csv",
                         help="output file name under --out-dir")
    # argparse subparsers parse into a fresh namespace and copy the result
    # over the parent's, so config defaults must land on the subparser
    parser.subcommand_parsers = {
        "simulate": p_sim,
        "model": p_model,
        "sweep": p_sweep,
        "synthesize": p_synth,
    }
    return parser


def load_config_file(path: str, subparser: argparse.ArgumentParser) -> dict[str, object]:
    """Parse key=value lines; keys mirror the subcommand's flag names one-to-one.

    A file cannot name another config file: it is read once, before the
    command line is parsed.
    """
    dests = {
        a.dest: a.type or str for a in subparser._actions if a.dest not in ("help", "config")
    }
    values: dict[str, object] = {}
    text = Path(path).read_text(encoding="utf-8")
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        if dest not in dests:
            raise CliError(
                f"{path}:{line_no}: unknown config key {key.strip()!r} for {subparser.prog}"
            )
        conv = dests[dest]
        try:
            values[dest] = conv(value)
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path}:{line_no}: bad value for {key.strip()!r}: {exc}") from None
    return values


def _build_params(args: argparse.Namespace, names: tuple[str, ...]) -> ModelParameters:
    overrides = {}
    for name in names:
        val = getattr(args, "params_" + name)
        if val is not None:
            overrides[name] = val
    params = ModelParameters(**overrides) if overrides else ModelParameters()
    params.validate()
    return params


def _write_reports(
    json_path: Path, doc: str, keys, csv_path: Path, blocks, header: str, rows: int
) -> None:
    """Write a command's JSON report and its CSV from text blocks, then
    read both back: the JSON must be strict (no NaN or Infinity) and hold
    keys, the CSV must hold header and rows rows."""
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(doc, encoding="utf-8")
    trace.write_blocks(csv_path, blocks)

    def refuse(constant: str):
        raise CliError(f"{json_path}: {constant} is not JSON")

    report = json.loads(json_path.read_text(encoding="utf-8"), parse_constant=refuse)
    missing = [k for k in keys if k not in report]
    if missing:
        raise CliError(f"{json_path}: report missing keys {missing}")
    _validate_csv(csv_path, header, rows)


# Bytes per read when counting a written CSV's rows. Each read is one
# bytes object: on the 3.6 MB timeline.csv of a 73k-fault trace, 1 MiB
# reads raised peak RSS by 1.9 MB, and 64 KiB reads by nothing measurable.
_VALIDATE_READ_BYTES = 1 << 16


def _validate_csv(path: Path, header: str, expect_rows: int) -> None:
    with open(path, "rb") as fh:
        first = fh.readline().rstrip(b"\n")
        if first != header.encode("utf-8"):
            raise CliError(f"{path}: expected header {header!r}")
        # every row the writers emit ends in a newline
        reads = iter(lambda: fh.read(_VALIDATE_READ_BYTES), b"")
        count = sum(block.count(b"\n") for block in reads)
        if count != expect_rows:
            raise CliError(f"{path}: expected {expect_rows} rows, found {count}")


def cmd_simulate(args: argparse.Namespace) -> int:
    params = _build_params(args, sim.SIM_PARAMETERS)
    workload = sim.WorkloadSpec(
        threads=args.threads,
        faults_per_thread=args.faults_per_thread,
        interarrival_cycles=args.interarrival,
        region_pages_per_thread=args.region_pages,
        stride_pages=args.stride,
    )
    config = sim.SimConfig(
        workload=workload,
        params=params,
        cores=args.cores,
        tlb_entries=args.tlb_entries,
        table_width=args.table_width,
        refresh_interval_ms=args.refresh_interval_ms,
        total_frames=args.total_frames,
        seed=args.seed,
        quota_frames=args.quota_frames,
        resource_threshold=args.resource_threshold,
    )
    report = sim.run(config)

    out = Path(args.out_dir)
    json_path = out / "report.json"
    csv_path = out / "faults.csv"
    _write_reports(json_path, report.to_json(), SIM_REPORT_KEYS,
                   csv_path, report.records.csv_blocks(), sim.FAULTS_HEADER, len(report.records))

    print(f"threads={workload.threads} faults={report.mfoe_hits + report.mfoe_misses + report.kernel_faults}")
    print(f"hit_rate={report.hit_rate:.4f}")
    print(f"mean_hit_cycles={report.mean_hit_cycles:.2f}")
    print(f"critical_path_speedup={report.critical_path_speedup:.2f}")
    print(f"report={json_path}")
    return 0


def _require_trace(args: argparse.Namespace) -> str:
    if not args.trace:
        raise CliError("--trace is required (flag or config key)")
    return args.trace


def cmd_model(args: argparse.Namespace) -> int:
    params = _build_params(args, trace.MODEL_PARAMETERS)
    fault_trace = trace.ingest(_require_trace(args))
    config = trace.TraceModelConfig(
        width=args.width, refresh_interval_ms=args.refresh_interval_ms, cores=args.cores
    )
    report = trace.apply_model(fault_trace, config, params)

    out = Path(args.out_dir)
    json_path = out / "model_report.json"
    csv_path = out / "timeline.csv"
    _write_reports(json_path, report.to_json(), MODEL_REPORT_KEYS,
                   csv_path, report.timeline.csv_blocks(), trace.TIMELINE_HEADER,
                   len(report.timeline))

    print(f"faults={report.hits + report.misses}")
    print(f"hit_rate={report.hit_rate:.4f}")
    print(f"residual_overhead_pct={100.0 * report.residual_overhead_fraction:.2f}")
    print(f"speedup={report.speedup:.4f}")
    print(f"report={json_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    params = _build_params(args, trace.MODEL_PARAMETERS)
    fault_trace = trace.ingest(_require_trace(args))
    grid = trace.sweep(fault_trace, args.widths, args.intervals_ms, params, args.cores)

    out = Path(args.out_dir)
    json_path = out / "sweep.json"
    csv_path = out / "sweep.csv"
    _write_reports(json_path, grid.to_json(), ("schema", "cells"),
                   csv_path, grid.csv_blocks(), trace.SWEEP_HEADER, len(grid.cells))

    print(f"cells={len(grid.cells)}")
    print(f"csv={csv_path}")
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    # Without --dist, each generator's own default arrival process applies.
    dist = {} if args.dist is None else {"dist": args.dist}
    if args.profile is not None:
        fault_trace = trace.synthesize_profile(
            args.profile,
            duration_s=args.duration,
            cores=args.cores,
            seed=args.seed,
            **dist,
        )
    else:
        if args.rate is None:
            raise CliError("either --rate or --profile is required")
        fault_trace = trace.synthesize(
            args.rate,
            args.duration,
            cores=args.cores,
            latency_mean_ns=args.latency_mean_ns,
            latency_p95_ns=args.latency_p95_ns,
            seed=args.seed,
            **dist,
        )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / args.trace_out
    trace.write_trace(fault_trace, str(trace_path))
    _validate_csv(trace_path, trace.TRACE_HEADER, len(fault_trace))

    print(f"events={len(fault_trace)}")
    print(f"trace={trace_path}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "model": cmd_model,
    "sweep": cmd_sweep,
    "synthesize": cmd_synthesize,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
    try:
        if config_path:
            subparser = parser.subcommand_parsers[args.command]
            subparser.set_defaults(**load_config_file(config_path, subparser))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError, OutOfMemory) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
