"""Command-line front end.

Subcommands: simulate, model, sweep, synthesize. Configuration comes
from the library's defaults, then an optional flat key=value config
file (--config, or the MFOESIM_CONFIG environment variable), then
command-line flags; later layers win. A flag that mirrors a library
setting has no default of its own: unset, it reads None and is not
passed on, so sim.WorkloadSpec, sim.SimConfig, trace.TraceModelConfig,
params.ModelParameters, trace.sweep and trace.synthesize fill it in.
Config keys are the running command's flag names without the leading
dashes; any other key is an error. Each command
accepts --params-<field> for exactly the model parameters its
computation reads: simulate for sim.SIM_PARAMETERS, model and sweep for
trace.MODEL_PARAMETERS, synthesize for none.

Reports are written to --out-dir and validated after writing; the exit
code is 0 only when the outputs parsed back cleanly.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
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
    for f in fields(ModelParameters):
        if f.name in names:
            parser.add_argument(
                _param_flag(f.name),
                dest="params_" + f.name,
                type=type(f.default),
                help=f"override model parameter {f.name} (default {f.default})",
            )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
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
    p_sim.add_argument("--seed", type=int, help="seed for the latency draws")
    p_sim.add_argument("--threads", type=int)
    p_sim.add_argument("--faults-per-thread", type=int)
    p_sim.add_argument("--interarrival", dest="interarrival_cycles", type=int,
                       help="compute cycles between touches on one thread")
    p_sim.add_argument("--region-pages", dest="region_pages_per_thread", type=int)
    p_sim.add_argument("--stride", dest="stride_pages", type=int)
    p_sim.add_argument("--cores", type=int)
    p_sim.add_argument("--tlb-entries", type=int)
    p_sim.add_argument("--table-width", type=int,
                       help="pre-allocation table slots per core, header included")
    p_sim.add_argument("--refresh-interval-ms", type=float)
    p_sim.add_argument("--total-frames", type=int)
    p_sim.add_argument("--quota-frames", type=int)
    p_sim.add_argument("--resource-threshold", type=float)

    p_model = sub.add_parser("model", help="replay a fault trace against a configuration")
    _add_common(p_model)
    _add_param_overrides(p_model, trace.MODEL_PARAMETERS)
    # not argparse-required so a config file can supply it
    p_model.add_argument("--trace", help="trace CSV path")
    p_model.add_argument("--width", type=int, help="pre-allocated frames per core")
    p_model.add_argument("--refresh-interval-ms", type=float)
    p_model.add_argument("--cores", type=int)

    p_sweep = sub.add_parser("sweep", help="replay a trace across a geometry grid")
    _add_common(p_sweep)
    _add_param_overrides(p_sweep, trace.MODEL_PARAMETERS)
    p_sweep.add_argument("--trace")
    p_sweep.add_argument("--widths", type=_csv_ints)
    p_sweep.add_argument("--intervals-ms", type=_csv_floats)
    p_sweep.add_argument("--cores", type=int)

    p_synth = sub.add_parser("synthesize", help="generate a synthetic fault trace")
    _add_common(p_synth)
    p_synth.add_argument("--seed", type=int, help="seed for the arrival and latency draws")
    p_synth.add_argument("--rate", type=float, help="faults per second per core")
    p_synth.add_argument("--duration", type=float, default=1.0, help="seconds")
    p_synth.add_argument("--dist", choices=("uniform", "poisson"),
                         help="arrival process (default: uniform with --rate, "
                              "poisson with --profile)")
    p_synth.add_argument("--cores", type=int)
    p_synth.add_argument("--latency-mean-ns", type=int)
    p_synth.add_argument("--latency-p95-ns", type=int)
    p_synth.add_argument("--profile", help="named workload profile (overrides rate/latency)")
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
    """Parse key=value lines into {dest: value}; a key is one of the
    subcommand's flag names without the leading dashes, "_" and "-" alike.

    A file cannot name another config file: it is read once, before the
    command line is parsed.
    """
    actions = {
        opt[2:].replace("-", "_"): a
        for a in subparser._actions if a.dest not in ("help", "config")
        for opt in a.option_strings
    }
    values: dict[str, object] = {}
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), 1):
        try:
            text = raw.decode()
        except UnicodeDecodeError:
            raise CliError(f"{path}:{line_no}: not UTF-8") from None
        line = text.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        action = actions.get(key.strip().replace("-", "_"))
        value = value.strip()
        if action is None:
            raise CliError(
                f"{path}:{line_no}: unknown config key {key.strip()!r} for {subparser.prog}"
            )
        conv = action.type or str
        try:
            values[action.dest] = conv(value)
        except (TypeError, ValueError) as exc:
            raise CliError(f"{path}:{line_no}: bad value for {key.strip()!r}: {exc}") from None
    return values


def _given(args: argparse.Namespace, names, prefix: str = "") -> dict[str, object]:
    """{name: value} for each of names whose flag, dest prefix + name, is
    set: a flag nobody set reads None, and the library's default applies."""
    return {n: v for n in names if (v := getattr(args, prefix + n, None)) is not None}


def _build_params(args: argparse.Namespace, names: tuple[str, ...]) -> ModelParameters:
    params = ModelParameters(**_given(args, names, "params_"))
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
    workload = sim.WorkloadSpec(**_given(args, (f.name for f in fields(sim.WorkloadSpec))))
    config = sim.SimConfig(
        workload=workload, params=params, **_given(args, (f.name for f in fields(sim.SimConfig)))
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
    path = _require_trace(args)
    config = trace.TraceModelConfig(**_given(args, (f.name for f in fields(trace.TraceModelConfig))))
    # a bad config is refused before the trace is read
    trace.checked_constants(config, params)
    fault_trace = trace.ingest(path)
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
    path = _require_trace(args)
    # every cell is checked before the trace is read
    trace.sweep_configs(args.widths, args.intervals_ms, params, args.cores)
    fault_trace = trace.ingest(path)
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
    # Unset, --dist, --cores and --seed take each generator's own defaults.
    given = _given(args, ("dist", "cores", "seed"))
    if args.profile is not None:
        fault_trace = trace.synthesize_profile(args.profile, args.duration, **given)
    else:
        if args.rate is None:
            raise CliError("either --rate or --profile is required")
        fault_trace = trace.synthesize(
            args.rate,
            args.duration,
            latency_mean_ns=args.latency_mean_ns,
            latency_p95_ns=args.latency_p95_ns,
            **given,
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
