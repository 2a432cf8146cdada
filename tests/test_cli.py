"""End-to-end checks of the command-line front end.

Everything goes through main(argv) so the tests exercise the same parse,
config-layering, and report-validation path a shell invocation gets.
"""
import hashlib
import json

import pytest

from mfoesim.cli import CONFIG_ENV_VAR, main


def run_cli(*argv):
    return main(list(argv))


def simulate_args(out_dir, *extra):
    return (
        "simulate",
        "--threads", "1",
        "--faults-per-thread", "200",
        "--interarrival", "900",
        "--table-width", "64",
        "--out-dir", str(out_dir),
        *extra,
    )


def test_simulate_writes_validated_reports(tmp_path, capsys):
    assert run_cli(*simulate_args(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "hit_rate=" in captured.out
    assert "critical_path_speedup=" in captured.out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["schema"] == "mfoesim.simreport/1"
    assert doc["mfoe_hits"] + doc["mfoe_misses"] + doc["kernel_faults"] == 200
    lines = (tmp_path / "faults.csv").read_text().splitlines()
    assert lines[0] == "timestamp_cycles,core,outcome,latency_cycles"
    assert len(lines) == 201


def test_simulate_rejects_bad_geometry(tmp_path, capsys):
    assert run_cli(*simulate_args(tmp_path, "--table-width", "0")) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_frame_exhaustion_is_a_clean_error(tmp_path, capsys):
    assert run_cli(
        "simulate", "--threads", "2", "--faults-per-thread", "3000",
        "--total-frames", "4000", "--out-dir", str(tmp_path),
    ) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_synthesize_then_model_pipeline(tmp_path):
    assert run_cli(
        "synthesize", "--rate", "20000", "--duration", "0.05",
        "--seed", "3", "--out-dir", str(tmp_path),
    ) == 0
    trace_path = tmp_path / "trace.csv"
    assert trace_path.exists()

    assert run_cli(
        "model", "--trace", str(trace_path), "--width", "256",
        "--out-dir", str(tmp_path),
    ) == 0
    doc = json.loads((tmp_path / "model_report.json").read_text())
    assert doc["schema"] == "mfoesim.modelreport/1"
    assert doc["faults"] == 1000
    assert doc["speedup"] > 0
    timeline = (tmp_path / "timeline.csv").read_text().splitlines()
    assert len(timeline) == 1001


def test_model_without_trace_fails(tmp_path, capsys):
    assert run_cli("model", "--out-dir", str(tmp_path)) == 2
    assert "--trace is required" in capsys.readouterr().err


def test_model_missing_trace_file(tmp_path, capsys):
    assert run_cli("model", "--trace", str(tmp_path / "nope.csv")) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_grid_shape(tmp_path):
    assert run_cli(
        "synthesize", "--rate", "10000", "--duration", "0.02",
        "--out-dir", str(tmp_path),
    ) == 0
    assert run_cli(
        "sweep", "--trace", str(tmp_path / "trace.csv"),
        "--widths", "128,256", "--intervals-ms", "1,2",
        "--out-dir", str(tmp_path),
    ) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "width,interval_ms,hit_rate,overhead_pct,speedup"
    assert len(rows) == 5
    assert [r.split(",")[0] for r in rows[1:]] == ["128", "128", "256", "256"]
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["schema"] == "mfoesim.sweepgrid/1"


def test_replay_report_digests_are_pinned(tmp_path):
    # model and sweep on one 4-core gcc trace; a rewrite of the replay
    # loop must leave every report byte-identical
    trace_path = str(tmp_path / "trace.csv")
    assert run_cli(
        "synthesize", "--profile", "gcc", "--dist", "poisson", "--cores", "4",
        "--duration", "0.01", "--seed", "7", "--out-dir", str(tmp_path),
    ) == 0
    assert run_cli(
        "model", "--trace", trace_path, "--width", "64",
        "--refresh-interval-ms", "0.5", "--out-dir", str(tmp_path),
    ) == 0
    assert run_cli(
        "sweep", "--trace", trace_path, "--widths", "32,64,256",
        "--intervals-ms", "0.5,2", "--out-dir", str(tmp_path),
    ) == 0

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert len((tmp_path / "timeline.csv").read_text().splitlines()) == 14_675
    assert digest("timeline.csv") == (
        "ba1e740ce757b5bb84239e70b3d26cf79bd2487c0f3ee5e5354a6a4db02ae593")
    assert digest("model_report.json") == (
        "e2719732d42a8519ca41279495471ded02bed73f1cd793f9afbc053667d522c5")
    assert digest("sweep.csv") == (
        "becc2faa37e947e54e154fa7b65b6b23f30ddd25e17d891c71d7c9caa7560b01")
    assert digest("sweep.json") == (
        "61a6fc741902e2b2b4e53408b2d89083bf18150a30a7b2a74a55f303c86556b9")


def test_same_seed_gives_identical_trace_bytes(tmp_path):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    base = ("synthesize", "--rate", "50000", "--duration", "0.02",
            "--dist", "poisson")
    assert run_cli(*base, "--seed", "7", "--out-dir", str(out_a)) == 0
    assert run_cli(*base, "--seed", "7", "--out-dir", str(out_b)) == 0
    assert run_cli(*base, "--seed", "8", "--out-dir", str(out_c)) == 0
    bytes_a = (out_a / "trace.csv").read_bytes()
    assert bytes_a == (out_b / "trace.csv").read_bytes()
    assert bytes_a != (out_c / "trace.csv").read_bytes()


def test_synthesize_needs_rate_or_profile(tmp_path, capsys):
    assert run_cli("synthesize", "--out-dir", str(tmp_path)) == 2
    assert "--rate or --profile" in capsys.readouterr().err


def test_synthesize_rejects_zero_rate(tmp_path, capsys):
    assert run_cli(
        "synthesize", "--rate", "0", "--out-dir", str(tmp_path)
    ) == 2
    assert "rate" in capsys.readouterr().err


def test_profile_flag_drives_synthesis(tmp_path, capsys):
    assert run_cli(
        "synthesize", "--profile", "memcached", "--duration", "0.01",
        "--out-dir", str(tmp_path),
    ) == 0
    assert "events=" in capsys.readouterr().out
    rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(rows) > 1000  # ~120k faults/s for 10 ms


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("table-width=32  # narrow table\nfaults-per-thread=100\n")
    assert run_cli(
        "simulate", "--interarrival", "900",
        "--config", str(cfg), "--out-dir", str(tmp_path),
    ) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["table_width"] == 32
    assert doc["mfoe_hits"] + doc["mfoe_misses"] + doc["kernel_faults"] == 100


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("table-width=32\n")
    assert run_cli(
        *simulate_args(tmp_path, "--config", str(cfg), "--table-width", "16")
    ) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["table_width"] == 16


def test_env_var_points_at_config(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("table_width=32\n")  # underscores work too
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    assert run_cli(
        "simulate", "--threads", "1", "--faults-per-thread", "50",
        "--interarrival", "900", "--out-dir", str(tmp_path),
    ) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["table_width"] == 32


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus-knob=1\n")
    assert run_cli(*simulate_args(tmp_path, "--config", str(cfg))) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_removed_redundant_accesses_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("redundant_accesses=0\n")
    assert run_cli(*simulate_args(tmp_path, "--config", str(cfg))) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_line_without_equals_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tablewidth 32\n")
    assert run_cli(*simulate_args(tmp_path, "--config", str(cfg))) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_param_override_changes_model(tmp_path):
    # with only 32 widely spaced faults everything hits, so the mean hit
    # cost is exactly the overridden parameter
    assert run_cli(
        "simulate", "--threads", "1", "--faults-per-thread", "32",
        "--interarrival", "200000", "--table-width", "64",
        "--params-mfoe-hit-cycles", "100",
        "--out-dir", str(tmp_path),
    ) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["hit_rate"] == 1.0
    assert doc["mean_hit_cycles"] == 100.0


def test_invalid_param_override_rejected(tmp_path, capsys):
    assert run_cli(
        *simulate_args(tmp_path, "--params-mfoe-hit-cycles", "0")
    ) == 2
    assert "error:" in capsys.readouterr().err
