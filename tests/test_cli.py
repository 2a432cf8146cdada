"""End-to-end checks of the command-line front end.

Everything goes through main(argv) so the tests exercise the same parse,
config-layering, and report-validation path a shell invocation gets.
"""
import dataclasses
import hashlib
import json
import math
import random

import pytest
from helpers import unlisted

from mfoesim import sim, trace
from mfoesim.cli import CONFIG_ENV_VAR, build_parser, main
from mfoesim.params import LatencySampler, ModelParameters


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


@pytest.mark.parametrize(
    "bad",
    [f"{10**20},0,5", f"1000,{10**20},5", f"1000,0,{10**20}", f"{-(1 << 63) - 1},0,5"],
    ids=["timestamp", "core", "latency", "timestamp-below"],
)
def test_field_outside_64_bits_is_a_clean_error(tmp_path, capsys, bad):
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n500,0,5\n{bad}\n")
    for command in ("model", "sweep"):
        assert run_cli(command, "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace_path}:3: field outside signed 64 bits"), err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "body,line_no",
    [(b"# h\xf4te\n{header}\n500,0,5\n", 1), (b"{header}\n500,0,5\n600,0,\xe95\n", 3)],
    ids=["header", "data"],
)
def test_non_utf8_trace_is_a_clean_error(tmp_path, capsys, body, line_no):
    trace_path = tmp_path / "t.csv"
    trace_path.write_bytes(body.replace(b"{header}", trace.TRACE_HEADER.encode()))
    for command in ("model", "sweep"):
        assert run_cli(command, "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {trace_path}:{line_no}: not UTF-8\n"


def test_too_many_cores_is_a_clean_error(tmp_path, capsys, monkeypatch):
    ingest = trace.ingest
    monkeypatch.setattr(trace, "ingest", lambda path: unlisted(ingest(path)))
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n500,0,5\n600,100000,5\n")
    for command in ("model", "sweep"):
        argv = (command, "--trace", str(trace_path), "--cores", "4", "--out-dir", str(tmp_path))
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            "error: trace uses 100001 cores, model configured for 4\n"
        )


@pytest.mark.parametrize(
    "rows, extra, message",
    [
        ("500,0,5\n600,1024,5\n", (), "trace uses 1025 cores, more than the 1024 a replay models"),
        ("500,0,5\n", ("--cores", "1025"), "cores must be at most 1024, got 1025"),
    ],
    ids=["core-id", "cores-flag"],
)
def test_core_count_above_the_cap_is_a_clean_error(tmp_path, capsys, monkeypatch, rows, extra,
                                                   message):
    assert trace.MAX_CORES == 1024
    ingest = trace.ingest
    monkeypatch.setattr(trace, "ingest", lambda path: unlisted(ingest(path)))
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n{rows}")
    for command in ("model", "sweep"):
        argv = (command, "--trace", str(trace_path), *extra, "--out-dir", str(tmp_path))
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, rows, message", [
    (("model", "--cores", "0"), "500,0,5\n", "cores must be positive"),
    (("model", "--cores", "-3"), "500,0,5\n", "cores must be positive"),
    (("sweep", "--cores", "0"), "500,0,5\n", "cores must be positive"),
    (("sweep", "--cores", "-3"), "500,0,5\n", "cores must be positive"),
    (("model", "--cores", "-3", "--width", "0"), "500,0,5\n", "width must be positive"),
    (("sweep", "--cores", "-3", "--widths", "0"), "500,0,5\n", "width must be positive"),
    (("model", "--cores", "2", "--refresh-interval-ms", "1e300"), "500,0,5\n600,3,5\n",
     "refresh interval out of range: 1e+306 ns does not fit in signed 64 bits"),
    (("sweep", "--cores", "2", "--intervals-ms", "1e300"), "500,0,5\n600,3,5\n",
     "refresh interval out of range: 1e+306 ns does not fit in signed 64 bits"),
], ids=["model-0", "model-neg", "sweep-0", "sweep-neg", "model-width", "sweep-width",
        "model-interval", "sweep-interval"])
def test_config_error_comes_before_a_trace_mismatch(tmp_path, capsys, argv, rows, message):
    # each config is wrong on its own and too narrow for the trace; the
    # config's own error is the one reported
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n{rows}")
    assert run_cli(*argv, "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("model", "--cores", "0"), "cores must be positive"),
    (("sweep", "--cores", "0"), "cores must be positive"),
    (("model", "--width", "0"), "width must be positive"),
    (("sweep", "--widths", "256,0"), "width must be positive"),
    (("model", "--refresh-interval-ms", "1e300"),
     "refresh interval out of range: 1e+306 ns does not fit in signed 64 bits"),
    (("sweep", "--intervals-ms", "2,1e300"),
     "refresh interval out of range: 1e+306 ns does not fit in signed 64 bits"),
    (("sweep", "--intervals-ms", "2,1e-7"),
     "refresh interval out of range: 0.1 ns between ticks rounds to 0"),
], ids=["model-cores", "sweep-cores", "model-width", "sweep-width", "model-interval",
        "sweep-interval", "sweep-sub-ns-interval"])
@pytest.mark.parametrize("rows", [None, "500,0,x\n", "500,0,5\n"],
                         ids=["missing", "malformed", "valid"])
def test_config_error_comes_before_the_trace_is_read(tmp_path, capsys, monkeypatch, argv,
                                                     message, rows):
    # the settings are checked first: a missing or malformed trace file
    # is never opened, and no sweep cell is replayed before a bad one
    # is refused
    calls = []
    monkeypatch.setattr(trace, "ingest", lambda path: calls.append("ingest"))
    monkeypatch.setattr(trace, "_replay", lambda *args, **kwargs: calls.append("replay"))
    trace_path = tmp_path / "t.csv"
    if rows is not None:
        trace_path.write_text(f"{trace.TRACE_HEADER}\n{rows}")
    assert run_cli(*argv, "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


def test_timeline_value_outside_64_bits_is_a_clean_error(tmp_path, capsys):
    # both fields fit, but the miss penalty pushes the adjusted time and
    # the modeled latency past 2**63 - 1
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n0,0,100\n9223372036854775807,0,5\n")
    assert run_cli("model", "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: timeline value 92233720368547758"), err
    assert err.rstrip().endswith("is outside signed 64 bits"), err


def test_infinite_speedup_is_written_as_null(tmp_path):
    # both faults hit and overlap, so the modeled runtime is below 0 and
    # the speedup infinite; JSON has no Infinity, so the reports hold null
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n1000000,0,5000000\n1000010,0,5000000\n")

    def strict(name):
        def refuse(constant):
            raise AssertionError(f"{name} holds {constant}")
        return json.loads((tmp_path / name).read_text(), parse_constant=refuse)

    assert run_cli("model", "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 0
    report = strict("model_report.json")
    assert report["modeled_runtime_ns"] < 0 and report["speedup"] is None
    assert run_cli("sweep", "--trace", str(trace_path), "--widths", "4", "--intervals-ms", "2",
                   "--out-dir", str(tmp_path)) == 0
    assert [cell["speedup"] for cell in strict("sweep.json")["cells"]] == [None]
    assert (tmp_path / "sweep.csv").read_text().splitlines()[1].endswith(",inf")


def test_report_read_back_refuses_non_json_constants(tmp_path, capsys, monkeypatch):
    # a report that still held NaN or Infinity would fail its read-back
    monkeypatch.setattr(trace.ModelReport, "to_json", lambda self: json.dumps(
        {"schema": "s", "hit_rate": 1.0, "speedup": math.inf, "modeled_runtime_ns": 0}))
    trace_path = tmp_path / "t.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n1000000,0,5000000\n1000010,0,5000000\n")
    assert run_cli("model", "--trace", str(trace_path), "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'model_report.json'}: Infinity is not JSON\n")


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


def test_long_streak_report_digests_are_pinned(tmp_path):
    # the same 4-core gcc trace against wide pools and long intervals, so
    # cores serve hits in streaks of hundreds between recounts
    trace_path = str(tmp_path / "trace.csv")
    assert run_cli(
        "synthesize", "--profile", "gcc", "--dist", "poisson", "--cores", "4",
        "--duration", "0.01", "--seed", "7", "--out-dir", str(tmp_path),
    ) == 0
    assert run_cli(
        "sweep", "--trace", trace_path, "--widths", "512,1024",
        "--intervals-ms", "2,8", "--out-dir", str(tmp_path),
    ) == 0
    assert run_cli(
        "model", "--trace", trace_path, "--width", "1024",
        "--refresh-interval-ms", "8", "--out-dir", str(tmp_path),
    ) == 0
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("model_report.json", "timeline.csv", "sweep.csv", "sweep.json")
    } == {
        "model_report.json": "6563c9284abd1bea3c4d3153223759ef959bcc812105b34c7cd2ec8d476ee760",
        "timeline.csv": "afb681886fc1ba61eee405c48ba30cfb54f31700bdc64f351b1615c389471636",
        "sweep.csv": "f228c50643fe099b1ea6e96f10ac0e3dc3d6eca543965863748603239882ab6d",
        "sweep.json": "9ab4fe1626941283753ba52fa95e3cf7c2f4d35206e5e2a2d0b5e5ea9c6869f0",
    }


@pytest.mark.parametrize("extra, digests", [
    ((), {
        "model_report.json": "2cb5dfc51cdb92938fadb0a657299ad907fc10b507cab0a7b4a182bd68dd2cf4",
        "timeline.csv": "c4ee738a6627c7413886ee1ee42c8ff4afdbbbfdbfe177336342c630cd734581",
        "sweep.json": "7e7c2329abe51801b9960369b09dd405bc8e67dae8e7e991627e8c04bdbd1c2a",
        "sweep.csv": "ac04a4306baebe5088d779421926dc3fbed1434368ec9d40488c48a52baca81c",
    }),
    (("--cores", "3"), {
        "model_report.json": "08ffa99c45c42c2318999beaeb01db9c5fb7516d5f8224223265e5709e623bb0",
        "timeline.csv": "c4ee738a6627c7413886ee1ee42c8ff4afdbbbfdbfe177336342c630cd734581",
        "sweep.json": "60ba2e800a17dcbfc00a22e571cbb88ed45e81a5327dec0291b77a00266a0301",
        "sweep.csv": "ac04a4306baebe5088d779421926dc3fbed1434368ec9d40488c48a52baca81c",
    }),
], ids=["default", "cores-3"])
def test_empty_trace_report_digests_are_pinned(tmp_path, extra, digests):
    # a header-only trace: no faults, speedup 1.0, a header-only timeline
    trace_path = tmp_path / "empty.csv"
    trace_path.write_text(trace.TRACE_HEADER + "\n")
    for command in ("model", "sweep"):
        assert run_cli(command, "--trace", str(trace_path), *extra,
                       "--out-dir", str(tmp_path)) == 0
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests
    } == digests


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


@pytest.mark.parametrize("argv,generate", [
    (("--profile", "gcc"),
     lambda: trace.synthesize_profile("gcc", 0.002, cores=2, seed=7)),
    (("--rate", "50000"),
     lambda: trace.synthesize(50000, 0.002, cores=2, seed=7)),
], ids=["profile", "rate"])
def test_synthesize_without_dist_uses_the_library_default(tmp_path, argv, generate):
    # --profile gives Poisson arrivals and --rate uniform ones, as documented
    assert run_cli("synthesize", *argv, "--cores", "2", "--duration", "0.002",
                   "--seed", "7", "--out-dir", str(tmp_path / "cli")) == 0
    expected = tmp_path / "lib.csv"
    trace.write_trace(generate(), str(expected))
    assert (tmp_path / "cli" / "trace.csv").read_bytes() == expected.read_bytes()


def test_synthesize_without_duration_uses_the_library_default(tmp_path):
    # unset, --duration is the generators' own default of 1 s
    for name, extra in (("unset", ()), ("given", ("--duration", "1"))):
        assert run_cli("synthesize", "--rate", "1000", *extra,
                       "--out-dir", str(tmp_path / name)) == 0
    unset, given = ((tmp_path / name / "trace.csv").read_bytes() for name in ("unset", "given"))
    assert unset == given


@pytest.mark.parametrize("argv, message", [
    (("--rate", "1000", "--cores", "5000"), "cores must be at most 1024, got 5000"),
    (("--rate", "1e300", "--duration", "1", "--dist", "uniform"),
     "rate x duration x cores is 1e+300 faults, more than the 40000000 synthesize writes"),
    (("--profile", "gcc", "--duration", "100", "--cores", "2"),
     "rate x duration x cores is 7.3062e+07 faults, more than the 40000000 synthesize writes"),
    (("--rate", "3e9", "--duration", "0.001", "--dist", "uniform"),
     "rate out of range: 0.333 ns between faults rounds to 0"),
    (("--rate", "3e9", "--duration", "0.001", "--dist", "poisson"),
     "rate out of range: 0.333 ns between faults rounds to 0"),
], ids=["cores", "rate", "profile-duration", "uniform-spacing", "poisson-spacing"])
def test_synthesize_caps_are_checked_before_any_draw(tmp_path, capsys, monkeypatch, argv, message):
    # a trace with more cores than a replay models, or a fault count that
    # would run for hours, is refused before a single latency is drawn
    def no_draw(*args):
        raise AssertionError("a latency was drawn before the cap was checked")

    monkeypatch.setattr(LatencySampler, "drawer", no_draw)
    assert run_cli("synthesize", *argv, "--out-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "trace.csv").exists()


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


def test_config_file_skips_blank_and_comment_only_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a narrow table\n\n   \ntable-width=32\n  # end of file\n")
    assert run_cli(
        "simulate", "--faults-per-thread", "50", "--interarrival", "900",
        "--config", str(cfg), "--out-dir", str(tmp_path),
    ) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["table_width"] == 32


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


REMOVED_CONFIG_KEYS = [
    ("simulate", "redundant_accesses=0"),
    ("simulate", "numa-nodes=2"),
    ("simulate", "params-sw-emulation-mean-ns=900"),
    # names a file that would never be read
    ("simulate", "config=nonexistent.cfg"),
    # nothing in the replay draws a random number
    ("model", "seed=1"),
]


@pytest.mark.parametrize(
    "command, line", REMOVED_CONFIG_KEYS, ids=[line for _, line in REMOVED_CONFIG_KEYS]
)
def test_removed_config_key_rejected(tmp_path, capsys, command, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    if command == "simulate":
        argv = simulate_args(tmp_path, "--config", str(cfg))
    else:
        trace_path = tmp_path / "tiny.csv"
        trace_path.write_text(f"{trace.TRACE_HEADER}\n0,0,900\n")
        argv = (command, "--trace", str(trace_path), "--config", str(cfg),
                "--out-dir", str(tmp_path))
    assert run_cli(*argv) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("line, key", [
    # a params key only simulate accepts, and a simulate-only setting
    ("params-baseline-fault-mean-cycles=3000", "params-baseline-fault-mean-cycles"),
    ("table-width=16", "table-width"),
])
def test_config_key_of_another_command_rejected(tmp_path, capsys, monkeypatch, via, line, key):
    trace_path = tmp_path / "tiny.csv"
    trace_path.write_text("timestamp_ns,core,latency_ns\n0,0,900\n5000,0,800\n")
    cfg = tmp_path / "model.cfg"
    cfg.write_text(line + "\n")
    argv = ["model", "--trace", str(trace_path), "--out-dir", str(tmp_path)]
    if via == "flag":
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}:1: unknown config key {key!r} for mfoesim model\n"
    assert not (tmp_path / "model_report.json").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--numa-nodes", "2"),
    ("synthesize", "--params-clock-hz", "1"),
    ("model", "--seed", "1"),
    ("sweep", "--seed", "1"),
], ids=lambda argv: argv[0] + argv[1])
def test_removed_flag_is_a_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out-dir", str(tmp_path))
    assert exc.value.code == 2


_HUGE = "1" + "0" * 400

BAD_VALUES = [
    # (command and its required arguments, flag, value, expected in the message)
    (("model", "--trace", "{trace}"), "--refresh-interval-ms", "inf", "refresh interval"),
    (("model", "--trace", "{trace}"), "--refresh-interval-ms", "nan", "refresh interval"),
    (("sweep", "--trace", "{trace}"), "--intervals-ms", "inf", "refresh interval"),
    (("simulate",), "--refresh-interval-ms", "inf", "refresh interval"),
    (("simulate",), "--refresh-interval-ms", "nan", "refresh interval"),
    (("simulate",), "--resource-threshold", "nan", "resource threshold"),
    (("simulate",), "--resource-threshold", "0", "resource threshold"),
    (("simulate",), "--quota-frames", "0", "quota_frames"),
    (("simulate",), "--quota-frames", "-5", "quota_frames"),
    # the table's slot count must fit the 16-bit field of the control register
    (("simulate",), "--table-width", "65536", "table width"),
    (("synthesize", "--rate", "1000"), "--duration", "inf", "duration"),
    (("synthesize", "--profile", "gcc"), "--duration", "inf", "duration"),
    # nan, not inf: without the check an infinite rate spaces faults 1 ns
    # apart and synthesizes a billion of them per second of duration
    (("synthesize", "--duration", "0.001"), "--rate", "nan", "rate"),
    # finite values whose scaled int is infinite, or past 64 bits: each was
    # an OverflowError traceback
    (("synthesize", "--duration", "0.001"), "--rate", "1e-320", "rate out of range"),
    (("synthesize", "--rate", "1000"), "--duration", "1e300", "duration out of range"),
    (("synthesize", "--rate", "1e-9"), "--duration", "1e12", "duration out of range"),
    (("model", "--trace", "{trace}"), "--refresh-interval-ms", "1e303",
     "refresh interval out of range"),
    (("sweep", "--trace", "{trace}"), "--intervals-ms", "1e303", "refresh interval out of range"),
    (("simulate",), "--refresh-interval-ms", "1e305", "refresh interval out of range"),
    # a background time that rounds below one cycle or ns, which a clamp
    # would run at a pace other than the configured one
    (("simulate",), "--refresh-interval-ms", "1e-300", "refresh interval out of range"),
    (("simulate",), "--params-clock-hz", "2", "refresh interval out of range: 0.004 cycles"),
    (("model", "--trace", "{trace}"), "--params-init-throughput-pages-per-s", "3000000000",
     "init_throughput_pages_per_s out of range: 0.333 ns a fill page"),
    # integers past 64 bits: each was an OverflowError traceback
    (("model", "--trace", "{trace}"), "--params-mfoe-hit-cycles", _HUGE, "mfoe_hit_cycles"),
    (("simulate",), "--params-clock-hz", _HUGE, "clock_hz"),
    (("synthesize", "--rate", "1000", "--duration", "0.001", "--latency-p95-ns", _HUGE),
     "--latency-mean-ns", _HUGE, "latency mean"),
    # a lognormal mean of 2**62 with p95 2**63 - 1 draws latencies past 64 bits
    (("synthesize", "--rate", "10000", "--duration", "0.01",
      "--latency-mean-ns", "4611686018427387904"),
     "--latency-p95-ns", "9223372036854775807", "a drawn latency is outside signed 64 bits"),
    # simulated cycles past 64 bits: each was an OverflowError traceback, and
    # the first two ran ticks one at a time for minutes before it
    (("simulate",), "--interarrival", "9223372036854775807", "simulated cycle count passed"),
    (("simulate",), "--params-mfoe-hit-cycles", "9223372036854775807",
     "simulated cycle count passed"),
    (("simulate", "--refresh-interval-ms", "1000000000"), "--interarrival",
     "5000000000000000000", "simulated cycle count passed"),
    # sizes over the caps, refused before anything is built
    (("simulate",), "--region-pages", "99999999999999999", "pages a run maps"),
    (("simulate",), "--faults-per-thread", "99999999999999999", "pages a run maps"),
    (("simulate",), "--threads", "5000000", "pages a run maps"),
    (("simulate", "--region-pages", "8"), "--faults-per-thread", "80000000000000",
     "touches, more than"),
    (("simulate",), "--total-frames", "99999999999", "total frames must be at most"),
    (("simulate",), "--cores", "1025", "cores must be at most 1024"),
]


@pytest.mark.parametrize(
    "command, flag, value, fragment", BAD_VALUES,
    ids=[f"{c[0]}{flag}={value[:8]}" for c, flag, value, _ in BAD_VALUES],
)
def test_out_of_range_value_is_a_clean_error(tmp_path, capsys, command, flag, value, fragment):
    trace_path = tmp_path / "tiny.csv"
    trace_path.write_text("timestamp_ns,core,latency_ns\n0,0,900\n5000,0,800\n")
    argv = [a.format(trace=trace_path) for a in command]
    if command[0] == "simulate":
        argv += ["--threads", "1", "--faults-per-thread", "50", "--interarrival", "900"]
    assert run_cli(*argv, flag, value, "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert fragment in err
    assert "Traceback" not in err


# Values at and past the edges of every numeric type: zero, negative, a
# float that underflows to 0 once scaled, floats whose scaled ints pass 64
# bits, the non-finite floats, and the first int past signed 64 bits.
FUZZ_VALUES = ("0", "-1", "1e-320", "1e300", "nan", "inf", str(1 << 63))


def _exit_code(argv, capsys):
    """main's exit code, or the repr of anything that escaped it; and
    whether stderr shows a traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any escape is a finding; report them all
        code = repr(exc)
    return code, "Traceback" in capsys.readouterr().err


def _tiny_trace(tmp_path):
    """A 2-core, 40-fault trace."""
    assert main(["synthesize", "--rate", "2000", "--duration", "0.01", "--cores", "2",
                 "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    return str(tmp_path / "trace.csv")


def _fuzz_base(command, tmp_path):
    """A small run of command that exits 0: the base the flag fuzz adds
    its flags to. The base runs replay or write tens of faults, and a
    value that would size more work is refused by a cap first."""
    out = ["--out-dir", str(tmp_path / "out")]
    if command == "simulate":
        return ["simulate", "--threads", "1", "--faults-per-thread", "50", "--seed", "3", *out]
    if command == "synthesize":
        return ["synthesize", "--rate", "1000", "--duration", "0.01", *out]
    trace_path = _tiny_trace(tmp_path)
    if command == "model":
        return ["model", "--trace", trace_path, *out]
    return ["sweep", "--trace", trace_path, "--widths", "4,8", "--intervals-ms", "0.5,1", *out]


def _fuzz_flags(command):
    """Each of command's flags but the paths and --config."""
    paths = ("-h", "--help", "--config", "--out-dir", "--trace", "--trace-out")
    return [
        opt for action in build_parser().subcommand_parsers[command]._actions
        for opt in action.option_strings if opt not in paths
    ]


def _fuzz_failures(base, cases, capsys):
    """The cases, each a list of arguments added to the base run, that
    neither exit 0 or 2 nor keep a traceback off stderr."""
    assert _exit_code(base, capsys) == (0, False), "the base run must succeed"
    bad = []
    for extra in cases:
        code, traceback = _exit_code([*base, *extra], capsys)
        if code not in (0, 2) or traceback:
            bad.append((*extra, code))
    return bad


def _flag_fuzz(command, base, capsys):
    """Each of command's flags with each of FUZZ_VALUES, on a small base
    run: the flags tried and the cases that fail (_fuzz_failures)."""
    flags = _fuzz_flags(command)
    return flags, _fuzz_failures(
        base, [(flag, value) for flag in flags for value in FUZZ_VALUES], capsys)


def test_simulate_flag_fuzz_exits_0_or_2(tmp_path, capsys):
    # a run that completes exits 0, anything else a user can cause exits 2
    # with error: or a usage message, never a traceback
    flags, bad = _flag_fuzz("simulate", _fuzz_base("simulate", tmp_path), capsys)
    assert len(flags) == 21
    assert bad == []


@pytest.mark.parametrize("command", ["model", "sweep", "synthesize"])
def test_flag_fuzz_exits_0_or_2(tmp_path, capsys, command):
    flags, bad = _flag_fuzz(command, _fuzz_base(command, tmp_path), capsys)
    assert len(flags) == 8
    assert bad == []


# Small in-range values. Half the values in a pair come from here, so
# that often both flags pass their own checks and the pair reaches the run.
IN_RANGE_VALUES = ("1", "2", "3", "0.5", "16")


@pytest.mark.parametrize("command", ["simulate", "model", "sweep", "synthesize"])
def test_flag_pair_fuzz_exits_0_or_2(tmp_path, capsys, command):
    # two flags at once, each at an edge or in range: 60 seeded pairs
    # per command, with the one-flag fuzz's assertion
    rng = random.Random(f"flag pairs {command}")
    flags = _fuzz_flags(command)

    def value():
        return rng.choice(IN_RANGE_VALUES if rng.random() < 0.5 else FUZZ_VALUES)

    cases = []
    for _ in range(60):
        first, second = rng.sample(flags, 2)
        cases.append((first, value(), second, value()))
    assert _fuzz_failures(_fuzz_base(command, tmp_path), cases, capsys) == []


_MALFORMED_CONFIGS = [
    b"\xff\xfe\x00 not text", b"width\n", b"=3\n", b"cores=\n", b"width=nan\n",
    b"widths=a,b\n", b"seed=1.5\n", b"dist=zipf\n", b"config=other.cfg\n",
    b"cores=99999999999999999999\n", b"refresh-interval-ms=inf\n", b"intervals-ms=1e303\n",
]

_MALFORMED_TRACES = [
    b"\xff\xfe\x00", b"a,b,c\n1,2,3\n", b"{header}\n1,0\n", b"{header}\nx,0,5\n",
    b"{header}\n1,0,-5\n", b"{header}\n%d,0,5\n" % (1 << 64), b"{header}\n1,0,5\n0,0,5\n",
    b"{header}\nnan,0,5\n", b"{header}\n1,0,5,7\n", b"{header}\n1,5000,5\n",
]


def test_malformed_config_files_and_traces_exit_0_or_2(tmp_path, capsys):
    trace_path = _tiny_trace(tmp_path)
    out = ["--out-dir", str(tmp_path / "out")]
    bases = [
        ["simulate", "--faults-per-thread", "20", *out],
        ["model", "--trace", trace_path, *out],
        ["sweep", "--trace", trace_path, "--widths", "4", "--intervals-ms", "1", *out],
        ["synthesize", "--rate", "1000", "--duration", "0.01", *out],
    ]
    bad = []
    for i, text in enumerate(_MALFORMED_CONFIGS):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_bytes(text)
        for base in bases:
            code, traceback = _exit_code([*base, "--config", str(cfg)], capsys)
            if code not in (0, 2) or traceback:
                bad.append((text, base[0], code))
    for i, text in enumerate(_MALFORMED_TRACES):
        path = tmp_path / f"{i}.csv"
        path.write_bytes(text.replace(b"{header}", trace.TRACE_HEADER.encode()))
        for command in ("model", "sweep"):
            code, traceback = _exit_code([command, "--trace", str(path), *out], capsys)
            if code != 2 or traceback:
                bad.append((text, command, code))
    assert bad == []


def test_config_line_without_equals_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("tablewidth 32\n")
    assert run_cli(*simulate_args(tmp_path, "--config", str(cfg))) == 2
    assert "expected key=value" in capsys.readouterr().err


def test_non_utf8_config_file_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"table-width=32\n# caf\xe9\nseed=1\n")
    assert run_cli(*simulate_args(tmp_path, "--config", str(cfg))) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: not UTF-8\n"
    assert not (tmp_path / "report.json").exists()


def test_config_keys_are_flag_names_where_the_dest_differs(tmp_path, capsys):
    # --interarrival, --region-pages and --stride store into the
    # WorkloadSpec field names; their config keys stay the flag names
    flags = ("--interarrival", "900", "--region-pages", "64", "--stride", "2")
    base = ("simulate", "--threads", "1", "--faults-per-thread", "100")
    assert run_cli(*base, *flags, "--out-dir", str(tmp_path / "flags")) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("interarrival=900\nregion-pages=64\nstride=2\n")
    assert run_cli(*base, "--config", str(cfg), "--out-dir", str(tmp_path / "file")) == 0
    for name in ("report.json", "faults.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()
    cfg.write_text("interarrival_cycles=900\n")
    assert run_cli(*base, "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    assert "unknown config key 'interarrival_cycles'" in capsys.readouterr().err


# Flags that set no field of the command's config objects.
_NOT_CONFIG_DESTS = ("help", "config", "out_dir", "trace")


@pytest.mark.parametrize("command, classes", [
    ("simulate", (sim.WorkloadSpec, sim.SimConfig)),
    ("model", (trace.TraceModelConfig,)),
])
def test_every_setting_flag_names_a_config_field(command, classes):
    # cmd_simulate and cmd_model build their configs from the flags whose
    # dest is a field name; a flag with any other dest would be dropped
    fields = {f.name for cls in classes for f in dataclasses.fields(cls)}
    dests = {
        action.dest for action in build_parser().subcommand_parsers[command]._actions
        if action.dest not in _NOT_CONFIG_DESTS and not action.dest.startswith("params_")
    }
    assert dests
    assert dests <= fields, dests - fields


class _Captured(Exception):
    pass


def test_unset_flags_leave_the_library_defaults(tmp_path, monkeypatch):
    # with no setting flag given, the CLI builds exactly the library's
    # default configs: it holds no defaults of its own
    def capture(*args):
        raise _Captured(*args)

    out = ("--out-dir", str(tmp_path))
    monkeypatch.setattr(sim, "run", capture)
    with pytest.raises(_Captured) as got:
        run_cli("simulate", *out)
    assert got.value.args == (sim.SimConfig(),)

    trace_path = tmp_path / "tiny.csv"
    trace_path.write_text(f"{trace.TRACE_HEADER}\n0,0,900\n")
    monkeypatch.setattr(trace, "apply_model", capture)
    with pytest.raises(_Captured) as got:
        run_cli("model", "--trace", str(trace_path), *out)
    assert got.value.args[1:] == (trace.TraceModelConfig(), ModelParameters())

    monkeypatch.setattr(trace, "synthesize_profile", capture)
    with pytest.raises(_Captured) as got:
        run_cli("synthesize", "--profile", "gcc", *out)
    assert got.value.args == ("gcc",)


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


# One valid, output-changing value per model parameter, and per model and
# sweep flag other than --config, --out-dir and --trace; a flag whose value
# changes none of its command's computed output is a dead knob.
PARAM_PERTURBATIONS = {
    "mfoe_hit_cycles": "100",
    "mfoe_miss_penalty_cycles": "30",
    "baseline_fault_mean_cycles": "3000",
    "baseline_fault_p95_cycles": "8000",
    "baseline_fault_dist": "two_point",
    "background_throughput_pages_per_s": "300000",
    "init_throughput_pages_per_s": "500000",
    "clock_hz": "2000000000",
}
REPLAY_FLAG_PERTURBATIONS = {
    "--width": "32",
    "--refresh-interval-ms": "0.2",
    "--widths": "32",
    "--intervals-ms": "0.2",
    "--cores": "4",
}


def test_every_params_flag_changes_output(tmp_path):
    assert run_cli(
        "synthesize", "--profile", "gcc", "--cores", "2", "--duration", "0.002",
        "--seed", "7", "--out-dir", str(tmp_path),
    ) == 0
    trace_path = str(tmp_path / "trace.csv")
    # command -> (arguments, the computed output that is not an echo)
    runs = {
        "simulate": (("--threads", "2", "--faults-per-thread", "600",
                      "--interarrival", "3000", "--table-width", "16",
                      "--refresh-interval-ms", "0.1", "--seed", "5"), "faults.csv"),
        "model": (("--trace", trace_path, "--width", "16",
                   "--refresh-interval-ms", "0.1"), "timeline.csv"),
        "sweep": (("--trace", trace_path, "--widths", "16",
                   "--intervals-ms", "0.1"), "sweep.csv"),
        "synthesize": (("--profile", "gcc", "--cores", "2", "--duration", "0.002",
                        "--seed", "7"), "trace.csv"),
    }
    parsers = build_parser().subcommand_parsers
    assert set(parsers) == set(runs)

    def output(command, name, *extra):
        out_dir = tmp_path / name
        argv, report = runs[command]
        assert run_cli(command, *argv, *extra, "--out-dir", str(out_dir)) == 0
        return (out_dir / report).read_bytes()

    dead = []
    for command, parser in parsers.items():
        replay = command in ("model", "sweep")
        flags = [
            opt for action in parser._actions for opt in action.option_strings
            if opt.startswith("--params-")
            or replay and opt not in ("-h", "--help", "--config", "--out-dir", "--trace")
        ]
        base = output(command, command)
        for flag in flags:
            if flag.startswith("--params-"):
                value = PARAM_PERTURBATIONS[flag[len("--params-"):].replace("-", "_")]
            else:
                value = REPLAY_FLAG_PERTURBATIONS[flag]
            if output(command, f"{command}{flag}", flag, value) == base:
                dead.append(f"{command} {flag}")
    assert dead == []
