"""Trace ingestion, the replay model, synthesis, and sweeps.

The replay checks here are worked by hand against the model's stated
mechanics: frames land per core at the init rate until each pool holds
`width`, refresh passes run every interval and re-stock one frame per
consumed record at the background rate (budget-capped, rotating the
starting core), a stocked fault costs hit_ns and pulls later same-core
faults earlier by (latency - hit_ns), an empty-pool fault pushes them
later by miss_penalty_ns.
"""
import bisect
import hashlib
import json
import math
import random
import re
import sys
import time
import tracemalloc
from array import array

import pytest
from helpers import block_rows, count_lines, unlisted
from test_acceptance import _reference_replay

from mfoesim import trace as trace_module
from mfoesim.cli import main as cli_main
from mfoesim.kernel import KernelModel
from mfoesim.params import Z95, LatencySampler, ModelParameters
from mfoesim.trace import (
    DEFAULT_INTERVALS_MS,
    DEFAULT_WIDTHS,
    MAX_CORES,
    OUTCOME_HIT,
    OUTCOME_MISS,
    OUTCOME_NAMES,
    TIMELINE_HEADER,
    TRACE_HEADER,
    FaultTrace,
    Timeline,
    TraceFormatError,
    TraceModelConfig,
    WORKLOAD_PROFILES,
    apply_model,
    ingest,
    model_constants,
    sweep,
    sweep_configs,
    synthesize,
    synthesize_profile,
    write_blocks,
    write_trace,
)

GHZ1 = ModelParameters(clock_hz=1_000_000_000)  # 1 cycle == 1 ns


# trace container


def test_from_records_round_trip():
    trace = FaultTrace.from_records([(100, 0, 50), (120, 1, 10)])
    assert len(trace) == 2
    assert list(trace.timestamps_ns) == [100, 120]
    assert list(trace.core_ids) == [0, 1]
    assert list(trace.latencies_ns) == [50, 10]
    assert trace.core_count == 2


def test_validate_rejects_malformed_traces():
    with pytest.raises(ValueError, match="mismatched"):
        FaultTrace([1, 2], [0], [5, 5])
    with pytest.raises(ValueError, match="negative core"):
        FaultTrace([1], [-1], [5])
    with pytest.raises(ValueError, match="latency"):
        FaultTrace([1], [0], [0])
    with pytest.raises(ValueError, match="record 2: timestamp regresses on core 0"):
        FaultTrace([100, 7, 50], [0, 1, 0], [5, 5, 5])
    with pytest.raises(ValueError, match="record 1: field outside signed 64 bits"):
        FaultTrace([1, 1 << 63], [0, 0], [5, 5])
    # regression check is per core; interleaved cores may go backwards
    FaultTrace([100, 50], [0, 1], [5, 5])


def test_runtime_brackets_first_start_to_last_end():
    # the core's latest completion is its first fault's, not its last's
    trace = FaultTrace([100, 120], [0, 0], [50, 10])
    assert trace.core_totals == {0: (150, 60)}
    assert trace.total_runtime_ns == 150 - 100
    assert sum(trace.latencies_ns) / trace.total_runtime_ns == pytest.approx(60 / 50)
    empty = FaultTrace()
    assert empty.core_totals == {}
    assert empty.total_runtime_ns == 0
    assert empty.core_count == 0


def test_validate_checks_the_carried_totals():
    trace = FaultTrace([100, 120, 130], [0, 0, 1], [50, 10, 5])
    trace.validate()
    trace.core_totals[0] = (150, 61)
    with pytest.raises(ValueError, match="totals"):
        trace.validate()


# file I/O


def test_ingest_round_trip(tmp_path):
    trace = synthesize(50_000, 0.01, cores=2, seed=3)
    path = tmp_path / "t.csv"
    write_trace(trace, str(path))
    back = ingest(str(path))
    assert list(back.timestamps_ns) == list(trace.timestamps_ns)
    assert list(back.core_ids) == list(trace.core_ids)
    assert list(back.latencies_ns) == list(trace.latencies_ns)


def test_ingest_tolerates_comments_and_blanks(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# captured on host xyz\n\n"
        f"{TRACE_HEADER}\n"
        "1000,0,500\n"
        "# mid-file note\n"
        "2000,0,500\n"
    )
    trace = ingest(str(path))
    assert len(trace) == 2


def test_ingest_empty_file_gives_empty_trace(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    trace = ingest(str(path))
    assert len(trace) == 0
    assert apply_model(trace).speedup == 1.0
    commented = tmp_path / "c.csv"
    commented.write_text("# nothing here\n")
    assert len(ingest(str(commented))) == 0


@pytest.mark.parametrize(
    "body,line_no,fragment",
    [
        ("time,cpu,lat\n", 1, "expected header"),
        (f"{TRACE_HEADER}\n1000,0\n", 2, "3 fields"),
        (f"{TRACE_HEADER}\n1000,zero,5\n", 2, "non-integer"),
        (f"{TRACE_HEADER}\n1000,-1,5\n", 2, "negative core"),
        (f"{TRACE_HEADER}\n1000,0,0\n", 2, "latency"),
        (f"{TRACE_HEADER}\n# pad\n2000,0,5\n1000,0,5\n", 4, "regresses"),
    ],
)
def test_ingest_reports_offending_line(tmp_path, body, line_no, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(TraceFormatError, match=fragment) as exc:
        ingest(str(path))
    assert exc.value.line_no == line_no
    assert exc.value.path == str(path)


# the most digits int() converts; 0 where PYTHONINTMAXSTRDIGITS lifts the limit
_INT_DIGITS = sys.get_int_max_str_digits()


def _ingest_by_line(path):
    """Reference for the chunked ingest: the plain line-at-a-time loop,
    with the field grammar as a regex. Returns the three columns as
    lists, or raises its TraceFormatError."""
    times, cores, lats = [], [], []
    last_per_core = {}
    saw_header = False
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line_no, raw in enumerate(fh, 1):
            body = re.sub(r"\r?\n\Z", "", raw)
            if "\r" in body:
                raise TraceFormatError(path, line_no, "carriage return not before a newline")
            line = body.strip()
            if not line or line.startswith("#"):
                continue
            if not saw_header:
                if line != TRACE_HEADER:
                    raise TraceFormatError(
                        path, line_no, f"expected header {TRACE_HEADER!r}, got {line!r}"
                    )
                saw_header = True
                continue
            parts = body.split(",")
            if len(parts) != 3:
                raise TraceFormatError(path, line_no, f"expected 3 fields, got {len(parts)}")
            if not all(re.fullmatch(r"-?[0-9]+", part) for part in parts):
                raise TraceFormatError(path, line_no, f"non-integer field in {body!r}")
            if _INT_DIGITS and any(len(part.lstrip("-")) > _INT_DIGITS for part in parts):
                raise TraceFormatError(path, line_no, f"field over {_INT_DIGITS} digits")
            t, core, lat = int(parts[0]), int(parts[1]), int(parts[2])
            if not all(-(1 << 63) <= v < 1 << 63 for v in (t, core, lat)):
                raise TraceFormatError(path, line_no, "field outside signed 64 bits")
            if core < 0:
                raise TraceFormatError(path, line_no, "negative core id")
            if lat <= 0:
                raise TraceFormatError(path, line_no, "latency must be positive")
            prev = last_per_core.get(core)
            if prev is not None and t < prev:
                raise TraceFormatError(path, line_no, f"timestamp regresses on core {core}")
            last_per_core[core] = t
            times.append(t)
            cores.append(core)
            lats.append(lat)
    return times, cores, lats


# A body this long spans many ingest chunks (about 1300 lines each).
_BODY_LINES = 100_000


def _body_lines():
    """Line 1 is the header; data line n holds a time of 10 * n."""
    return [TRACE_HEADER] + [f"{10 * n},{n % 4},{1 + n % 97}" for n in range(2, _BODY_LINES + 2)]


def _chunk_starts(path):
    """Line numbers that open a data chunk, when the header is line 1."""
    starts = []
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        line_no = 1
        while lines := fh.readlines(trace_module._INGEST_CHUNK_BYTES):
            starts.append(line_no + 1)
            line_no += len(lines)
    return starts


def _bad_two_then_four(lines, at):
    # Six fields over two lines that would regroup into two valid records.
    lines[at - 1 : at + 1] = [f"{10 * at},{at % 4}", f"5,{10 * at + 10},{(at + 1) % 4},5"]


def _bad_four_then_two(lines, at):
    # Six fields over two lines, with the line break after the fourth.
    lines[at - 1 : at + 1] = [f"{10 * at},{at % 4},5,{10 * at + 10}", f"{(at + 1) % 4},5"]


def _bad_negative_core(lines, at):
    lines[at - 1] = f"{10 * at},-1,5"


def _bad_zero_latency(lines, at):
    lines[at - 1] = f"{10 * at},0,0"


def _bad_non_integer(lines, at):
    lines[at - 1] = f"{10 * at},zero,5"


def _bad_regression_across_edge(lines, at):
    # The last line of one chunk sets core 0's time; the first line of
    # the next goes back by 1 ns.
    lines[at - 2] = f"{10 * at},0,5"
    lines[at - 1] = f"{10 * at - 1},0,5"


@pytest.mark.parametrize(
    "corrupt,where,fragment",
    [
        (_bad_two_then_four, "mid", "expected 3 fields, got 2"),
        (_bad_four_then_two, "mid", "expected 3 fields, got 4"),
        (_bad_negative_core, "mid", "negative core"),
        (_bad_zero_latency, "edge", "latency must be positive"),
        (_bad_non_integer, "mid", "non-integer"),
        (_bad_regression_across_edge, "edge", "regresses on core 0"),
    ],
)
def test_chunked_ingest_reports_offending_line(tmp_path, corrupt, where, fragment):
    path = tmp_path / "bad.csv"
    lines = _body_lines()
    path.write_text("\n".join(lines) + "\n")
    starts = _chunk_starts(path)
    assert len(starts) > 20
    # Past the first chunk: the first line of the fourth, or well inside
    # the sixth.
    at = starts[3] if where == "edge" else starts[5] + 100
    corrupt(lines, at)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=fragment) as want:
        _ingest_by_line(str(path))
    with pytest.raises(TraceFormatError) as got:
        ingest(str(path))
    assert want.value.line_no == at
    assert (got.value.line_no, str(got.value)) == (want.value.line_no, str(want.value))


@pytest.mark.parametrize(
    "first,second,fragment",
    [
        (_bad_regression_across_edge, _bad_non_integer, "regresses on core 0"),
        (_bad_non_integer, _bad_regression_across_edge, "non-integer"),
    ],
    ids=["regression-then-syntax", "syntax-then-regression"],
)
def test_first_bad_line_of_a_noted_chunk_is_reported(tmp_path, first, second, fragment):
    # A note sends the chunk to the line loop, which must report the first
    # bad line in file order, whether a record rule or the syntax fails it.
    path = tmp_path / "bad.csv"
    lines = _body_lines()
    path.write_text("\n".join(lines) + "\n")
    at = _chunk_starts(path)[5] + 100
    lines[at - 51] = "# note"
    first(lines, at)
    second(lines, at + 5)
    path.write_text("\n".join(lines) + "\n")
    assert not any(at - 50 < start <= at + 5 for start in _chunk_starts(path))
    with pytest.raises(TraceFormatError, match=fragment) as want:
        _ingest_by_line(str(path))
    with pytest.raises(TraceFormatError) as got:
        ingest(str(path))
    assert want.value.line_no == at
    assert (got.value.line_no, str(got.value)) == (want.value.line_no, str(want.value))


def _with_notes(lines):
    lines[5000:5000] = ["# note, with, commas", "", "   ", "# note"]
    return "\n".join(lines) + "\n"


def _header_after_comments(lines):
    return "# captured on host xyz\n\n# 4 cores\n" + "\n".join(lines) + "\n"


def _padded(lines):
    # zero padding is the one padding the field grammar allows
    padded = ["00" + line.replace(",", ",0") for line in lines[1:]]
    return "\n".join([lines[0]] + padded) + "\n"


@pytest.mark.parametrize(
    "render,newline",
    [
        (_with_notes, None),
        (lambda lines: "\n".join(lines) + "\n", "\r\n"),
        (_padded, None),
        (_header_after_comments, None),
        (lambda lines: "\n".join(lines), None),
    ],
    ids=["notes-in-later-chunk", "crlf", "padded", "header-after-comments", "no-final-newline"],
)
def test_chunked_ingest_matches_line_loop(tmp_path, render, newline):
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(render(_body_lines()))
    back = ingest(str(path))
    got = (list(back.timestamps_ns), list(back.core_ids), list(back.latencies_ns))
    assert got == _ingest_by_line(str(path))
    assert len(back) == _BODY_LINES


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("{t},{c},1_0", "non-integer"),
        ("{t},{c},\u0663", "non-integer"),
        ("{t},{c},+7", "non-integer"),
        ("{t},{c}, 9 ", "non-integer"),
        ("{t},\t{c},5", "non-integer"),
        ("{t},{c}\x0b,5", "non-integer"),
        ("\x0c{t},{c},5", "non-integer"),
        ("{t},{c}\r,5", "carriage return"),
        # with the newline, a CR then a CRLF
        ("{t},{c},5\r\r", "carriage return"),
    ],
    ids=["underscore", "arabic-indic-digit", "plus", "spaces", "tab", "vertical-tab",
         "form-feed", "cr-in-line", "cr-before-crlf"],
)
def test_ingest_refuses_what_int_would_take(tmp_path, bad, fragment):
    # int() reads each of these as a number; the grammar refuses them in
    # the bulk chunk check, and the line loop names the line
    path = tmp_path / "bad.csv"
    lines = _body_lines()
    path.write_text("\n".join(lines) + "\n")
    at = _chunk_starts(path)[5] + 100
    lines[at - 1] = bad.format(t=10 * at, c=at % 4)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=fragment) as want:
        _ingest_by_line(str(path))
    with pytest.raises(TraceFormatError) as got:
        ingest(str(path))
    assert want.value.line_no == at
    assert (got.value.line_no, str(got.value)) == (want.value.line_no, str(want.value))


@pytest.mark.parametrize("tail", ["\r", "\r\r\n"], ids=["cr-at-eof", "cr-before-crlf"])
def test_ingest_refuses_a_carriage_return_at_the_end_of_a_line(tmp_path, tail):
    path = tmp_path / "bad.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{TRACE_HEADER}\r\n1000,0,5\r\n2000,0,5{tail}")
    with pytest.raises(TraceFormatError, match="carriage return") as exc:
        ingest(str(path))
    assert exc.value.line_no == 3
    # the same lines with CRLF endings load
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{TRACE_HEADER}\r\n1000,0,5\r\n2000,0,5\r\n")
    assert list(ingest(str(path)).timestamps_ns) == [1000, 2000]


_OUTSIDE_64_BITS = [
    f"{10**20},0,5", f"1000,{10**20},5", f"1000,0,{10**20}", f"{-(1 << 63) - 1},0,5",
    f"{1 << 63},0,5",
]


@pytest.mark.parametrize(
    "bad", _OUTSIDE_64_BITS,
    ids=["timestamp", "core", "latency", "timestamp-below", "timestamp-one-above"],
)
def test_field_outside_64_bits_is_a_format_error(tmp_path, bad):
    path = tmp_path / "bad.csv"
    lines = _body_lines()
    path.write_text("\n".join(lines) + "\n")
    at = _chunk_starts(path)[5] + 100
    lines[at - 1] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="outside signed 64 bits") as exc:
        ingest(str(path))
    assert exc.value.line_no == at
    # The bulk parse gives up on such a chunk without touching any column,
    # the per-core ones included, even where a valid line opens a new core.
    trace = FaultTrace([1], [0], [5])
    assert not trace_module._ingest_chunk(b"2,0,5\n3,1,5\n" + bad.encode() + b"\n", 3, trace)
    assert (list(trace.core_ids), trace.core_times, trace.core_lats) == (
        [0], {0: array("q", [1])}, {0: array("q", [5])}
    )


# Field forms the bulk check and JSON must leave to the line loop, or
# read as int() does; "\r" is a stray carriage return inside a line.
_MUTANT_FIELDS = [
    "01", "-0", "00", "-01", "1e5", "1.0", "NaN", "Infinity", "true", "null", "[1]", " 1",
    "1_0", "+1", "\u0663", "--1", "1-", "", "-", str(1 << 63), "1" * 4301, "0" * 4300 + "{v}",
    "{v}\r", "\r{v}",
]


def _ingest_outcome(ingest_fn, path):
    """The three columns ingest_fn reads from path, or what it raised: the
    type, the line number of a TraceFormatError and the message."""
    try:
        got = ingest_fn(path)
    except ValueError as exc:
        return type(exc).__name__, getattr(exc, "line_no", None), str(exc)
    if isinstance(got, FaultTrace):
        got = got.timestamps_ns, got.core_ids, got.latencies_ns
    return tuple(map(list, got))


@pytest.mark.parametrize("seed", range(3))
def test_bulk_ingest_matches_line_loop_on_mutated_fields(tmp_path, seed):
    # One field of a multi-chunk trace mutated at a time, to every form in
    # _MUTANT_FIELDS, then one line given a field too few or too many:
    # ingest must read the same records as the line loop, or fail on the
    # same line with the same message.
    rng = random.Random(seed)
    cores = rng.randint(1, 4)
    clock = [0] * cores
    lines = [TRACE_HEADER]
    for _ in range(3000):
        c = rng.randrange(cores)
        clock[c] += rng.choice((0, 7, 300))
        lines.append(f"{clock[c]},{c},{rng.randint(1, 9999)}")
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    assert len(_chunk_starts(path)) >= 3
    mutants = []
    for form in _MUTANT_FIELDS:
        # a random field, and the latency, where any positive value is valid:
        # a form the bulk parse read as a valid record would show there
        for i in {rng.randrange(3), 2}:
            at = rng.randrange(1, len(lines))
            fields = lines[at].split(",")
            fields[i] = form.format(v=fields[i])
            mutants.append((at, ",".join(fields)))
    at = rng.randrange(1, len(lines))
    mutants.append((at, lines[at].rsplit(",", 1)[0]))
    at = rng.randrange(1, len(lines))
    mutants.append((at, lines[at] + ",5"))
    outcomes = set()
    for at, line in mutants:
        mutated = lines[:at] + [line] + lines[at + 1:]
        path.write_text("\n".join(mutated) + "\n", encoding="utf-8", newline="")
        want = _ingest_outcome(_ingest_by_line, str(path))
        assert _ingest_outcome(ingest, str(path)) == want, line[:40]
        outcomes.add(want[0] if isinstance(want[0], str) else "records")
    # each seed reaches both the error and the accepting ends
    assert {"records", "TraceFormatError"} <= outcomes


@pytest.mark.skipif(not _INT_DIGITS, reason="int() converts any number of digits")
@pytest.mark.parametrize("pad", ["1", "0"], ids=["ones", "zero-padded"])
def test_field_over_the_int_digit_limit_names_its_line(tmp_path, pad):
    # int() refuses a string of more digits than its limit (4300 unless
    # PYTHONINTMAXSTRDIGITS says otherwise), even one whose value fits in
    # 64 bits; the field is a format error on its line
    path = tmp_path / "big.csv"
    field = pad * _INT_DIGITS + "1"
    path.write_text(f"{TRACE_HEADER}\n1000,0,5\n2000,0,{field}\n3000,0,5\n")
    with pytest.raises(TraceFormatError) as exc:
        ingest(str(path))
    assert str(exc.value) == f"{path}:3: field over {_INT_DIGITS} digits"


@pytest.mark.parametrize("where", ["header", "data"])
def test_non_utf8_byte_names_its_line(tmp_path, where):
    lines = [line.encode() for line in _body_lines()]
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    if where == "header":
        # a Latin-1 comment before the header
        at = 1
        lines.insert(0, b"# captured on h\xf4te")
    else:
        at = _chunk_starts(path)[5] + 100
        lines[at - 1] = lines[at - 1].replace(b",", b",\xe9", 1)
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(TraceFormatError) as exc:
        ingest(str(path))
    assert (exc.value.line_no, str(exc.value)) == (at, f"{path}:{at}: not UTF-8")


@pytest.mark.parametrize("corrupt, kept", [
    (_bad_negative_core, "chunk"),  # the bad record's chunk is refused with it
    (_bad_non_integer, "line"),  # the records before a syntax error are kept
])
def test_totals_before_a_bad_record_stay_as_they_were(tmp_path, monkeypatch, corrupt, kept):
    path = tmp_path / "bad.csv"
    lines = _body_lines()
    path.write_text("\n".join(lines) + "\n")
    start = _chunk_starts(path)[5]
    at = start + 100
    corrupt(lines, at)
    path.write_text("\n".join(lines) + "\n")
    traces = []
    split = trace_module._split
    monkeypatch.setattr(trace_module, "_split", lambda t, *a: traces.append(t) or split(t, *a))
    with pytest.raises(TraceFormatError):
        ingest(str(path))
    trace = traces[-1]
    good = lines[1:(start if kept == "chunk" else at) - 1]
    records = [tuple(map(int, line.split(","))) for line in good]
    assert _columns(trace) == _split_by_brute_force(records)
    assert trace.core_totals == _brute_totals(trace)


def test_synthesized_totals_are_counted_once_on_first_read(monkeypatch):
    # the faults each call of _count_totals passes over
    counted = []
    count = trace_module._count_totals
    monkeypatch.setattr(trace_module, "_count_totals", lambda times, lats: counted.append(
        sum(map(len, times.values()))) or count(times, lats))
    trace = synthesize(50_000, 0.02, dist="poisson", cores=3, seed=4)
    assert sum(counted) == 0
    assert trace.core_totals == _brute_totals(trace)
    assert sum(counted) == len(trace)
    assert trace.total_runtime_ns == (
        max(e for e, _ in trace.core_totals.values()) - min(trace.timestamps_ns))
    apply_model(trace, TraceModelConfig(width=16))
    assert sum(counted) == len(trace)


class _Unread(array):
    """A column that refuses to be iterated: a pass over it fails."""

    def __iter__(self):
        raise AssertionError("a column was read in full before the replay loop")


def test_replay_prelude_is_o_cores_on_an_ingested_trace(tmp_path, monkeypatch):
    # apply_model and sweep read each core's carried totals and never
    # iterate a column before the replay loop, nor count the totals again:
    # the real replay runs over columns that refuse a pass over them
    path = tmp_path / "t.csv"
    write_trace(synthesize(20_000, 0.05, dist="poisson", cores=4, seed=2), str(path))
    trace = ingest(str(path))
    config = TraceModelConfig(width=64)
    want = apply_model(trace, config)
    want_grid = sweep(trace, [16, 64], [2.0, 4.0])
    for columns in (trace.core_times, trace.core_lats):
        for c in columns:
            columns[c] = _Unread("q", columns[c])
    counted = []
    count = trace_module._count_totals
    monkeypatch.setattr(trace_module, "_count_totals", lambda *a: counted.append(a) or count(*a))
    got = apply_model(trace, config)
    grid = sweep(trace, [16, 64], [2.0, 4.0])
    assert counted == []
    assert got.to_json_dict() == want.to_json_dict()
    assert list(got.timeline.csv_blocks()) == list(want.timeline.csv_blocks())
    assert grid.to_json_dict() == want_grid.to_json_dict()


def test_pack_keeps_every_64_bit_value_across_blocks(tmp_path):
    lo, hi = -(1 << 63), (1 << 63) - 1
    values = [lo, hi, 0, -1] * 2049  # 8196 values: two full blocks and a partial one
    assert trace_module._pack(values) == array("q", values)
    assert trace_module._pack(tuple(values)) == array("q", values)
    assert trace_module._pack([]) == array("q")
    for bad in (1 << 63, lo - 1):
        with pytest.raises(OverflowError):
            trace_module._pack([0] * 5000 + [bad])
    # a value that is not an integer is refused as array() refuses it
    with pytest.raises(TypeError):
        FaultTrace([1.5], [0], [5])
    # the edges themselves are valid fields
    path = tmp_path / "edges.csv"
    path.write_text(f"{TRACE_HEADER}\n{lo},{hi},{hi}\n{hi},{hi},1\n{lo},0,{hi}\n")
    trace = ingest(str(path))
    assert list(trace.core_ids) == [hi, hi, 0]
    assert trace.core_times == {hi: array("q", [lo, hi]), 0: array("q", [lo])}
    assert trace.core_lats == {hi: array("q", [hi, 1]), 0: array("q", [hi])}


def _random_records(rng):
    """1-6 cores with sparse ids, and timestamps that repeat within and
    across cores; per core they never regress."""
    ids = rng.sample([0, 1, 2, 3, 7, 12, 40, 999], rng.randint(1, 6))
    last = dict.fromkeys(ids, 0)
    clock = 0
    records = []
    for _ in range(rng.randint(7000, 9000)):
        c = rng.choice(ids)
        clock += rng.choice((0, 0, 3))
        last[c] = max(last[c], clock - rng.choice((0, 0, 5)))
        records.append((last[c], c, rng.randint(1, 9999)))
    return records


def _split_by_brute_force(records):
    times, lats = {}, {}
    for t, c, lat in records:
        times.setdefault(c, []).append(t)
        lats.setdefault(c, []).append(lat)
    return [c for _, c, _ in records], times, lats


def _brute_totals(trace):
    """Each core's latest completion and latency sum, one record at a time."""
    totals = {}
    for t, c, lat in zip(trace.timestamps_ns, trace.core_ids, trace.latencies_ns):
        end, lat_sum = totals.get(c, (t + lat, 0))
        totals[c] = max(end, t + lat), lat_sum + lat
    return totals


def _columns(trace):
    return (
        list(trace.core_ids),
        {c: list(col) for c, col in trace.core_times.items()},
        {c: list(col) for c, col in trace.core_lats.items()},
    )


@pytest.mark.parametrize("seed", range(12))
def test_split_by_core_agrees_everywhere(tmp_path, monkeypatch, seed):
    rng = random.Random(seed)
    records = _random_records(rng)
    lines = [f"{t},{c},{lat}" for t, c, lat in records]
    plain = tmp_path / "plain.csv"
    plain.write_text("\n".join([TRACE_HEADER, *lines]) + "\n")
    # Notes and blank lines inside chunks send those chunks to the line
    # loop; the other chunks stay bulk. Half the files end without a
    # newline.
    noisy_lines = list(lines)
    for _ in range(rng.randint(1, 4)):
        noisy_lines.insert(rng.randrange(len(noisy_lines)), rng.choice(("# note, a, b", "", "  ")))
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("\n".join([TRACE_HEADER, *noisy_lines]) + ("\n" if seed % 2 else ""))

    by_line = []
    real_lines = trace_module._ingest_lines
    monkeypatch.setattr(
        trace_module, "_ingest_lines", lambda *a: by_line.append(a) or real_lines(*a)
    )
    want = _split_by_brute_force(records)
    bulk = ingest(str(plain))
    assert _columns(bulk) == want
    assert by_line == []
    got = ingest(str(noisy))
    assert _columns(got) == want
    assert 1 <= len(by_line) < len(_chunk_starts(noisy))
    ts, cs, ls = (list(col) for col in zip(*records))
    built = FaultTrace(ts, cs, ls)
    assert _columns(built) == want
    assert _columns(FaultTrace.from_records(records)) == want
    # every way in carries the same per-core totals
    totals = _brute_totals(bulk)
    assert len(totals) == len(want[1])
    for other in (got, built, FaultTrace.from_records(records)):
        assert other.core_totals == totals
    assert (list(got.timestamps_ns), list(got.latencies_ns)) == (ts, ls)
    assert got.core_count == max(cs) + 1
    out = tmp_path / "out.csv"
    write_trace(got, str(out))
    assert out.read_bytes() == plain.read_bytes()


def test_ingest_memory_stays_bounded(tmp_path):
    # Measured: the peak is 1.19x the three output arrays at 100k lines,
    # chunk strings and array over-allocation included; reading the
    # whole file at once peaks above 10x, and 256 KB chunks at 3x.
    path = tmp_path / "t.csv"
    path.write_text("\n".join(_body_lines()) + "\n")
    tracemalloc.start()
    try:
        trace = ingest(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = 3 * 8 * len(trace)
    assert len(trace) == _BODY_LINES
    assert peak < out_bytes * 5 // 4 + (512 << 10), f"peak {peak} for {out_bytes} of arrays"


# replay model


def test_model_constants_at_defaults():
    consts = model_constants(TraceModelConfig(), ModelParameters())
    assert consts == {
        "hit_ns": 26,
        "miss_penalty_ns": 5,
        "init_page_ns": 915,
        "record_ns": 1724,
        "interval_ns": 2_000_000,
        "budget_per_tick": 1160,
    }


def test_stocked_run_saves_full_latency_delta():
    # Three same-core faults at 1 GHz, pools filled long before the first.
    # Each hit saves 2552 - 78 ns and drags the next fault earlier by the
    # same amount: adjusted starts 1000000, 1197526, 1395052.
    trace = FaultTrace.from_records(
        [(1_000_000, 0, 2552), (1_200_000, 0, 2552), (1_400_000, 0, 2552)]
    )
    report = apply_model(trace, TraceModelConfig(width=256), GHZ1)
    assert report.hits == 3 and report.misses == 0
    assert report.hit_rate == 1.0
    assert report.saved_ns == 3 * (2552 - 78) == 7422
    assert report.penalty_ns == 0
    assert report.baseline_runtime_ns == 402_552
    assert report.modeled_runtime_ns == 402_552 - 7422
    assert report.speedup == pytest.approx(402_552 / 395_130)
    assert list(report.timeline.adjusted_ns) == [1_000_000, 1_197_526, 1_395_052]
    assert list(report.timeline.modeled_latency_ns) == [78, 78, 78]
    assert list(report.timeline.outcomes) == [OUTCOME_HIT] * 3
    assert report.residual_overhead_fraction == pytest.approx(3 * 78 / 395_130)


def test_faults_before_any_frame_lands_all_miss():
    # First frame lands at 915 ns; these five are all earlier, so each
    # pays its own latency plus the 14 ns probe and pushes the rest out.
    trace = FaultTrace.from_records([(i, 0, 100) for i in range(5)])
    report = apply_model(trace, TraceModelConfig(width=8), GHZ1)
    assert report.hits == 0
    assert report.hit_rate == 0.0
    assert report.penalty_ns == 5 * 14
    assert report.baseline_runtime_ns == 104
    assert report.modeled_runtime_ns == 104 + 70
    assert report.speedup == pytest.approx(104 / 174)
    assert list(report.timeline.adjusted_ns) == [0, 15, 30, 45, 60]
    assert list(report.timeline.modeled_latency_ns) == [114] * 5


def test_refresh_restocks_consumed_frames():
    # Width 1: every hit empties the pool; each later fault needs the
    # periodic pass to have landed a replacement (first pass at
    # 915 + 2 ms, then every 2 ms, one record 1724 ns after the pass).
    trace = FaultTrace.from_records(
        [(5_000_000, 0, 851), (8_000_000, 0, 851), (11_000_000, 0, 851)]
    )
    report = apply_model(trace, TraceModelConfig(width=1))
    assert report.hits == 3
    assert report.saved_ns == 3 * (851 - 26)
    assert report.modeled_runtime_ns == 6_000_851 - 2475


def test_missed_fault_waits_for_next_refresh():
    trace = FaultTrace.from_records(
        [(5_000_000, 0, 851), (5_500_000, 0, 851), (8_000_000, 0, 851)]
    )
    report = apply_model(trace, TraceModelConfig(width=1))
    assert report.hits == 2 and report.misses == 1
    assert list(report.timeline.outcomes) == [OUTCOME_HIT, OUTCOME_MISS, OUTCOME_HIT]
    assert report.penalty_ns == 5
    # the miss keeps its own start (shifted only by the earlier hit)
    assert report.timeline.adjusted_ns[1] == 5_500_000 - 825


def test_refresh_budget_and_rotation_across_cores():
    # Two cores, width 1, hit-cost latencies so shifts stay zero until a
    # miss. Background rate 500/s makes each re-stock take 2 ms and floors
    # the per-pass budget to one record. Worked timeline: pools land at
    # 915/1830; both cores hit at ~2000. Pass 1 (3001830) serves core 0,
    # landing 5001830: core 0 hits again at 5.1 ms, core 1 misses. Pass 2
    # (6001830) starts at core 1, landing 8001830: core 1 hits at ~8.1 ms
    # while core 0 misses. A non-rotating scan would serve core 0 both
    # times and flip the last two outcomes.
    params = ModelParameters(background_throughput_pages_per_s=500)
    records = [
        (2_000, 0, 26),
        (2_001, 1, 26),
        (5_100_000, 0, 26),
        (5_100_001, 1, 26),
        (8_100_000, 1, 26),
        (8_100_001, 0, 26),
    ]
    trace = FaultTrace.from_records(records)
    config = TraceModelConfig(width=1, refresh_interval_ms=3.0)
    report = apply_model(trace, config, params)
    assert model_constants(config, params)["budget_per_tick"] == 1
    assert model_constants(config, params)["record_ns"] == 2_000_000
    assert report.hits == 4 and report.misses == 2
    assert list(report.timeline.outcomes) == [
        OUTCOME_HIT, OUTCOME_HIT, OUTCOME_HIT, OUTCOME_MISS, OUTCOME_MISS, OUTCOME_HIT,
    ]
    # core 1's second miss pushes only core 1's later faults
    assert list(report.timeline.adjusted_ns)[4:] == [8_100_001, 8_100_005]
    assert list(report.timeline.core_ids) == [0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("throughput", [1, 500, 580_169, 0.75, 499.5, 1234.25, 2_000_000_000])
@pytest.mark.parametrize("interval_ms", [0.7, 2.0, 3.0, 1e-7, 4e-7])
def test_simulator_and_replay_grant_the_same_budget(throughput, interval_ms):
    # criterion 3's oracle formula, with its at-least-1-ns interval; an
    # int for fractional throughputs too
    params = ModelParameters(background_throughput_pages_per_s=throughput)
    oracle = max(1, round(interval_ms * 1e6)) * throughput // 10**9
    kernel = KernelModel(params, refresh_interval_ms=interval_ms)
    replay = model_constants(TraceModelConfig(refresh_interval_ms=interval_ms), params)
    assert kernel.budget_per_tick == replay["budget_per_tick"] == oracle
    assert type(kernel.budget_per_tick) is type(replay["budget_per_tick"]) is int


def test_core_count_inferred_and_checked():
    trace = FaultTrace.from_records([(1000, 0, 10), (2000, 2, 10)])
    report = apply_model(trace, TraceModelConfig(width=4))
    assert report.config["cores"] == 3
    with pytest.raises(ValueError, match="cores"):
        apply_model(trace, TraceModelConfig(width=4, cores=2))


def test_core_count_checked_before_per_core_split():
    # The trace holds columns only for the core ids that occur, but the
    # replay lists them up to the highest id, so a trace with more cores
    # than configured is refused before that list is built.
    wide = unlisted(FaultTrace.from_records([(1000, 0, 10), (2000, 100_000, 10)]))
    assert sorted(wide.core_ids) == [0, 100_000]
    message = "trace uses 100001 cores, model configured for 4"
    with pytest.raises(ValueError, match=message):
        apply_model(wide, TraceModelConfig(width=4, cores=4))
    with pytest.raises(ValueError, match=message):
        sweep(wide, [4], [2.0], cores=4)
    message = "trace uses 100001 cores, more than the 1024 a replay models"
    with pytest.raises(ValueError, match=message):
        apply_model(wide, TraceModelConfig(width=4))
    with pytest.raises(ValueError, match=message):
        sweep(wide, [4], [2.0])
    fits = FaultTrace.from_records([(1000, 0, 10), (2000, 3, 10)])
    assert apply_model(fits, TraceModelConfig(width=4, cores=4)).config["cores"] == 4
    assert len(sweep(fits, [4, 8], [2.0], cores=4).cells) == 2


def test_config_validation():
    with pytest.raises(ValueError, match="width"):
        apply_model(FaultTrace(), TraceModelConfig(width=0))
    with pytest.raises(ValueError, match="interval"):
        apply_model(FaultTrace(), TraceModelConfig(refresh_interval_ms=0))
    with pytest.raises(ValueError, match="cores"):
        apply_model(FaultTrace(), TraceModelConfig(cores=0))


@pytest.mark.parametrize("widths, intervals_ms, message", [
    ([256, 0], [2.0], "width must be positive"),
    ([256], [2.0, 0.0], "refresh interval"),
    ([256], [2.0, 1e300], "refresh interval out of range"),
    ([], [2.0], "nonempty"),
])
def test_sweep_checks_every_cell_before_the_first_replay(monkeypatch, widths, intervals_ms,
                                                         message):
    monkeypatch.setattr(trace_module, "_replay", lambda *args, **kwargs: pytest.fail("replayed"))
    with pytest.raises(ValueError, match=message):
        sweep(FaultTrace.from_records([(1000, 0, 10)]), widths, intervals_ms)


def test_sweep_configs_are_the_grid_row_by_row():
    configs = sweep_configs([4, 8], [1.0, 2.0], cores=3)
    assert [(c.width, c.refresh_interval_ms, c.cores) for c in configs] == [
        (4, 1.0, 3), (4, 2.0, 3), (8, 1.0, 3), (8, 2.0, 3)]
    assert len(sweep_configs()) == len(DEFAULT_WIDTHS) * len(DEFAULT_INTERVALS_MS)


def test_per_core_order_is_preserved():
    # Gaps exceed every latency, so hits compress but never reorder.
    rng = random.Random(11)
    records = []
    clocks = [0, 0]
    for _ in range(300):
        core = rng.randrange(2)
        lat = rng.randrange(200, 3000)
        clocks[core] += lat + rng.randrange(3000, 20_000)
        records.append((clocks[core], core, lat))
    records.sort(key=lambda r: r[0])
    trace = FaultTrace.from_records(records)
    report = apply_model(trace, TraceModelConfig(width=64))
    per_core_adj = {0: [], 1: []}
    for i in range(len(report.timeline)):
        per_core_adj[report.timeline.core_ids[i]].append(report.timeline.adjusted_ns[i])
    for adj in per_core_adj.values():
        assert adj == sorted(adj)
    assert report.hits + report.misses == 300


def test_window_boundaries_match_oracle():
    # Beyond criterion 3: 3-4 cores, up to 200 faults, zero gaps, ticks
    # every microsecond (no budget), 1500 pages/s (three records per 2 ms
    # pass, the third landing 1 ns past the next tick) and 1000 pages/s
    # (a pass's second landing falls exactly on the next tick). A third
    # of the faults are aimed at a tick or a landing time, and half the
    # latencies equal hit_ns so hits leave the aim intact: random times
    # alone almost never hit the tie rules.
    start = time.monotonic()
    rng = random.Random(30303)
    param_choices = [
        ModelParameters(),
        ModelParameters(clock_hz=1_000_000_000, background_throughput_pages_per_s=1500),
        ModelParameters(clock_hz=1_000_000_000, background_throughput_pages_per_s=1000),
    ]
    for case in range(150):
        cores = rng.choice([3, 4])
        width = rng.choice([1, 2, 3, 8])
        interval_ms = rng.choice([0.001, 0.7, 2.0])
        params = rng.choice(param_choices)
        config = TraceModelConfig(width=width, refresh_interval_ms=interval_ms, cores=cores)
        k = model_constants(config, params)
        ticks = [cores * width * k["init_page_ns"] + i * k["interval_ns"] for i in range(1, 30)]
        marks = sorted(
            [(p + 1) * k["init_page_ns"] for p in range(cores * width)]
            + [t + j * k["record_ns"] for t in ticks for j in range(4)]
        )

        n = rng.randint(1, 200)
        clocks = [0] * cores
        records = []
        for _ in range(n):
            c = rng.randrange(cores)
            ahead = [m for m in marks if m >= clocks[c]][:4]
            if ahead and rng.random() < 1 / 3:
                clocks[c] = rng.choice(ahead)
            else:
                clocks[c] += rng.choice([0, 0, 1, 300, rng.randint(1, 30_000),
                                         rng.randint(100_000, 1_500_000)])
            lat = rng.choice([k["hit_ns"], k["hit_ns"], 1, 100, rng.randint(1, 4000)])
            records.append((clocks[c], c, lat))
        records.sort(key=lambda r: (r[0], r[1]))

        report = apply_model(FaultTrace.from_records(records), config, params)
        tl = report.timeline
        got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes,
                       tl.modeled_latency_ns))
        want, hits, misses, saved, penalty = _reference_replay(
            records, width, interval_ms, cores, params
        )
        context = f"case {case}: w={width} iv={interval_ms} p={params}"
        assert got == want, context
        assert (report.hits, report.misses) == (hits, misses), context
        assert (report.saved_ns, report.penalty_ns) == (saved, penalty), context
    assert time.monotonic() - start < 5.0


def test_long_miss_runs_match_oracle():
    # Saturated replays, where a core misses in runs of up to hundreds of
    # faults between ticks and landings: 2-3 cores with 300-1500 faults each,
    # gaps of 0 to 3 us against a refill budget of 0-10 records a tick.
    # A miss penalty of 1 cycle rounds to 0 ns; with hits whose latency
    # equals hit_ns the recorded times are then the keys, so faults aimed
    # at a landing or a tick hit the tie rules exactly. A penalty of
    # 30000 cycles (10 us) moves each later fault of a run by its place in
    # the run, and drives runs across several ticks.
    start = time.monotonic()
    rng = random.Random(40404)
    param_choices = [
        ModelParameters(mfoe_miss_penalty_cycles=1, background_throughput_pages_per_s=bg)
        for bg in (1000, 1500, 5000)
    ] + [
        ModelParameters(mfoe_miss_penalty_cycles=30_000, background_throughput_pages_per_s=bg)
        for bg in (1000, 1500, 5000)
    ]
    for case in range(36):
        params = param_choices[case % len(param_choices)]
        cores = rng.choice([2, 3])
        width = rng.choice([1, 2, 4])
        interval_ms = rng.choice([0.7, 2.0])
        config = TraceModelConfig(width=width, refresh_interval_ms=interval_ms, cores=cores)
        k = model_constants(config, params)
        assert k["budget_per_tick"] <= 10
        assert k["miss_penalty_ns"] in (0, 10_000)
        ticks = [cores * width * k["init_page_ns"] + i * k["interval_ns"] for i in range(1, 40)]
        marks = sorted(
            [(p + 1) * k["init_page_ns"] for p in range(cores * width)]
            + [t + j * k["record_ns"] for t in ticks for j in range(k["budget_per_tick"] + 2)]
        )

        records = []
        for c in range(cores):
            clock = rng.choice([0, rng.randint(0, 2_000_000)])
            for _ in range(rng.randint(300, 1500)):
                ahead = [m for m in marks if m >= clock][:3]
                if ahead and rng.random() < 1 / 4:
                    clock = rng.choice(ahead)
                else:
                    clock += rng.choice([0, 0, 0, 1, rng.randint(1, 3000)])
                lat = rng.choice([k["hit_ns"], k["hit_ns"], rng.randint(1, 4000)])
                records.append((clock, c, lat))
        records.sort(key=lambda r: (r[0], r[1]))

        report = apply_model(FaultTrace.from_records(records), config, params)
        tl = report.timeline
        got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes,
                       tl.modeled_latency_ns))
        want, hits, misses, saved, penalty = _reference_replay(
            records, width, interval_ms, cores, params
        )
        context = f"case {case}: w={width} iv={interval_ms} p={params}"
        assert misses > 4 * hits, context
        assert got == want, context
        assert (report.hits, report.misses) == (hits, misses), context
        assert (report.saved_ns, report.penalty_ns) == (saved, penalty), context
    assert time.monotonic() - start < 20.0


def _streak_ends(timeline, first_tick, interval_ns):
    """How an oracle timeline's hit streaks end, per core: at the cap (a
    hit followed by a miss in the same window), at a tick (two hits with
    a tick between their effective times), or with the core's faults (its
    last fault a hit). A core's effective time is the running maximum of
    its adjusted times."""
    ends = {"cap": 0, "tick": 0, "last": 0}
    last: dict[int, tuple[int, int]] = {}
    for _, adj, core, outcome, _ in timeline:
        eff = max(adj, last[core][0]) if core in last else adj
        window = max(0, (eff - first_tick) // interval_ns + 1)
        if core in last:
            prev_eff, prev_outcome = last[core]
            prev_window = max(0, (prev_eff - first_tick) // interval_ns + 1)
            if prev_outcome == OUTCOME_HIT and window == prev_window:
                ends["cap"] += outcome == OUTCOME_MISS
            elif prev_outcome == OUTCOME_HIT and outcome == OUTCOME_HIT:
                ends["tick"] += 1
        last[core] = (eff, outcome)
    ends["last"] = sum(outcome == OUTCOME_HIT for _, outcome in last.values())
    return ends


def test_hit_streaks_match_oracle():
    # Unsaturated replays on 2-4 cores: small pools and a refill budget of
    # 29-116 records a tick, so a core serves hits in streaks that run to
    # the pool's cap, stop at a tick, or end with the core's faults. Some
    # cases record most latencies below hit_ns, so hits grow the shift and
    # the savings, which come from the final shifts, go negative. Penalties
    # of 0 ns and 10 us; each case is checked again as a one-cell sweep.
    start = time.monotonic()
    rng = random.Random(50505)
    ends = {"cap": 0, "tick": 0, "last": 0}
    negative = 0
    for case in range(48):
        params = ModelParameters(mfoe_miss_penalty_cycles=(1, 30_000)[case % 2])
        cores = rng.choice([2, 3, 4])
        width = rng.choice([2, 4, 8, 16])
        interval_ms = rng.choice([0.05, 0.1, 0.2])
        config = TraceModelConfig(width=width, refresh_interval_ms=interval_ms, cores=cores)
        k = model_constants(config, params)
        assert k["miss_penalty_ns"] in (0, 10_000)
        hit_ns = k["hit_ns"]
        first_tick = cores * width * k["init_page_ns"] + k["interval_ns"]
        ticks = [first_tick + i * k["interval_ns"] for i in range(40)]
        below = case % 3 == 0
        records = []
        for c in range(cores):
            clock = rng.randint(0, first_tick)
            for _ in range(rng.randint(60, 250)):
                ahead = [t for t in ticks if t >= clock][:2]
                if ahead and rng.random() < 1 / 8:
                    clock = rng.choice(ahead) - rng.choice([0, 0, 1])
                else:
                    clock += rng.choice([0, 1, rng.randint(1, 2000), rng.randint(1, 20_000)])
                lat = rng.choice(
                    [1, hit_ns - 1, hit_ns - 1, rng.randint(1, 2 * hit_ns)] if below
                    else [1, hit_ns, rng.randint(1, 4000), rng.randint(1, 4000)]
                )
                records.append((clock, c, lat))
        records.sort(key=lambda r: (r[0], r[1]))
        trace = FaultTrace.from_records(records)

        report = apply_model(trace, config, params)
        tl = report.timeline
        got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes,
                       tl.modeled_latency_ns))
        want, hits, misses, saved, penalty = _reference_replay(
            records, width, interval_ms, cores, params
        )
        context = f"case {case}: w={width} iv={interval_ms} p={params}"
        assert got == want, context
        assert (report.hits, report.misses) == (hits, misses), context
        assert (report.saved_ns, report.penalty_ns) == (saved, penalty), context
        cell = sweep(trace, [width], [interval_ms], params=params, cores=cores).cells[0].report
        assert cell.to_json_dict() == report.to_json_dict(), context
        assert len(cell.timeline) == 0, context
        for name, count in _streak_ends(want, first_tick, k["interval_ns"]).items():
            ends[name] += count
        negative += saved < 0
    assert min(ends.values()) >= 50, ends
    assert negative >= 8
    assert time.monotonic() - start < 10.0


def test_miss_run_bounds_and_lean_hits_match_oracle(monkeypatch):
    # Replays aimed at the edges of a miss run's two bisects and of the hit
    # loop, at 1 GHz. Half the cases are saturated (pools of 1-4 frames,
    # 5-20 records a tick, dense faults), for long miss runs, and half are
    # not (a 100-record budget), for streaks that run into a tick. The
    # penalty q divides the 50 us interval, and in two cases of three
    # every hit's latency is hit_ns or hit_ns + q, so a
    # core's shift stays a multiple of q. A fault aimed at a landing or a
    # tick moved by a multiple of q then falls exactly at a run's limit
    # less the shift, or 1 ns before it, and its key exactly at a tick.
    # The other cases record most latencies below hit_ns. The replay's
    # bisect_left calls are recorded: a miss run makes two, the upper bound
    # over the core's remainder and the lower bound below it, and the
    # run's end is found again by brute force. Each case is checked against
    # the oracle, and again as a one-cell sweep.
    calls = []

    def recording(a, x, lo, hi):
        i = bisect.bisect_left(a, x, lo, hi)
        calls.append((a, x, lo, hi, i))
        return i

    monkeypatch.setattr(trace_module, "bisect_left", recording)
    start = time.monotonic()
    rng = random.Random(60606)
    seen = dict.fromkeys(("inside", "at_limit", "below_limit", "tick_limit",
                          "key_at_tick", "key_not_above", "lat_below"), 0)
    for case in range(36):
        saturated, below = case % 2 == 0, case % 3 == 2
        q = rng.choice([2_500, 5_000] if saturated else [12_500, 25_000])
        params = ModelParameters(
            clock_hz=1_000_000_000, mfoe_miss_penalty_cycles=q,
            background_throughput_pages_per_s=(
                rng.choice([100_000, 160_000, 400_000]) if saturated else 2_000_000),
        )
        cores = rng.choice([2, 3])
        width = rng.choice([1, 2, 4] if saturated else [4, 8, 16])
        config = TraceModelConfig(width=width, refresh_interval_ms=0.05, cores=cores)
        k = model_constants(config, params)
        hit_ns, iv, miss_ns = k["hit_ns"], k["interval_ns"], k["miss_penalty_ns"]
        assert miss_ns == q and iv % q == 0
        first_tick = cores * width * k["init_page_ns"] + iv
        bases = ([(p + 1) * k["init_page_ns"] for p in range(cores * width)]
                 + [first_tick + j * k["record_ns"] for j in range(k["budget_per_tick"] + 2)])
        records = []
        for c in range(cores):
            clock = rng.randint(0, first_tick)
            for _ in range(rng.randint(100, 300)):
                if rng.random() < 1 / 3:
                    # the first point of a base's grid past the clock, or
                    # the one after it, or 1 ns before either; half of
                    # them on the ticks' grid
                    b = first_tick if rng.random() < 1 / 2 else rng.choice(bases)
                    clock = b - (b - clock - 1) // q * q + rng.choice([0, 0, q]) - rng.choice([0, 1])
                elif saturated:
                    clock += rng.choice([0, 0, 1, rng.randint(1, q // 4), rng.randint(1, q),
                                         rng.randint(1, iv)])
                else:
                    clock += rng.choice([0, 1, rng.randint(1, 5_000), rng.randint(1, iv // 4)])
                lat = rng.choice([1, hit_ns - 1, hit_ns, rng.randint(1, 2 * hit_ns)] if below
                                 else [hit_ns, hit_ns, hit_ns, hit_ns + q])
                records.append((clock, c, lat))
        records.sort(key=lambda r: (r[0], r[1]))
        trace = FaultTrace.from_records(records)

        calls.clear()
        report = apply_model(trace, config, params)
        tl = report.timeline
        got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes,
                       tl.modeled_latency_ns))
        want, hits, misses, saved, penalty = _reference_replay(
            records, width, 0.05, cores, params
        )
        context = f"case {case}: w={width} p={params}"
        assert got == want, context
        assert (report.hits, report.misses) == (hits, misses), context
        assert (report.saved_ns, report.penalty_ns) == (saved, penalty), context

        keys = {c: [] for c in range(cores)}
        for _, adj, c, _, _ in want:
            keys[c].append(adj)
        core_of = {id(trace.core_times[c]): c for c in trace.core_times}
        assert len(calls) % 2 == 0, context
        for (a, x, lo, hi, top), (b, y, b_lo, b_hi, bottom) in zip(calls[::2], calls[1::2]):
            assert (b, b_lo, b_hi, hi) == (a, lo, top, len(a)), context
            p = lo - 1
            assert x - y == (top - p) * miss_ns, context
            end = next((j for j in range(lo, top) if a[j] + (j - p) * miss_ns >= x), top)
            assert bottom <= end <= top, context
            seen["inside"] += bottom < end < top
            seen["at_limit"] += top < len(a) and a[top] == x
            seen["below_limit"] += top - 1 > p and a[top - 1] == x - 1
            # the limit is the next landing or the tick; one at a tick is
            # still cached when the next window opens
            limit = x + keys[core_of[id(a)]][p] - a[p]
            seen["tick_limit"] += (end < len(a) and limit >= first_tick
                                   and (limit - first_tick) % iv == 0)

        lats = trace.core_lats
        served = dict.fromkeys(lats, 0)
        last = {}
        for _, adj, c, outcome, _ in want:
            hit = outcome == OUTCOME_HIT
            seen["lat_below"] += hit and lats[c][served[c]] < hit_ns
            served[c] += 1
            if c in last:
                prev, prev_hit = last[c]
                seen["key_not_above"] += hit and adj <= prev
                seen["key_at_tick"] += (hit and prev_hit and prev < adj and adj >= first_tick
                                        and (adj - first_tick) % iv == 0)
            last[c] = (max(adj, last[c][0]) if c in last else adj, hit)

        cell = sweep(trace, [width], [0.05], params=params, cores=cores).cells[0].report
        assert cell.to_json_dict() == report.to_json_dict(), context
        assert len(cell.timeline) == 0, context
    assert min(seen.values()) >= 50, seen
    assert time.monotonic() - start < 10.0


# Python lines _replay runs (sys.settrace "line" events in its own frame)
# on a 4-core gcc trace of 0.01 s (14,624 faults, seed 1), swept over
# widths 64 and 128 x intervals 0.5 and 2 ms (hit rates 0.09-0.35), and
# replayed once with apply_model at width 64, 0.5 ms. Measured on CPython
# 3.11: 175,108 lines for 58,496 cell-faults, 2.99 a cell-fault, and
# 76,460 for 14,624 faults, 5.23 a fault (5.82 while a hit appended its
# core, outcome and latency to the timeline one at a time; 3.58 and 6.71
# while a miss run's end took a binary search over the core's remainder,
# a hit compared its effective time with the tick, and a core with an
# empty pool recounted its ramps before its next landing). The bounds are
# these plus the 10% margin of the call guards in test_sim.py; a change
# that adds lines on purpose re-pins both numbers here and says why.
_REPLAY_LINES_PER_CELL_FAULT = 2.99
_REPLAY_LINES_PER_FAULT = 5.23
_LINES_MARGIN = 1.10


def test_a_replayed_fault_costs_a_bounded_number_of_lines():
    trace = synthesize_profile("gcc", 0.01, cores=4, seed=1)
    grid, lines = count_lines(trace_module._replay, lambda: sweep(trace, [64, 128], [0.5, 2.0]))
    cell_faults = len(trace) * len(grid.cells)
    assert len(trace) == 14_624
    assert lines / cell_faults <= _REPLAY_LINES_PER_CELL_FAULT * _LINES_MARGIN, (
        f"{lines} lines for {cell_faults} cell-faults: {lines / cell_faults:.2f} a cell-fault")
    config = TraceModelConfig(width=64, refresh_interval_ms=0.5)
    report, lines = count_lines(trace_module._replay, lambda: apply_model(trace, config))
    assert 0 < report.hit_rate < 1 and len(report.timeline) == len(trace)
    assert lines / len(trace) <= _REPLAY_LINES_PER_FAULT * _LINES_MARGIN, (
        f"{lines} lines for {len(trace)} faults: {lines / len(trace):.2f} a fault")


@pytest.mark.parametrize(
    "records,width,cores,core_order",
    [
        # Width 2 on two cores fills by 3660 ns; ticks every 2 ms from
        # 2003660. The first and last windows each hold one fault.
        (
            [(1_000_000, 0, 851), (3_000_000, 1, 851), (3_100_000, 0, 851),
             (7_000_000, 0, 851)],
            2, 2, [0, 1, 0, 0],
        ),
        # One core, about seven faults a window, misses and restocks.
        ([(300_000 * i, 0, 851) for i in range(1, 41)], 2, 1, [0] * 40),
        # Core 0's hit (851 - 26 ns saved) pulls its 1000825 fault to
        # 1000000, the time of core 1's fault: core order breaks the tie.
        ([(900_000, 0, 851), (1_000_000, 1, 851), (1_000_825, 0, 851)], 4, 2, [0, 0, 1]),
        # Core 0's first hit saves 4974 ns, so its next two faults shift
        # below 1000000 and are served at it, in their order, before
        # core 1's fault at that time.
        (
            [(1_000_000, 0, 5000), (1_000_000, 1, 851), (1_002_000, 0, 851),
             (1_003_000, 0, 851)],
            4, 2, [0, 0, 0, 1],
        ),
    ],
    ids=["one-fault-windows", "one-core", "core-order-tie", "per-core-order-tie"],
)
def test_timeline_merge_edges_match_oracle(records, width, cores, core_order):
    params = ModelParameters()
    report = apply_model(
        FaultTrace.from_records(records), TraceModelConfig(width=width, cores=cores), params
    )
    tl = report.timeline
    got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes, tl.modeled_latency_ns))
    want, hits, misses, _, _ = _reference_replay(records, width, 2.0, cores, params)
    assert got == want
    assert (report.hits, report.misses) == (hits, misses)
    assert list(tl.core_ids) == core_order


def test_window_over_one_pack_block_matches_oracle():
    # 5200 faults on two cores, all served before the first tick: one
    # window, merged and packed in a full block and a partial one. The
    # 64-frame pools give the window hits, which pull a core's later
    # faults earlier and reorder the merge, as well as misses.
    records = sorted(
        [(20_000 + 350 * i, 0, 851 + i % 7) for i in range(2600)]
        + [(20_175 + 350 * i, 1, 900) for i in range(2600)]
    )
    params = ModelParameters()
    config = TraceModelConfig(width=64, cores=2)
    report = apply_model(FaultTrace.from_records(records), config, params)
    tl = report.timeline
    k = model_constants(config, params)
    assert max(tl.adjusted_ns) < 2 * 64 * k["init_page_ns"] + k["interval_ns"]
    got = list(zip(tl.orig_ns, tl.adjusted_ns, tl.core_ids, tl.outcomes, tl.modeled_latency_ns))
    want, hits, misses, _, _ = _reference_replay(records, 64, 2.0, 2, params)
    assert got == want
    assert (report.hits, report.misses) == (hits, misses)
    assert 0 < hits < len(records)


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 8193])
def test_timeline_csv_matches_per_row_reference(tmp_path, rows):
    # Signed 64-bit edges in the three time columns; cores over the whole
    # range a replay models, the last core's hit (code 2047) among them.
    rng = random.Random(rows)
    edges = [-(1 << 63), (1 << 63) - 1, 0, -1]
    orig, adj, lat = (
        array("q", [rng.choice(edges) if rng.random() < 0.1 else rng.randrange(-10**15, 10**15)
                    for _ in range(rows)])
        for _ in range(3)
    )
    cores = [rng.choice((0, MAX_CORES - 1)) if rng.random() < 0.1 else rng.randrange(MAX_CORES)
             for _ in range(rows)]
    outcomes = [rng.choice((OUTCOME_MISS, OUTCOME_HIT)) for _ in range(rows)]
    if rows:
        cores[-1], outcomes[-1] = MAX_CORES - 1, OUTCOME_HIT
    codes = array("H", [2 * c + out for c, out in zip(cores, outcomes)])
    tl = Timeline(orig, adj, codes, lat)
    assert (list(tl.core_ids), list(tl.outcomes)) == (cores, outcomes)
    lines = [TIMELINE_HEADER] + [
        f"{o},{a},{c},{OUTCOME_NAMES[out]},{la}"
        for o, a, c, out, la in zip(orig, adj, cores, outcomes, lat)
    ]
    if rows:
        assert codes[-1] == 2047 and lines[-1].split(",")[2:4] == ["1023", "hit"]
    path = tmp_path / "timeline.csv"
    write_blocks(path, tl.csv_blocks())
    assert path.read_text() == "".join(line + "\n" for line in lines)
    assert list(block_rows(tl.csv_blocks())) == lines


def test_degenerate_overlap_reports_infinite_speedup():
    # Both faults overlap almost entirely; removing their latencies saves
    # more than the whole bracket, which the report pins at infinity.
    trace = FaultTrace.from_records(
        [(1_000_000, 0, 5_000_000), (1_000_010, 0, 5_000_000)]
    )
    report = apply_model(trace, TraceModelConfig(width=256))
    assert report.modeled_runtime_ns <= 0
    assert report.speedup == math.inf
    assert report.residual_overhead_fraction == 0.0


def test_model_report_json_schema():
    trace = FaultTrace.from_records([(1_000_000, 0, 851)])
    doc = json.loads(apply_model(trace).to_json())
    assert doc["schema"] == "mfoesim.modelreport/1"
    assert doc["faults"] == 1
    assert "timeline" not in doc
    assert doc["config"]["width"] == 256
    assert doc["config"]["hit_ns"] == 26


def test_timeline_csv_layout():
    trace = FaultTrace.from_records([(100, 0, 50)])
    report = apply_model(trace, TraceModelConfig(width=4), GHZ1)
    rows = list(block_rows(report.timeline.csv_blocks()))
    assert rows[0] == TIMELINE_HEADER
    assert rows[1] == "100,100,0,miss,64"


# synthesis


def test_uniform_rate_is_exact():
    trace = synthesize(100_000, 1.0, dist="uniform")
    assert len(trace) == 100_000
    assert trace.timestamps_ns[0] == 0
    assert trace.timestamps_ns[1] == 10_000
    assert trace.core_ids[0] == 0


def test_poisson_count_within_three_sigma():
    trace = synthesize(100_000, 1.0, dist="poisson", seed=5)
    assert abs(len(trace) - 100_000) <= 3 * math.sqrt(100_000)


def test_synthesis_is_seed_deterministic():
    a = synthesize(50_000, 0.1, dist="poisson", cores=2, seed=9)
    b = synthesize(50_000, 0.1, dist="poisson", cores=2, seed=9)
    assert list(a.timestamps_ns) == list(b.timestamps_ns)
    assert list(a.latencies_ns) == list(b.latencies_ns)
    c = synthesize(50_000, 0.1, dist="poisson", cores=2, seed=10)
    assert list(a.timestamps_ns) != list(c.timestamps_ns)


def test_multi_core_synthesis_interleaves_sorted():
    trace = synthesize(10_000, 0.1, cores=4, seed=1)
    assert trace.core_count == 4
    times = list(trace.timestamps_ns)
    assert times == sorted(times)
    per_core = [0] * 4
    for c in trace.core_ids:
        per_core[c] += 1
    assert per_core == [1000] * 4
    trace.validate()


def test_constant_latency_when_p95_collapses():
    trace = synthesize(10_000, 0.01, latency_mean_ns=500, latency_p95_ns=500)
    assert set(trace.latencies_ns) == {500}


def test_default_latency_statistics():
    trace = synthesize(100_000, 1.0, dist="uniform", seed=2)
    mean = sum(trace.latencies_ns) / len(trace)
    assert abs(mean - 851) / 851 < 0.02


def test_poisson_synthesis_equals_the_stdlib_draws():
    # the generator inlines rng.expovariate(1.0) and draws latencies through
    # LatencySampler.drawer; the stdlib calls, in the same order, are the
    # oracle for every timestamp and latency
    rate, duration_ns, mean, p95 = 200_000, 10_000_000, 800, 2000
    trace = synthesize(rate, duration_ns / 1e9, dist="poisson", cores=3, seed=4,
                       latency_mean_ns=mean, latency_p95_ns=p95)
    sigma = Z95 - math.sqrt(Z95 * Z95 - 2.0 * math.log(p95 / mean))
    mu = math.log(mean) - sigma * sigma / 2.0
    for c in range(3):
        rng = random.Random(f"4:{c}")
        acc, times, lats = 0.0, [], []
        while True:
            acc += rng.expovariate(1.0) * (1e9 / rate)
            if round(acc) >= duration_ns:
                break
            times.append(round(acc))
            lats.append(max(1, round(rng.lognormvariate(mu, sigma))))
        assert len(times) > 1500
        assert list(trace.core_times[c]) == times
        assert list(trace.core_lats[c]) == lats


class _Drawn(Exception):
    pass


def _no_draw(self, rng):
    raise _Drawn


@pytest.mark.parametrize("kwargs, message", [
    (dict(rate_per_core=1000, duration_s=1.0, cores=5000), "cores must be at most 1024, got 5000"),
    (dict(rate_per_core=1e300, duration_s=1.0), "1e\\+300 faults, more than the 40000000"),
    (dict(rate_per_core=1e7, duration_s=5.0), "5e\\+07 faults, more than the 40000000"),
    (dict(rate_per_core=1e6, duration_s=1.0, cores=41), "4.1e\\+07 faults"),
    (dict(rate_per_core=1e-320, duration_s=1.0), "rate out of range: inf ns"),
    (dict(rate_per_core=1000, duration_s=1e300), "duration out of range: inf ns"),
    (dict(rate_per_core=1e-9, duration_s=1e12), "duration out of range: 1e\\+21 ns"),
], ids=["cores", "rate-1e300", "rate-x-duration", "rate-x-cores", "rate-1e-320", "duration-1e300",
        "timestamps-past-64-bits"])
@pytest.mark.parametrize("dist", ["uniform", "poisson"])
def test_synthesize_limits_are_checked_before_any_draw(monkeypatch, kwargs, message, dist):
    # each refused case would size columns by an absurd count or overflow
    # a timestamp; the spy proves it is refused before anything is drawn
    monkeypatch.setattr(LatencySampler, "drawer", _no_draw)
    with pytest.raises(ValueError, match=message):
        synthesize(dist=dist, **kwargs)


def test_largest_documented_synthesis_is_under_the_cap(monkeypatch):
    # the README's largest example, the gcc profile for 10 s, gets as far
    # as its first draw (the spy stops it there)
    assert trace_module.MAX_SYNTHESIZED_FAULTS >= 10 * 10 * WORKLOAD_PROFILES["gcc"].faults_per_s
    assert trace_module.MAX_CORES == 1024
    monkeypatch.setattr(LatencySampler, "drawer", _no_draw)
    with pytest.raises(_Drawn):
        synthesize_profile("gcc", 10.0)
    with pytest.raises(_Drawn):
        synthesize(1.0, 1.0, cores=1024)


# trace.csv digests from the CLI, pinned before the generator's draw and
# writer were rewritten: any change to what synthesize writes moves one
_TRACE_PINS = [
    (["--profile", "gcc", "--cores", "4", "--seed", "7", "--duration", "0.01"], 14_674,
     "a65a09d1c8d531d4b825d85cb1b13220285cae28fc0ca0395894ef7929b860d4"),
    (["--rate", "50000", "--dist", "uniform", "--cores", "2"], 100_000,
     "b226ab23304f75c033812ff624ed48cc7755f0c68412d5aa925bfa33f1dd090d"),
    (["--rate", "20000", "--dist", "poisson", "--cores", "3", "--duration", "0.05",
      "--latency-mean-ns", "900", "--latency-p95-ns", "900", "--seed", "3"], 3_023,
     "5649ad3286626666189334390b18a1658a70a7647b2baf9f28107abca39f41d8"),
]


@pytest.mark.parametrize("argv, events, digest", _TRACE_PINS,
                         ids=["poisson-gcc", "uniform", "constant-latency"])
def test_synthesized_trace_digests_are_pinned(tmp_path, argv, events, digest):
    assert cli_main(["synthesize", *argv, "--out-dir", str(tmp_path)]) == 0
    data = (tmp_path / "trace.csv").read_bytes()
    assert data.count(b"\n") == events + 1
    assert hashlib.sha256(data).hexdigest() == digest


def test_synthesize_argument_validation():
    with pytest.raises(ValueError, match="rate"):
        synthesize(0, 1.0)
    with pytest.raises(ValueError, match="duration"):
        synthesize(1000, 0)
    with pytest.raises(ValueError, match="core"):
        synthesize(1000, 1.0, cores=0)
    with pytest.raises(ValueError, match="distribution"):
        synthesize(1000, 1.0, dist="pareto")


def test_profile_table_is_complete():
    assert set(WORKLOAD_PROFILES) == {
        "gcc", "faas", "dedup", "memcached", "radix", "fft",
        "xsbench", "gap-bc", "integer-sort",
    }
    gcc = WORKLOAD_PROFILES["gcc"]
    assert gcc.faults_per_s == 365_310
    assert gcc.latency_mean_ns() == round(0.2909e9 / 365_310)


def test_memcached_profile_reproduces_overhead():
    trace = synthesize_profile("memcached", 1.0, seed=4)
    target = WORKLOAD_PROFILES["memcached"].overhead_fraction
    overhead = sum(trace.latencies_ns) / trace.total_runtime_ns
    assert abs(overhead - target) / target < 0.05


def test_unknown_profile_lists_known_names():
    with pytest.raises(ValueError, match="memcached"):
        synthesize_profile("doom", 1.0)


# sweeps


def test_sweep_covers_default_grid_row_major():
    trace = synthesize(20_000, 0.05, seed=6)
    grid = sweep(trace)
    assert [(c.width, c.interval_ms) for c in grid.cells] == [
        (w, iv) for w in DEFAULT_WIDTHS for iv in DEFAULT_INTERVALS_MS
    ]
    rows = list(block_rows(grid.csv_blocks()))
    assert rows[0] == "width,interval_ms,hit_rate,overhead_pct,speedup"
    assert len(rows) == 21
    doc = grid.to_json_dict()
    assert doc["schema"] == "mfoesim.sweepgrid/1"
    assert len(doc["cells"]) == 20
    assert doc["cells"][0]["width"] == 128


def test_single_cell_sweep_matches_direct_replay():
    trace = synthesize(20_000, 0.05, seed=6)
    grid = sweep(trace, widths=[256], intervals_ms=[2.0])
    assert len(grid.cells) == 1
    direct = apply_model(trace, TraceModelConfig(width=256, refresh_interval_ms=2.0))
    cell = grid.cells[0]
    assert (cell.width, cell.interval_ms) == (256, 2.0)
    assert cell.report.hit_rate == direct.hit_rate
    assert cell.report.speedup == direct.speedup


def test_sweep_cells_match_direct_replay_field_by_field():
    # sweep replays without a timeline, on a path of its own; every
    # reported figure must still equal a direct replay of the same cell
    trace = synthesize_profile("gcc", 0.004, cores=3, seed=12)
    params = ModelParameters(background_throughput_pages_per_s=100_000)
    grid = sweep(trace, widths=[2, 16, 128], intervals_ms=[0.05, 0.5], params=params)
    fields = ("hits", "misses", "hit_rate", "saved_ns", "penalty_ns", "speedup",
              "baseline_runtime_ns", "modeled_runtime_ns",
              "baseline_overhead_fraction", "residual_overhead_fraction")
    for cell in grid.cells:
        direct = apply_model(
            trace, TraceModelConfig(width=cell.width, refresh_interval_ms=cell.interval_ms), params
        )
        assert 0 < direct.hits < len(trace), (cell.width, cell.interval_ms)
        for name in fields:
            assert getattr(cell.report, name) == getattr(direct, name), (cell.width, name)
        assert cell.report.config == direct.config
        assert len(cell.report.timeline) == 0
        assert len(direct.timeline) == len(trace)


def test_sweep_rejects_empty_grids():
    trace = synthesize(1000, 0.01)
    with pytest.raises(ValueError, match="nonempty"):
        sweep(trace, widths=[])
