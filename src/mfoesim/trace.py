"""Trace replay model for hardware-serviced minor faults.

Replays a recorded fault trace against a chosen table geometry and
answers two questions: which faults would the engine have absorbed, and
what would the timeline have looked like. All arithmetic is integer
nanoseconds so replays are exactly reproducible.

Mechanics:

- Per-core frame pools start empty and fill sequentially, core 0 first,
  one frame landing per page at the enable-time fill throughput.
- Once the fill completes, a periodic pass (a tick) every refresh
  interval turns frames consumed by hits back into available frames.
  The tick takes the per-core consumed counts, walks cores round-robin
  (the start core rotates each tick), and lands one frame per recycled
  record at the background throughput, capped by the per-tick budget
  interval_ns * pages_per_s // 1e9. The interval and the two per-page
  costs are their settings rounded to whole ns (params.background_timing),
  and a setting that rounds below 1 ns is refused.
- A fault is a hit when its core's pool is non-empty at its effective
  time: the pool shrinks by one, the fault costs the hit time, and all
  later faults on that core move earlier by (recorded latency - hit
  time). Otherwise it is a miss: the fault costs its recorded latency
  plus the miss penalty, and later same-core faults move later by the
  penalty.

Storage. A FaultTrace keeps its core ids in trace order and, for each
core id that occurs, that core's timestamps and latencies as two columns:
the per-core split the replay runs on. With them it carries each core's
totals, its latest completion (timestamp plus latency) and its latency
sum, which give the baseline runtime and overhead a replay reports.
Records enter a trace only through _split, which checks them, splits them
by core (a chunk on one core keeps its columns as they are) and adds each
chunk's totals; the constructor, the bulk chunk parse and the line loop
of ingest all call it. ingest reads bytes. The bulk parse vouches for a
chunk's grammar and line shape with one bytes.translate and a compare,
and reads all its integers with one json.loads; the line loop decides
every chunk the bulk parse refuses, and itself only decodes lines, skips
comment and blank lines and parses integers. When _split refuses
records, _bad_record names the first bad one. synthesize builds
the columns core by core and leaves the totals to be counted on first
read, so generating and writing a trace never pays for them. Interleaved
columns are built on request, and trace.csv is written from the per-core
columns: each core's rows are formatted a block per % call, and core_ids
interleaves their lines.

How the replay computes this, exactly and without an event queue:

- Windows. Ticks fire at fill_end + k * interval (k >= 1) whatever the
  faults do, and cores interact only there, through the consumed counts
  the tick reads. So the replay runs one window between ticks at a time,
  and within it one linear pass per core over that core's faults. A
  window with nothing to recycle is skipped, counting its ticks for the
  start-core rotation.
- Ramps. Landings form arithmetic ramps (start, step, count), frame j
  landing at start + j * step: the fill lands core c's frames at
  (c * width + j) * init_page_ns, and a tick at T that recycles take frames
  for a core after landed frames for earlier cores lands them at
  T + (landed + j) * record_ns. Each core keeps its live ramps (a ramp
  can spill past the next tick); the frames landed by time e are
  clamp((e - start) // step, 0, count) per ramp.
- Effective time. A fault's shifted timestamp (recorded time plus its
  core's accumulated shift) is its adjusted timestamp in the timeline.
  After a hit it can fall below the previous fault's; the fault is then
  served at once, so each core serves at the running maximum of its
  shifted timestamps, and every decision uses that effective time.
- Ties. A landing at a fault's effective time counts for that fault. A
  tick at T books the hits served before T; a fault served at T or
  later belongs to the next window.
- Streaks. A core caches cap, its landings as last counted from its
  ramps, and land, the next landing after that count or the tick if
  none comes sooner. Its pool is empty when its hits reach cap, and
  only then are the ramps recounted, and only once its effective time
  reaches land: before it nothing new has landed, since arrivals only
  grow and a tick adds only ramps that land after it. When the recount
  finds new frames, the next cap - hits faults are hits unless served
  at or after the tick, so they are served as one streak: a loop over
  slices of the core's columns in which only the fault's key, the
  core's effective time and shift, and the timeline move. Every fault
  a window serves is served before its tick, so a fault is served at
  or after the tick exactly when its key reaches it, and the streak
  stops at the first such key. The hit count grows by the streak's
  length once it ends.
- Miss runs. When the pool is empty and nothing new has landed, the
  fault at p misses, and nothing lands before land (at most the tick).
  Each miss moves the core's later faults by exactly the penalty, so fault
  j's key is times[j] + shift + (j - p) * penalty, and keys never
  decrease. So every fault up to the first key that reaches land
  misses too. That fault is no later than hi, the first recorded at or
  after land - shift, and no earlier than the first recorded at or
  after land - shift - (hi - p) * penalty; two bisects of the core's
  times find both, a binary search between them finds the fault (no
  step at a zero penalty), and the run is booked in one step. Its
  effective times are its first fault's for every key up to that time,
  then the keys themselves (one bisect splits them). So the replay
  costs per hit, per streak and per miss run, not per miss.
- Savings. A core's shift is its misses times the penalty less what its
  hits saved (latency minus hit time, which is negative for a latency
  below the hit time), so saved_ns is the total penalty less the sum of
  the final shifts, exactly; no hit adds to a running sum.
- Order. The timeline lists faults in the order they are served: by
  effective time, then core index, then per-core order. A window keeps
  its timeline as columns, one core's run after another in core order,
  and each run is already ordered. A fault's core and outcome are one
  code, 2 * core + outcome, so a hit appends only its effective and
  shifted times; the codes and latencies of the hits a core served since
  its last miss run go in as one repeat each, at its next miss run or
  the end of its run, and a miss run's codes as one more. When two or
  more cores served the window, a stable sort of its positions on
  effective time merges their runs and one itemgetter takes every column
  in that order; a window one core served is in that order already, and
  skips both. List columns are then packed onto the timeline's arrays in
  bulk (_pack), and the original times, an array, appended when unmerged.
  sweep keeps no timeline and skips the merge. An empty trace ends the
  loop at once. timeline.csv is formatted a block of rows per % call
  (csv_blocks) from the arrays, one label per code (CodeLabels) giving the
  core and outcome fields, and sweep.csv by the same routine from lists.

Runtime accounting brackets the original trace from its first fault to
the completion of its latest-finishing fault. The modeled runtime is
that bracket minus total time saved plus total penalties, and the
speedup is the ratio of the two.
"""
from __future__ import annotations

import io
import json
import math
import random
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from itertools import chain, repeat
from math import log
from operator import add, floordiv, itemgetter, methodcaller, mod, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .params import (
    INT64_MAX,
    INT64_MIN,
    LatencySampler,
    ModelParameters,
    background_timing,
    check_finite_positive,
    checked_int,
)

OUTCOME_MISS = 0
OUTCOME_HIT = 1
OUTCOME_NAMES = ("miss", "hit")

TRACE_HEADER = "timestamp_ns,core,latency_ns"
TIMELINE_HEADER = "orig_timestamp_ns,adjusted_timestamp_ns,core,outcome,modeled_latency_ns"
SWEEP_HEADER = "width,interval_ms,hit_rate,overhead_pct,speedup"

# The most cores a replay models. It keeps columns and state per core id,
# so one stray core id must not size the run; no modeled machine comes
# near this.
MAX_CORES = 1024

DEFAULT_WIDTHS = (128, 256, 512, 1024)
DEFAULT_INTERVALS_MS = (2.0, 4.0, 8.0, 16.0, 32.0)

class TraceFormatError(ValueError):
    """Malformed trace file; carries the offending line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class FaultTrace:
    """Ordered minor-fault records with per-core wall-clock timestamps.

    Stored as integer arrays (see Storage in the module docstring):
    core_ids, and core_times[id] and core_lats[id] per core id. That is
    three columns plus two arrays per distinct core id, whatever the ids'
    values. timestamps_ns and latencies_ns build an interleaved column on
    each read. core_totals holds each core id's totals.
    """

    __slots__ = ("core_ids", "core_times", "core_lats", "_totals")

    def __init__(
        self,
        timestamps_ns: Iterable[int] = (),
        core_ids: Iterable[int] = (),
        latencies_ns: Iterable[int] = (),
    ):
        self.core_ids = array("q")
        self.core_times, self.core_lats = {}, {}
        # None until counted, for columns built without _split (synthesize)
        self._totals: Optional[dict[int, tuple[int, int]]] = {}
        ts, cs, ls = list(timestamps_ns), list(core_ids), list(latencies_ns)
        if not (len(ts) == len(cs) == len(ls)):
            raise ValueError("trace arrays have mismatched lengths")
        if not _split(self, ts, cs, ls):
            i, reason = _bad_record(ts, cs, ls, self)
            raise ValueError(f"record {i}: {reason}")

    @classmethod
    def from_records(cls, records: Iterable[tuple[int, int, int]]) -> "FaultTrace":
        return cls(*zip(*records))

    def validate(self) -> None:
        """Check the records again, as the constructor does, and the
        carried totals against them."""
        again = FaultTrace(self.timestamps_ns, self.core_ids, self.latencies_ns)
        if self.core_totals != again.core_totals:
            raise ValueError("per-core totals do not match the records")

    def __len__(self) -> int:
        return len(self.core_ids)

    @property
    def timestamps_ns(self) -> array:
        return self._interleave(self.core_times)

    @property
    def latencies_ns(self) -> array:
        return self._interleave(self.core_lats)

    def _interleave(self, columns: dict[int, array]) -> array:
        # one iterator per core, advanced by each record's core id
        heads = {c: iter(col) for c, col in columns.items()}
        return array("q", map(next, map(heads.__getitem__, self.core_ids)))

    @property
    def core_count(self) -> int:
        return max(self.core_times) + 1 if self.core_times else 0

    @property
    def core_totals(self) -> dict[int, tuple[int, int]]:
        """Each core id's latest completion (max of timestamp + latency)
        and latency sum. _split keeps them current; a trace whose columns
        were built without it counts them here once, on first read."""
        if self._totals is None:
            self._totals = _count_totals(self.core_times, self.core_lats)
        return self._totals

    @property
    def total_runtime_ns(self) -> int:
        """First fault to the completion of the latest-finishing fault."""
        end = max((e for e, _ in self.core_totals.values()), default=0)
        return end - min((t[0] for t in self.core_times.values()), default=0)

    def csv_blocks(self) -> Iterator[str]:
        """trace.csv as text blocks: the header line, then up to
        _BLOCK_ROWS rows per block in trace order. Each core's rows are
        formatted a block per % call (row_blocks) and split into lines,
        and core_ids takes them in turn, so each core holds at most one
        block of lines at a time."""
        lines = {}
        for c, t in self.core_times.items():
            blocks = row_blocks(f"%d,{c},%d\n", (t, self.core_lats[c]), {})
            lines[c] = chain.from_iterable(map(_keepends, blocks))
        yield TRACE_HEADER + "\n"
        ids = self.core_ids
        for s in range(0, len(ids), _BLOCK_ROWS):
            yield "".join(map(next, map(lines.__getitem__, ids[s:s + _BLOCK_ROWS])))


def _count_totals(
    times: Mapping[int, Sequence[int]], lats: Mapping[int, Sequence[int]]
) -> dict[int, tuple[int, int]]:
    """Each core's (latest completion, latency sum) over its columns."""
    return {c: (max(map(add, t, lats[c])), sum(lats[c])) for c, t in times.items()}


def _split(trace: FaultTrace, ts: list, cs: list, ls: list) -> bool:
    """Append the records to trace, each to its core's columns, and add
    them to its core's totals; False, with nothing changed, unless every
    core id is non-negative, every latency positive, every field within 64
    bits and no core's timestamps regress."""
    ids = set(cs)
    if min(ids, default=0) < 0 or min(ls, default=1) <= 0:
        return False
    if len(ids) == 1:
        # one core: its columns are the records' own
        (c,) = ids
        tparts, lparts = {c: ts}, {c: ls}
    else:
        tparts = {c: [] for c in ids}
        lparts = {c: [] for c in ids}
        tadd = {c: part.append for c, part in tparts.items()}
        ladd = {c: part.append for c, part in lparts.items()}
        for t, c, lat in zip(ts, cs, ls):
            tadd[c](t)
            ladd[c](lat)
    # (all arrays are built before any column grows: an overflow changes nothing)
    new = {}
    try:
        cores = _pack(cs)
        for c, part in tparts.items():
            col = trace.core_times.get(c)
            if part != sorted(part) or col and part[0] < col[-1]:
                return False
            new[c] = _pack(part), _pack(lparts[c])
    except OverflowError:
        return False
    # read first: a trace yet to count its totals counts its columns, which
    # must not hold these records yet
    totals = trace.core_totals
    trace.core_ids += cores
    for c, (t, lat) in new.items():
        trace.core_times.setdefault(c, array("q")).extend(t)
        trace.core_lats.setdefault(c, array("q")).extend(lat)
    for c, (end, lat_sum) in _count_totals(tparts, lparts).items():
        old_end, old_sum = totals.get(c, (end, 0))
        totals[c] = max(old_end, end), old_sum + lat_sum
    return True


def _bad_record(ts: list, cs: list, ls: list, trace: FaultTrace) -> tuple[int, str]:
    """The index of the first record that _split refuses, and why. The
    regression check starts from each core's last timestamp in trace."""
    last_per_core = {c: col[-1] for c, col in trace.core_times.items()}
    for i, (t, core, lat) in enumerate(zip(ts, cs, ls)):
        if not all(INT64_MIN <= v <= INT64_MAX for v in (t, core, lat)):
            return i, "field outside signed 64 bits"
        if core < 0:
            return i, "negative core id"
        if lat <= 0:
            return i, "latency must be positive"
        if t < last_per_core.get(core, t):
            return i, f"timestamp regresses on core {core}"
        last_per_core[core] = t


# ingest reads data lines in chunks of this many bytes and the rest of
# the line they end in. A chunk's strings and ints are all it holds
# beyond its output arrays, so the chunk stays small: on a 100k-line
# trace the traced peak was 1.2x the arrays at 16 KB and 3x at 256 KB,
# and larger chunks ran no faster.
_INGEST_CHUNK_BYTES = 1 << 14

# Rows joined per write() call, rows formatted per % call, and values
# packed per struct.pack call: one join, format or pack of every row
# held a command's peak memory.
_BLOCK_ROWS = 4096


def _pack(values: Sequence[int], typecode: str = "q") -> array:
    """values as an array of typecode ("q" by default; the timeline's codes
    use "H"), packed _BLOCK_ROWS at a time (array() of a list converts one
    value at a time). OverflowError, as from array(), if a value does not
    fit the typecode."""
    out = array(typecode)
    for s in range(0, len(values), _BLOCK_ROWS):
        part = values[s:s + _BLOCK_ROWS]
        try:
            out.frombytes(struct.pack(f"{len(part)}{typecode}", *part))
        except struct.error:
            # array() raises what it would have: OverflowError for a value
            # that does not fit, TypeError for one that is not an integer
            out.extend(array(typecode, part))
    return out


def ingest(path: str) -> FaultTrace:
    """Load a trace CSV; empty or comment-only files yield an empty trace.

    The file is read as bytes. The lines up to the header are decoded and
    checked one at a time. The data lines are then read in chunks, and
    each chunk is checked, parsed and split by core in bulk (_ingest_chunk).
    A chunk the bulk check refuses, for a comment or blank line, a syntax
    error or any form it cannot vouch for, is read again line by line,
    which accepts the comment and blank lines and raises TraceFormatError
    on the first bad line. The per-core regression check carries across
    chunks.

    A data field is an optional "-" and ASCII digits, nothing else: no
    spaces, tabs or other whitespace, no "+" and no "_", all of which
    int() would take, and no more digits than int() converts (4300 by
    default), leading zeros included. A line ends in "\n" or "\r\n", or
    at the end of the file; a carriage return anywhere else is refused,
    and so is a line that is not UTF-8.
    """
    trace = FaultTrace()
    # binary: only b"\n" ends a line, and a "\r" reaches the checks
    with open(path, "rb") as fh:
        line_no = 0
        for line_no, raw in enumerate(fh, 1):
            try:
                line = _line_body(raw).strip()
            except ValueError as exc:
                raise TraceFormatError(path, line_no, str(exc)) from None
            if not line or line.startswith("#"):
                continue
            if line != TRACE_HEADER:
                raise TraceFormatError(
                    path, line_no, f"expected header {TRACE_HEADER!r}, got {line!r}"
                )
            break
        # The size in bytes, then the rest of the line: a chunk ends after
        # the line that takes it past the size, where readlines(size)
        # would end it.
        while data := fh.read(_INGEST_CHUNK_BYTES) + fh.readline():
            n = data.count(b"\n") + (not data.endswith(b"\n"))
            if not _ingest_chunk(data, n, trace):
                _ingest_lines(path, io.BytesIO(data).readlines(), line_no, trace)
            line_no += n
    return trace


def _line_body(raw: bytes) -> str:
    """raw decoded, without its line ending, "\n" or "\r\n". ValueError,
    with the reason, if it is not UTF-8 or holds any other carriage
    return."""
    try:
        text = raw.decode()
    except UnicodeDecodeError:
        raise ValueError("not UTF-8") from None
    if text.endswith("\n"):
        text = text[:-2] if text.endswith("\r\n") else text[:-1]
    if "\r" in text:
        raise ValueError("carriage return not before a newline")
    return text


def _is_field(text: str) -> bool:
    """Whether text is an optional "-" and one or more ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    return digits.isascii() and digits.isdigit()


def _ingest_chunk(data: bytes, n: int, trace: FaultTrace) -> bool:
    """Parse a chunk of n data lines in bulk onto trace; False, with nothing
    changed, when the chunk holds any line the bulk check cannot vouch for
    or any invalid record."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    # With the digits and "-" deleted, only ",,\n" per line may be left:
    # every other byte (space, "+", "_", ".", "e", non-ASCII, a stray "\r")
    # survives, and the compare makes each of the n lines three fields that
    # end in "\n" (a chunk without a final newline goes to the line loop).
    if data.translate(None, b"-0123456789") != b",,\n" * n:
        return False
    # Of such fields JSON takes exactly -?(0|[1-9][0-9]*), to the value int()
    # gives, and refuses the rest: "01", "-", "1-2", an empty field, over
    # 4300 digits. The line loop decides those.
    try:
        ints = json.loads(b"[" + data.replace(b"\n", b",")[:-1] + b"]")
    except ValueError:
        return False
    return _split(trace, ints[0::3], ints[1::3], ints[2::3])


def _ingest_lines(path: str, lines: list[bytes], line_no: int, trace: FaultTrace) -> None:
    """Parse data lines onto trace one at a time, the first numbered
    line_no + 1, skipping comment and blank lines; _split checks and
    appends the records. TraceFormatError names the first bad line."""
    ints, nos, error = [], [], None
    for line_no, raw in enumerate(lines, line_no + 1):
        try:
            line = _line_body(raw)
        except ValueError as exc:
            error = TraceFormatError(path, line_no, str(exc))
            break
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            error = TraceFormatError(path, line_no, f"expected 3 fields, got {len(parts)}")
            break
        if not all(map(_is_field, parts)):
            error = TraceFormatError(path, line_no, f"non-integer field in {line!r}")
            break
        try:
            values = list(map(int, parts))
        except ValueError:  # the one field int() refuses: too many digits
            error = TraceFormatError(
                path, line_no, f"field over {sys.get_int_max_str_digits()} digits"
            )
            break
        ints += values
        nos.append(line_no)
    # the records before a syntax error go first: one of them may be bad
    ts, cs, ls = ints[0::3], ints[1::3], ints[2::3]
    if not _split(trace, ts, cs, ls):
        i, reason = _bad_record(ts, cs, ls, trace)
        raise TraceFormatError(path, nos[i], reason)
    if error:
        raise error


def write_blocks(path, blocks: Iterable[str]) -> None:
    """Write text blocks, such as csv_blocks yields, one write per block."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(blocks)


def write_trace(trace: FaultTrace, path: str) -> None:
    write_blocks(path, trace.csv_blocks())


def csv_blocks(
    header: str, row: str, columns: Sequence[Sequence[int]], labels: Mapping[int, Mapping[int, str]]
) -> Iterator[str]:
    """A CSV file as text blocks: the header line, then row_blocks."""
    yield header + "\n"
    yield from row_blocks(row, columns, labels)


def row_blocks(
    row: str, columns: Sequence[Sequence[int]], labels: Mapping[int, Mapping[int, str]]
) -> Iterator[str]:
    """Up to _BLOCK_ROWS newline-terminated rows per text block, formatted
    with one % call. row is one line's format, its field i taken from
    columns[i]; a column i in labels holds codes, written as
    labels[i][code]."""
    width = len(columns)
    n = len(columns[0])
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        flat = [None] * ((e - s) * width)
        for i, col in enumerate(columns):
            part = col[s:e]
            flat[i::width] = map(labels[i].__getitem__, part) if i in labels else part
        yield (row * (e - s)) % tuple(flat)


# A block's lines with their newlines.
_keepends = methodcaller("splitlines", True)


@dataclass
class TraceModelConfig:
    """Geometry the trace is replayed against.

    width counts usable frames per core. cores defaults to the number
    of cores present in the trace.
    """

    width: int = 256
    refresh_interval_ms: float = 2.0
    cores: Optional[int] = None

    def validate(self) -> None:
        if self.width < 1:
            raise ValueError("width must be positive")
        if self.cores is not None and self.cores < 1:
            raise ValueError("cores must be positive")
        if self.cores is not None and self.cores > MAX_CORES:
            raise ValueError(f"cores must be at most {MAX_CORES}, got {self.cores}")


class CodeLabels(dict):
    """Code core * len(names) + outcome's label, "core,names[outcome]", in
    timeline.csv and faults.csv; built on the first read of its code."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names = names

    def __missing__(self, code: int) -> str:
        core, outcome = divmod(code, len(self.names))
        label = self[code] = f"{core},{self.names[outcome]}"
        return label


class CodedLog:
    """An event log kept as columns, each event's core and outcome one
    code, core * len(NAMES) + outcome, in the column codes: the
    simulator's FaultLog (faults.csv) and the replay's Timeline
    (timeline.csv). A subclass declares, at class level, its CSV header
    HEADER, one row's format ROW, the outcome names NAMES and the
    attribute names of its columns COLUMNS, in row order, codes among
    them; the codes column is written as its "core,outcome" labels."""

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def core_ids(self) -> array:
        """Each event's core, decoded from the codes on each read."""
        return array("q", map(floordiv, self.codes, repeat(len(self.NAMES))))

    @property
    def outcomes(self) -> array:
        """Each event's outcome index in NAMES, decoded on each read."""
        return array("q", map(mod, self.codes, repeat(len(self.NAMES))))

    def csv_blocks(self) -> Iterator[str]:
        """The log's CSV file as text blocks (see csv_blocks)."""
        columns = [getattr(self, name) for name in self.COLUMNS]
        labels = {self.COLUMNS.index("codes"): CodeLabels(self.NAMES)}
        return csv_blocks(self.HEADER, self.ROW, columns, labels)


@dataclass
class Timeline(CodedLog):
    """Shifted per-fault timeline in the order the faults are served.

    Each fault's core and outcome are one code, 2 * core + outcome, in an
    array("H") (codes stay below 2 * MAX_CORES); the other columns are
    array("q")."""

    HEADER = TIMELINE_HEADER
    ROW = "%d,%d,%s,%d\n"
    NAMES = OUTCOME_NAMES
    COLUMNS = ("orig_ns", "adjusted_ns", "codes", "modeled_latency_ns")

    orig_ns: array
    adjusted_ns: array
    codes: array
    modeled_latency_ns: array


class JsonReport:
    """A report written as strict JSON (RFC 8259): report.json,
    model_report.json and sweep.json, each its subclass's to_json_dict
    document."""

    def to_json(self) -> str:
        """The document with sorted keys and two-space indents; a float
        left non-finite raises ValueError rather than writing NaN or
        Infinity."""
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"


@dataclass
class ModelReport(JsonReport):
    config: dict
    hits: int
    misses: int
    hit_rate: float
    baseline_runtime_ns: int
    modeled_runtime_ns: int
    saved_ns: int
    penalty_ns: int
    speedup: float
    baseline_overhead_fraction: float
    residual_overhead_fraction: float
    timeline: Timeline

    def to_json_dict(self) -> dict:
        """Every field but the timeline, which goes to timeline.csv. An
        infinite speedup is None (JSON null): JSON has no infinity."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "timeline"}
        if not math.isfinite(self.speedup):
            d["speedup"] = None
        d["faults"] = self.hits + self.misses
        d["schema"] = "mfoesim.modelreport/1"
        return d


# The ModelParameters fields the replay reads, all through model_constants
# (clock_hz is also echoed); model and sweep accept --params-* for these only.
MODEL_PARAMETERS = (
    "mfoe_hit_cycles",
    "mfoe_miss_penalty_cycles",
    "init_throughput_pages_per_s",
    "background_throughput_pages_per_s",
    "clock_hz",
)


def model_constants(config: TraceModelConfig, params: ModelParameters) -> dict:
    """Integer-ns constants the replay runs on; also echoed in reports."""
    clock = params.clock_hz
    interval_ns, init_page_ns, record_ns, budget = background_timing(
        params, config.refresh_interval_ms, 1e9, "ns"
    )
    return {
        "hit_ns": round(params.mfoe_hit_cycles * 1e9 / clock),
        "miss_penalty_ns": round(params.mfoe_miss_penalty_cycles * 1e9 / clock),
        "init_page_ns": init_page_ns,
        "record_ns": record_ns,
        "interval_ns": interval_ns,
        "budget_per_tick": budget,
    }


def checked_constants(config: TraceModelConfig, params: ModelParameters) -> dict:
    """model_constants, after config.validate() and params.validate():
    every check of a replay's settings, none of which reads the trace."""
    config.validate()
    params.validate()
    return model_constants(config, params)


def apply_model(
    trace: FaultTrace,
    config: Optional[TraceModelConfig] = None,
    params: Optional[ModelParameters] = None,
) -> ModelReport:
    """Replay the trace against each core's pre-allocated frame table: a
    ModelReport with its timeline. sweep is the same replay per grid cell,
    without the timeline. Raises ValueError for a bad config or params,
    then for a trace wider than config.cores or MAX_CORES, then for a
    timeline value outside signed 64 bits."""
    return _replay(trace, config, params, keep_timeline=True)


def _replay(
    trace: FaultTrace,
    config: Optional[TraceModelConfig],
    params: Optional[ModelParameters],
    keep_timeline: bool,
) -> ModelReport:
    config = config or TraceModelConfig()
    params = params or ModelParameters()
    consts = checked_constants(config, params)

    # The core checks come first: the lists below run to the highest core
    # id, and one stray id must not size the run (see MAX_CORES). The
    # lists, and the baseline read from the carried totals, are O(cores).
    trace_cores = trace.core_count
    if config.cores is not None and trace_cores > config.cores:
        raise ValueError(f"trace uses {trace_cores} cores, model configured for {config.cores}")
    if trace_cores > MAX_CORES:
        raise ValueError(f"trace uses {trace_cores} cores, more than the {MAX_CORES} a replay models")
    n = len(trace)
    core_times = [trace.core_times.get(c, array("q")) for c in range(trace_cores)]
    core_lats = [trace.core_lats.get(c, array("q")) for c in range(trace_cores)]
    cores = config.cores if config.cores is not None else max(1, trace_cores)
    echo = {
        "width": config.width,
        "refresh_interval_ms": config.refresh_interval_ms,
        "cores": cores,
        "clock_hz": params.clock_hz,
        **consts,
    }

    hit_ns = consts["hit_ns"]
    miss_ns = consts["miss_penalty_ns"]
    init_ns = consts["init_page_ns"]
    record_ns = consts["record_ns"]
    interval_ns = consts["interval_ns"]
    budget_cap = consts["budget_per_tick"]
    width = config.width

    # Per-core state. last_eff is the latest effective time served;
    # core_hits - taken is what the next tick can recycle. Landings are
    # ramps (start, step, count) whose frame j lands at start + j * step;
    # fully landed ramps fold into landed_done, and cap and land cache the
    # landings as last counted and the next landing after them (-inf
    # before the first count), so ramps are recounted only when the core's
    # hits reach cap and its effective time reaches land (arrivals only
    # grow, and a tick adds only ramps that land after it).
    active = [c for c in range(trace_cores) if core_times[c]]
    pos = [0] * cores
    shift = [0] * cores
    last_eff = [-math.inf] * cores
    core_hits = [0] * cores
    taken = [0] * cores
    caps = [0] * cores
    lands = [-math.inf] * cores
    landed_done = [0] * cores
    ramps: list[list[tuple[int, int, int]]] = [
        [(c * width * init_ns, init_ns, width)] for c in range(cores)
    ]

    # The timeline's columns, and the current window's, which hold each
    # core's run in turn in core order. A hit appends only its effective
    # and shifted times. The codes (2 * core + outcome) and latencies of a
    # core's hits go in as one repeat each, ahead of its next miss run's
    # and at the end of its run, and a window's original times are sliced
    # in after each run.
    columns = [array("q"), array("q"), array("H"), array("q")]
    w_orig = array("q")
    w_eff: list[int] = []
    w_adj: list[int] = []
    w_code: list[int] = []
    w_lat: list[int] = []
    add_eff, add_adj = w_eff.append, w_adj.append

    misses = 0
    tick = cores * width * init_ns + interval_ns
    tick_index = 0
    done = 0

    while True:
        # Every fault served before this tick, one core at a time: cores
        # share nothing between ticks.
        for c in active:
            p = pos[c]
            times = core_times[c]
            end = len(times)
            if p == end:
                continue
            lats = core_lats[c]
            sh = shift[c]
            prev = last_eff[c]
            hc = core_hits[c]
            cap = caps[c]
            land = lands[c]
            p0 = p
            while p < end:
                if hc >= cap:
                    # Every fault served so far is served before the tick,
                    # so this one is served at or after it exactly when
                    # its key is.
                    key = times[p] + sh
                    if key >= tick:
                        break
                    eff = key if key > prev else prev
                    if eff >= land:
                        # A landing at the fault's own time counts: it
                        # sorts first. land becomes the next landing after
                        # eff, or the tick if none comes sooner.
                        got = landed_done[c]
                        full = 0
                        land = tick
                        for start, step, count in ramps[c]:
                            k = (eff - start) // step
                            if k >= count:
                                full += count
                            elif k > 0:
                                got += k
                                if start + (k + 1) * step < land:
                                    land = start + (k + 1) * step
                            elif start + step < land:
                                land = start + step
                        if full:
                            landed_done[c] += full
                            ramps[c] = [r for r in ramps[c] if (eff - r[0]) // r[1] < r[2]]
                        cap = got + full
                    if hc >= cap:
                        # A miss, and so is every later fault j whose key
                        # times[j] + sh + (j - p) * miss_ns stays below
                        # land (at most the tick): nothing lands first, so
                        # each would find the pool empty. Keys never
                        # decrease, so the run ends at the first key that
                        # reaches land. A key is at least times[j] + sh,
                        # and at most that plus (hi - p) * miss_ns before
                        # hi, so two bisects leave the search [lo, hi).
                        hi = bisect_left(times, land - sh, p + 1, end)
                        lo = bisect_left(times, land - sh - (hi - p) * miss_ns, p + 1, hi)
                        while lo < hi:
                            mid = (lo + hi) // 2
                            if times[mid] + sh + (mid - p) * miss_ns < land:
                                lo = mid + 1
                            else:
                                hi = mid
                        run = lo - p
                        last = times[lo - 1] + sh + (run - 1) * miss_ns
                        if keep_timeline:
                            adj = list(map(add, times[p:lo], (
                                range(sh, sh + run * miss_ns, miss_ns) if miss_ns
                                else repeat(sh, run)
                            )))
                            # adj never decreases, so the faults served
                            # at eff are its first k.
                            k = bisect_right(adj, eff)
                            w_eff += repeat(eff, k)
                            w_eff += adj[k:]
                            w_code += repeat(2 * c + OUTCOME_HIT, len(w_adj) - len(w_code))
                            w_code += repeat(2 * c + OUTCOME_MISS, run)
                            w_lat += repeat(hit_ns, len(w_adj) - len(w_lat))
                            w_lat += map(add, lats[p:lo], repeat(miss_ns))
                            w_adj += adj
                        misses += run
                        sh += run * miss_ns
                        prev = last if last > eff else eff
                        p = lo
                        continue
                # A streak: every fault until the pool empties is a hit,
                # up to the first one served at or after the tick.
                stop = p + cap - hc
                if stop > end:
                    stop = end
                streak = iter(times[p:stop])
                for t, lat in zip(streak, lats[p:stop]):
                    key = t + sh
                    if key >= tick:
                        break
                    if key > prev:
                        prev = key
                    sh += hit_ns - lat
                    if keep_timeline:
                        add_eff(prev)
                        add_adj(key)
                else:
                    hc += stop - p
                    p = stop
                    continue
                # The fault at the tick ends the core's window. streak
                # holds the faults after it: count them off in C.
                q = stop - 1 - len(array("q", streak))
                hc += q - p
                p = q
                break
            done += p - p0
            if keep_timeline:
                w_orig += times[p0:p]
                w_code += repeat(2 * c + OUTCOME_HIT, len(w_adj) - len(w_code))
                w_lat += repeat(hit_ns, len(w_adj) - len(w_lat))
            pos[c] = p
            shift[c] = sh
            last_eff[c] = prev
            core_hits[c] = hc
            caps[c] = cap
            lands[c] = land

        if w_eff:
            window = (w_orig, w_adj, w_code, w_lat)
            if w_code[0] >> 1 != w_code[-1] >> 1:
                # Each core's run is in order and the runs sit in core
                # order, so a stable sort of the positions on eff
                # interleaves them into the order the faults are served
                # in. A window one core served is in that order already.
                pick = itemgetter(*sorted(range(len(w_eff)), key=w_eff.__getitem__))
                window = map(pick, window)
            try:
                for col, part in zip(columns, window):
                    col += part if type(part) is array else _pack(part, col.typecode)
            except OverflowError:
                bad = next(v for v in (*w_adj, *w_lat) if not INT64_MIN <= v <= INT64_MAX)
                raise ValueError(f"timeline value {bad} is outside signed 64 bits") from None
            for part in (w_orig, w_eff, w_adj, w_code, w_lat):
                del part[:]
        if done == n:
            break

        if budget_cap and any(core_hits[c] > taken[c] for c in active):
            # The tick: recycle consumed frames round-robin from a rotating
            # start core, within the budget, one landing per record_ns.
            remaining = budget_cap
            landed = 0
            for k in range(cores):
                c = (tick_index + k) % cores
                take = core_hits[c] - taken[c]
                if take > remaining:
                    take = remaining
                if take:
                    taken[c] += take
                    remaining -= take
                    ramps[c].append((tick + landed * record_ns, record_ns, take))
                    landed += take
                if remaining == 0:
                    break
            tick_index += 1
            tick += interval_ns
        else:
            # Ticks with nothing to recycle only rotate the start core:
            # skip to the window holding the next fault.
            nxt = min(
                max(core_times[c][pos[c]] + shift[c], last_eff[c])
                for c in active
                if pos[c] < len(core_times[c])
            )
            skip = (nxt - tick) // interval_ns + 1
            tick_index += skip
            tick += skip * interval_ns

    hits = n - misses
    penalty = misses * miss_ns
    # A core's shift is its misses times the penalty less what its hits
    # saved, so the shifts' sum gives the savings exactly.
    saved = penalty - sum(shift)
    baseline_runtime = trace.total_runtime_ns
    modeled_runtime = baseline_runtime - saved + penalty
    if modeled_runtime > 0:
        speedup = baseline_runtime / modeled_runtime
    else:  # the model saved the whole runtime, or an empty trace has none
        speedup = math.inf if n else 1.0
    baseline_overhead = sum(s for _, s in trace.core_totals.values())
    modeled_overhead = baseline_overhead - saved + penalty
    return ModelReport(
        config=echo,
        hits=hits,
        misses=misses,
        hit_rate=hits / n if n else 0.0,
        baseline_runtime_ns=baseline_runtime,
        modeled_runtime_ns=modeled_runtime,
        saved_ns=saved,
        penalty_ns=penalty,
        speedup=speedup,
        baseline_overhead_fraction=(
            baseline_overhead / baseline_runtime if baseline_runtime > 0 else 0.0
        ),
        residual_overhead_fraction=(
            modeled_overhead / modeled_runtime if modeled_runtime > 0 else 0.0
        ),
        timeline=Timeline(*columns),
    )


# Synthetic trace generation.
#
# The most faults synthesize writes: rate x duration x cores, checked
# before anything is drawn. The README's largest example, the gcc profile
# for 10 s, is about 3.65M faults.
MAX_SYNTHESIZED_FAULTS = 40_000_000
#
# Reference workload profiles: steady-state fault rate and the fraction
# of runtime the recorded workload spent in minor-fault handling. Mean
# per-fault latency falls out as overhead_fraction / rate.
@dataclass(frozen=True)
class WorkloadProfile:
    name: str
    faults_per_s: int
    overhead_fraction: float

    def latency_mean_ns(self) -> int:
        return max(1, round(self.overhead_fraction * 1e9 / self.faults_per_s))


WORKLOAD_PROFILES = {
    p.name: p
    for p in (
        WorkloadProfile("gcc", 365_310, 0.2909),
        WorkloadProfile("faas", 108_920, 0.0905),
        WorkloadProfile("dedup", 165_880, 0.0826),
        WorkloadProfile("memcached", 120_060, 0.0647),
        WorkloadProfile("radix", 259_250, 0.1617),
        WorkloadProfile("fft", 222_620, 0.1006),
        WorkloadProfile("xsbench", 89_090, 0.0490),
        WorkloadProfile("gap-bc", 77_740, 0.0308),
        WorkloadProfile("integer-sort", 104_910, 0.0420),
    )
}


def synthesize(
    rate_per_core: float,
    duration_s: float = 1.0,
    dist: str = "uniform",
    cores: int = 1,
    latency_mean_ns: Optional[int] = None,
    latency_p95_ns: Optional[int] = None,
    seed: int = 0,
) -> FaultTrace:
    """Generate a fault trace. Deterministic for a given (settings, seed) pair.

    uniform spaces faults exactly round(1e9 / rate) ns apart starting at
    zero; poisson draws exponential gaps of that mean. Both refuse a
    rate at which round(1e9 / rate) is 0. Latencies come from the usual
    lognormal two-statistic fit (constant when mean == p95).

    Each core draws from its own random.Random. A gap is computed inline
    as -log(1 - random()) * (1e9 / rate), which is rng.expovariate(1.0)
    times the scale to the bit (expovariate divides by lambd, here 1.0),
    and a latency is one call of LatencySampler.drawer; the tests check
    both against the stdlib calls.
    """
    check_finite_positive("rate", rate_per_core)
    check_finite_positive("duration", duration_s)
    if cores < 1:
        raise ValueError("need at least one core")
    if cores > MAX_CORES:
        raise ValueError(f"cores must be at most {MAX_CORES}, got {cores}")
    if dist not in ("uniform", "poisson"):
        raise ValueError(f"unknown distribution {dist!r}")
    # Every timestamp is below duration_ns, so the columns fit in 64 bits.
    duration_ns = checked_int("duration", duration_s * 1e9, "ns")
    gap_scale = 1e9 / rate_per_core
    spacing = checked_int("rate", gap_scale, "ns between faults")
    expected = rate_per_core * duration_s * cores
    if expected > MAX_SYNTHESIZED_FAULTS:
        raise ValueError(
            f"rate x duration x cores is {expected:g} faults, "
            f"more than the {MAX_SYNTHESIZED_FAULTS} synthesize writes"
        )
    if spacing < 1:
        raise ValueError(f"rate out of range: {gap_scale:.3g} ns between faults rounds to 0")

    defaults = ModelParameters()
    if latency_mean_ns is None:
        latency_mean_ns = round(defaults.baseline_fault_mean_cycles * 1e9 / defaults.clock_hz)
    if latency_p95_ns is None:
        latency_p95_ns = max(
            latency_mean_ns,
            round(defaults.baseline_fault_p95_cycles * 1e9 / defaults.clock_hz),
        )
    for name, value in (("latency mean", latency_mean_ns), ("latency p95", latency_p95_ns)):
        if value > INT64_MAX:
            raise ValueError(f"{name} must be at most {INT64_MAX} ns, got {value}")
    sampler = LatencySampler(latency_mean_ns, latency_p95_ns)

    trace = FaultTrace()
    # On several cores, each record's (timestamp, core) packed as
    # timestamp * cores + core, which sorts as the pair does: the sorted
    # keys give core_ids.
    keys: list[int] = []
    for c in range(cores):
        rng = random.Random(f"{seed}:{c}")
        draw = sampler.drawer(rng)
        if dist == "uniform":
            times = range(0, duration_ns, spacing)
            lats = [draw() for _ in times]
        else:
            rnd = rng.random
            acc, times, lats = 0.0, [], []
            add_time, add_lat = times.append, lats.append
            while True:
                acc += -log(1.0 - rnd()) * gap_scale
                t = round(acc)
                if t >= duration_ns:
                    break
                add_time(t)
                add_lat(draw())
        if times:
            trace.core_times[c] = _pack(times)
            try:
                trace.core_lats[c] = _pack(lats)
            except OverflowError:
                raise ValueError("a drawn latency is outside signed 64 bits") from None
            if cores > 1:
                keys += map(add, map(mul, times, repeat(cores)), repeat(c))
    if cores == 1:
        # every id is 0: a zero column, with no keys to sort
        trace.core_ids = array("q", [0]) * len(trace.core_lats.get(0, ()))
    else:
        keys.sort()
        trace.core_ids = array("q", map(mod, keys, repeat(cores)))
    trace._totals = None
    return trace


def synthesize_profile(
    name: str,
    duration_s: float = 1.0,
    dist: str = "poisson",
    cores: int = 1,
    seed: int = 0,
    params: Optional[ModelParameters] = None,
) -> FaultTrace:
    """Synthesize a trace shaped like a reference workload profile."""
    try:
        prof = WORKLOAD_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_PROFILES))
        raise ValueError(f"unknown profile {name!r}; known: {known}") from None
    p = params or ModelParameters()
    mean = prof.latency_mean_ns()
    p95 = max(mean, round(mean * p.baseline_fault_p95_cycles / p.baseline_fault_mean_cycles))
    return synthesize(prof.faults_per_s, duration_s, dist, cores, mean, p95, seed)


@dataclass
class SweepCell:
    """One grid cell; report.timeline is empty, since a sweep writes only
    the summaries."""

    width: int
    interval_ms: float
    report: ModelReport


@dataclass
class SweepGrid(JsonReport):
    cells: list[SweepCell]

    def csv_blocks(self) -> Iterator[str]:
        """sweep.csv as text blocks (see csv_blocks)."""
        reports = [cell.report for cell in self.cells]
        return csv_blocks(
            SWEEP_HEADER,
            "%d,%g,%.6f,%.4f,%.6f\n",
            (
                [cell.width for cell in self.cells],
                [cell.interval_ms for cell in self.cells],
                [r.hit_rate for r in reports],
                [100.0 * r.residual_overhead_fraction for r in reports],
                [r.speedup for r in reports],
            ),
            {},
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": "mfoesim.sweepgrid/1",
            "cells": [
                {
                    "width": cell.width,
                    "interval_ms": cell.interval_ms,
                    **cell.report.to_json_dict(),
                }
                for cell in self.cells
            ],
        }


def sweep_configs(
    widths: Optional[Iterable[int]] = None,
    intervals_ms: Optional[Iterable[float]] = None,
    params: Optional[ModelParameters] = None,
    cores: Optional[int] = None,
) -> list[TraceModelConfig]:
    """The sweep grid's configs, widths outer and intervals inner. Each
    one passes checked_constants, so a bad cell is refused before any
    cell is replayed."""
    width_list = list(widths) if widths is not None else list(DEFAULT_WIDTHS)
    interval_list = (
        list(intervals_ms) if intervals_ms is not None else list(DEFAULT_INTERVALS_MS)
    )
    if not width_list or not interval_list:
        raise ValueError("sweep grids must be nonempty")
    params = params or ModelParameters()
    configs = [TraceModelConfig(width=w, refresh_interval_ms=iv, cores=cores)
               for w in width_list for iv in interval_list]
    for config in configs:
        checked_constants(config, params)
    return configs


def sweep(
    trace: FaultTrace,
    widths: Optional[Iterable[int]] = None,
    intervals_ms: Optional[Iterable[float]] = None,
    params: Optional[ModelParameters] = None,
    cores: Optional[int] = None,
) -> SweepGrid:
    """Replay one trace across a (width, refresh interval) grid, every
    cell checked (sweep_configs) before the first is replayed."""
    return SweepGrid([
        SweepCell(c.width, c.refresh_interval_ms, _replay(trace, c, params, keep_timeline=False))
        for c in sweep_configs(widths, intervals_ms, params, cores)
    ])
