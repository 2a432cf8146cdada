"""Helpers the test modules share."""
import sys
from itertools import chain
from typing import Callable, Iterable, Iterator


def block_rows(blocks: Iterable[str]) -> Iterator[str]:
    """The lines of csv_blocks' text blocks, without their newlines."""
    return chain.from_iterable(map(str.splitlines, blocks))


def count_lines(function, call: Callable):
    """call()'s result and the "line" events (sys.settrace) that frames
    running function's code raised during it; frames of other code,
    those it calls included, are not traced. Which lines raise an event is
    specific to the CPython version, so a bound on the count holds for
    the version it was measured on."""
    code = function.__code__
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    outer = sys.gettrace()
    sys.settrace(calls)
    try:
        result = call()
    finally:
        sys.settrace(outer)
    return result, lines


class _Unlisted(dict):
    """Per-core columns that refuse a lookup by core id."""

    def _refuse(self, *args):
        raise AssertionError("a per-core list was built before the core count was checked")

    get = __getitem__ = _refuse


def unlisted(trace):
    """trace, whose per-core columns now refuse a lookup by core id: a
    replay that lists them before checking the trace's core count fails.
    Reading the ids themselves (core_count) and the carried totals still
    works."""
    trace.core_times = _Unlisted(trace.core_times)
    trace.core_lats = _Unlisted(trace.core_lats)
    return trace
