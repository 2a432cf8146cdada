"""Helpers the test modules share."""
from itertools import chain
from typing import Iterable, Iterator


def block_rows(blocks: Iterable[str]) -> Iterator[str]:
    """The lines of csv_blocks' text blocks, without their newlines."""
    return chain.from_iterable(map(str.splitlines, blocks))
