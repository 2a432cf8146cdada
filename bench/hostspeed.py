"""Host speed calibration shared by run.py and make_trace.py.

The benchmark's cores are shared with other tenants, whose load changes
the host's speed by a fifth or more within a minute. A block of
calibration loops (fixed pure-Python work that does not touch the
package) is timed right before and right after every measured step
(set-up, the command, teardown), and the step's time is multiplied by
REFERENCE_LOOP_S over the mean loop time of the two blocks around it.
That rescales every time to one reference speed, so runs made while the
host is slow or fast compare. The raw times are kept in the results
file.
"""
from __future__ import annotations

import heapq
import statistics
import time

CALIBRATION_ITERS = 8000
CALIBRATION_LOOPS = 4
FRESH_BLOCK_S = 0.005
# The reference speed: a round figure near one loop's time on the 2-vCPU
# x86_64 VM (CPython 3.11) the benchmark was tuned on.
REFERENCE_LOOP_S = 0.007


def calibration_loop() -> float:
    """Host seconds for a fixed slice of plain interpreter work.

    A bounded heap and a 64k-slot dict of fresh tuples: the mix of
    arithmetic, allocation and scattered memory access that the
    simulator's and the replay's loops are made of.
    """
    t0 = time.perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, int]] = {}
    for i in range(CALIBRATION_ITERS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[(i * 2654435761) % 65521] = (i, i)
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration blocks timed around each measured step."""

    def __init__(self) -> None:
        self.blocks: list[float] = []
        self._block_end = float("-inf")

    def _block(self) -> None:
        self.blocks.append(statistics.fmean(calibration_loop() for _ in range(CALIBRATION_LOOPS)))
        self._block_end = time.perf_counter()

    def time(self, step):
        """Run step() between two calibration blocks.

        Returns (its result, raw seconds, scale); the step's time at the
        reference speed is raw seconds times scale. A block that ended
        just before the step is reused as the block before it.
        """
        if time.perf_counter() - self._block_end > FRESH_BLOCK_S:
            self._block()
        before = self.blocks[-1]
        t0 = time.perf_counter()
        result = step()
        raw = time.perf_counter() - t0
        self._block()
        return result, raw, 2 * REFERENCE_LOOP_S / (before + self.blocks[-1])
