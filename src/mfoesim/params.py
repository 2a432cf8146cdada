"""Model parameters and latency samplers shared by the simulator and replay model."""
from __future__ import annotations

import random
from dataclasses import dataclass, fields
from math import exp, isfinite, log, sqrt
from random import NV_MAGICCONST
from typing import Callable

# 95th percentile z-score of the standard normal, used to fit lognormal tails.
Z95 = 1.6448536269514722

# Times, counts and trace fields are signed 64-bit integers wherever they
# are stored.
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def check_finite_positive(name: str, value: float) -> None:
    if not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def checked_int(name: str, value: float, unit: str) -> int:
    """round(value), a float setting already scaled to integer ns or
    cycles; ValueError naming the setting unless that fits in signed 64
    bits. (round() of an infinite float raises OverflowError, and an int
    past 64 bits fails later, where an array stores it.)"""
    if not INT64_MIN <= value <= INT64_MAX:  # also false for nan
        raise ValueError(f"{name} out of range: {value:g} {unit} does not fit in signed 64 bits")
    return round(value)


def background_timing(
    params: ModelParameters, refresh_interval_ms: float, units_per_s: float, unit: str
) -> tuple[int, int, int, int]:
    """The background thread's timing in the caller's unit (units_per_s
    of them make a second): its refresh interval, the cost of one
    init-fill page, the cost of one booked record, and the records one
    pass may book. The simulator's kernel asks in cycles and the replay
    in ns.

    Each time is its configured value rounded, the interval counted as
    round(ms * (units_per_s / 1000)): in ns that is criterion 3's oracle
    round(ms * 1e6) to the bit. ValueError naming the setting unless the
    interval is finite and positive, and unless the interval, in ns and
    in unit, and both costs fit in signed 64 bits and round to at least
    1. The budget is the whole pages booked at the background throughput
    in the interval in ns, the oracle's formula, so both engines grant
    the same budget for the same settings; it may be 0."""
    check_finite_positive("refresh interval", refresh_interval_ms)
    background = params.background_throughput_pages_per_s
    timing = []
    for setting, exact, name, what in (
        ("refresh interval", refresh_interval_ms * (1e9 / 1000), "ns", "between ticks"),
        ("refresh interval", refresh_interval_ms * (units_per_s / 1000), unit, "between ticks"),
        ("init_throughput_pages_per_s", units_per_s / params.init_throughput_pages_per_s, unit,
         "a fill page"),
        ("background_throughput_pages_per_s", units_per_s / background, unit, "a booked record"),
    ):
        value = checked_int(setting, exact, name)
        if value < 1:
            raise ValueError(f"{setting} out of range: {exact:.3g} {name} {what} rounds to 0")
        timing.append(value)
    interval_ns, interval, fill_cost, record_cost = timing
    return interval, fill_cost, record_cost, int(interval_ns * background // 10**9)


@dataclass
class ModelParameters:
    """Calibrated timing and throughput constants.

    Cycle-denominated values assume the configured core clock, clock_hz.
    """

    mfoe_hit_cycles: int = 78
    mfoe_miss_penalty_cycles: int = 14
    baseline_fault_mean_cycles: int = 2552
    baseline_fault_p95_cycles: int = 6432
    background_throughput_pages_per_s: int = 580_169
    init_throughput_pages_per_s: int = 1_093_075
    clock_hz: int = 3_000_000_000
    baseline_fault_dist: str = "lognormal"

    def validate(self) -> None:
        for f in fields(self):
            if f.name == "baseline_fault_dist":
                continue
            value = getattr(self, f.name)
            if value <= 0:
                raise ValueError(f"{f.name} must be positive, got {value!r}")
            if value > INT64_MAX:
                raise ValueError(f"{f.name} must be at most {INT64_MAX}, got {value!r}")
        if self.baseline_fault_p95_cycles < self.baseline_fault_mean_cycles:
            raise ValueError("baseline fault p95 below mean")
        if self.baseline_fault_dist not in ("lognormal", "two_point", "constant"):
            raise ValueError(f"unknown distribution {self.baseline_fault_dist!r}")


class LatencySampler:
    """Draws integer latencies from a distribution fit to a (mean, p95) pair.

    The lognormal fit solves sigma from
        ln(p95 / mean) = z95 * sigma - sigma^2 / 2
    taking the smaller root so the body of the distribution stays near the
    mean. two_point puts 5% of the mass at p95 and the rest at the value
    that preserves the mean. constant always returns the mean. Every draw
    is rounded to an int of at least 1.

    drawer(rng) is the one implementation of a draw. Its lognormal branch
    is random.lognormvariate inlined: the same Kinderman-Monahan loop on
    rng.random, with the same float operations in the same order, so each
    draw equals max(1, round(rng.lognormvariate(mu, sigma))) and consumes
    the same random numbers. The tests check it against the stdlib call.
    """

    def __init__(self, mean: float, p95: float, dist: str = "lognormal"):
        if mean <= 0 or p95 < mean:
            raise ValueError(f"need 0 < mean <= p95, got mean={mean} p95={p95}")
        self.mean = mean
        self.p95 = p95
        self.dist = dist
        if dist == "lognormal":
            if p95 == mean:
                self.dist = "constant"
            else:
                spread = log(p95 / mean)
                disc = Z95 * Z95 - 2.0 * spread
                if disc < 0:
                    raise ValueError("p95/mean ratio too large for a lognormal fit")
                self._sigma = Z95 - sqrt(disc)
                self._mu = log(mean) - self._sigma * self._sigma / 2.0
        elif dist == "two_point":
            lo = (mean - 0.05 * p95) / 0.95
            if lo <= 0:
                raise ValueError("two_point low value not positive")
            self._lo = lo
        elif dist != "constant":
            raise ValueError(f"unknown distribution {dist!r}")

    def drawer(self, rng: random.Random) -> Callable[[], int]:
        """A function that draws one latency from rng per call."""
        if self.dist == "constant":
            value = max(1, round(self.mean))
            return lambda: value
        rnd = rng.random
        if self.dist == "two_point":
            hi, lo = max(1, round(self.p95)), max(1, round(self._lo))
            return lambda: hi if rnd() < 0.05 else lo
        mu, sigma = self._mu, self._sigma

        def draw() -> int:
            while True:
                u1 = rnd()
                u2 = 1.0 - rnd()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    v = round(exp(mu + z * sigma))
                    return v if v > 1 else 1

        return draw

    def sample_int(self, rng: random.Random) -> int:
        """One draw from rng; a caller that draws repeatedly keeps a drawer."""
        return self.drawer(rng)()
