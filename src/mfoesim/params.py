"""Model parameters and latency samplers shared by the simulator and replay model."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields

# 95th percentile z-score of the standard normal, used to fit lognormal tails.
Z95 = 1.6448536269514722


def check_finite_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
        if self.baseline_fault_p95_cycles < self.baseline_fault_mean_cycles:
            raise ValueError("baseline fault p95 below mean")
        if self.baseline_fault_dist not in ("lognormal", "two_point", "constant"):
            raise ValueError(f"unknown distribution {self.baseline_fault_dist!r}")


class LatencySampler:
    """Draws latencies from a distribution fit to a (mean, p95) pair.

    The lognormal fit solves sigma from
        ln(p95 / mean) = z95 * sigma - sigma^2 / 2
    taking the smaller root so the body of the distribution stays near the
    mean. two_point puts 5% of the mass at p95 and the rest at the value
    that preserves the mean. constant always returns the mean.
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
                spread = math.log(p95 / mean)
                disc = Z95 * Z95 - 2.0 * spread
                if disc < 0:
                    raise ValueError("p95/mean ratio too large for a lognormal fit")
                self._sigma = Z95 - math.sqrt(disc)
                self._mu = math.log(mean) - self._sigma * self._sigma / 2.0
        elif dist == "two_point":
            lo = (mean - 0.05 * p95) / 0.95
            if lo <= 0:
                raise ValueError("two_point low value not positive")
            self._lo = lo
        elif dist != "constant":
            raise ValueError(f"unknown distribution {dist!r}")

    def sample(self, rng: random.Random) -> float:
        if self.dist == "constant":
            return self.mean
        if self.dist == "two_point":
            return self.p95 if rng.random() < 0.05 else self._lo
        return rng.lognormvariate(self._mu, self._sigma)

    def sample_int(self, rng: random.Random) -> int:
        return max(1, round(self.sample(rng)))
