"""Sampler fit checks: the (mean, p95) pair is the contract, so every
distribution is verified against those two statistics directly, and
each draw against the stdlib call it reproduces."""
import math
import random

import pytest

from mfoesim.kernel import KernelModel
from mfoesim.params import (
    INT64_MAX,
    Z95,
    LatencySampler,
    ModelParameters,
    background_timing,
    checked_int,
)


def test_defaults_validate():
    ModelParameters().validate()


def test_default_constants():
    p = ModelParameters()
    assert p.mfoe_hit_cycles == 78
    assert p.mfoe_miss_penalty_cycles == 14
    assert p.baseline_fault_mean_cycles == 2552
    assert p.baseline_fault_p95_cycles == 6432
    assert p.background_throughput_pages_per_s == 580_169
    assert p.init_throughput_pages_per_s == 1_093_075
    assert p.clock_hz == 3_000_000_000


@pytest.mark.parametrize(
    "field",
    ["mfoe_hit_cycles", "clock_hz", "background_throughput_pages_per_s"],
)
def test_nonpositive_field_rejected(field):
    p = ModelParameters(**{field: 0})
    with pytest.raises(ValueError, match=field):
        p.validate()


def test_p95_below_mean_rejected():
    with pytest.raises(ValueError, match="p95 below mean"):
        ModelParameters(baseline_fault_p95_cycles=100).validate()


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError, match="unknown distribution"):
        ModelParameters(baseline_fault_dist="triangular").validate()


def test_lognormal_reproduces_mean_and_p95():
    # The two fitted moments, recovered empirically. Sample mean SE at
    # this n is ~0.2% of the mean, so 2%/3% bounds are comfortably wide
    # while still catching a wrong root of the quadratic.
    sampler = LatencySampler(2552.0, 6432.0)
    rng = random.Random(20260201)
    n = 200_000
    draw = sampler.drawer(rng)
    xs = sorted(draw() for _ in range(n))
    mean = sum(xs) / n
    p95 = xs[math.ceil(0.95 * n) - 1]
    assert abs(mean - 2552.0) / 2552.0 < 0.02
    assert abs(p95 - 6432.0) / 6432.0 < 0.03


def test_lognormal_smaller_root_keeps_body_below_p95():
    # The smaller sigma root puts the median below the mean but well
    # above zero; the larger root would push the median to a tiny value.
    sampler = LatencySampler(2552.0, 6432.0)
    rng = random.Random(7)
    draw = sampler.drawer(rng)
    xs = sorted(draw() for _ in range(50_000))
    median = xs[len(xs) // 2]
    assert 1500 < median < 2552


def test_lognormal_degenerates_to_constant():
    sampler = LatencySampler(500.0, 500.0)
    rng = random.Random(0)
    assert sampler.dist == "constant"
    draw = sampler.drawer(rng)
    assert all(draw() == 500 for _ in range(10))


def test_constant_distribution():
    sampler = LatencySampler(795.0, 1757.0, dist="constant")
    rng = random.Random(0)
    assert sampler.drawer(rng)() == 795
    assert sampler.sample_int(rng) == 795


def test_two_point_mass_and_mean():
    sampler = LatencySampler(1000.0, 4000.0, dist="two_point")
    rng = random.Random(99)
    n = 100_000
    draw = sampler.drawer(rng)
    xs = [draw() for _ in range(n)]
    values = sorted(set(xs))
    assert len(values) == 2
    lo, hi = values
    assert hi == 4000
    # the low point is chosen so the weighted mean is exact, up to the
    # rounding of each draw to an int
    assert abs(0.95 * lo + 0.05 * hi - 1000.0) <= 0.95 * 0.5
    hi_frac = xs.count(hi) / n
    # 3 sigma for a Bernoulli(0.05) at n=1e5 is ~0.002
    assert abs(hi_frac - 0.05) < 0.003


def test_two_point_rejects_mass_that_cannot_balance():
    # mean 10 with p95 400 would need a negative low point
    with pytest.raises(ValueError, match="two_point"):
        LatencySampler(10.0, 400.0, dist="two_point")


def test_lognormal_rejects_extreme_tail_ratio():
    # ratios beyond exp(z95^2 / 2) ~ 3.87 have no real sigma
    limit = math.exp(Z95 * Z95 / 2)
    with pytest.raises(ValueError, match="lognormal"):
        LatencySampler(100.0, 100.0 * (limit + 0.01))
    LatencySampler(100.0, 100.0 * (limit - 0.01))  # just inside fits


def test_sampler_argument_validation():
    with pytest.raises(ValueError):
        LatencySampler(0.0, 100.0)
    with pytest.raises(ValueError):
        LatencySampler(100.0, 99.0)
    with pytest.raises(ValueError, match="unknown distribution"):
        LatencySampler(100.0, 200.0, dist="gamma")


def test_sample_int_is_at_least_one():
    sampler = LatencySampler(0.2, 0.2)
    rng = random.Random(0)
    assert sampler.sample_int(rng) == 1


def _lognormal_fit(mean, p95):
    sigma = Z95 - math.sqrt(Z95 * Z95 - 2.0 * math.log(p95 / mean))
    return math.log(mean) - sigma * sigma / 2.0, sigma


@pytest.mark.parametrize("mean, p95", [(2552, 6432), (851, 2144), (796, 2007), (0.3, 0.9)])
def test_lognormal_draws_equal_the_stdlib_call(mean, p95):
    # the drawer inlines random.lognormvariate; each draw, and the random
    # numbers it consumed, must equal the stdlib call's ((0.3, 0.9) rounds
    # most draws to 0, so the floor of 1 applies)
    mu, sigma = _lognormal_fit(mean, p95)
    sampler = LatencySampler(mean, p95)
    for seed in range(5):
        rng, oracle = random.Random(seed), random.Random(seed)
        draw = sampler.drawer(rng)
        for _ in range(2000):
            assert draw() == max(1, round(oracle.lognormvariate(mu, sigma)))
        assert rng.getstate() == oracle.getstate()
        assert sampler.sample_int(random.Random(seed)) == sampler.drawer(random.Random(seed))()


def test_two_point_and_constant_draws_equal_their_definition():
    two_point = LatencySampler(1000.0, 4000.0, dist="two_point")
    lo = (1000.0 - 0.05 * 4000.0) / 0.95
    constant = LatencySampler(795.4, 1757.0, dist="constant")
    for seed in range(5):
        rng, oracle = random.Random(seed), random.Random(seed)
        draw = two_point.drawer(rng)
        for _ in range(2000):
            assert draw() == max(1, round(4000.0 if oracle.random() < 0.05 else lo))
        assert rng.getstate() == oracle.getstate()
        assert two_point.sample_int(random.Random(seed)) == two_point.drawer(random.Random(seed))()
        # a constant draws no random number
        rng = random.Random(seed)
        state = rng.getstate()
        draw = constant.drawer(rng)
        assert [draw() for _ in range(10)] == [795] * 10
        assert constant.sample_int(rng) == 795
        assert rng.getstate() == state


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.0 ** 63, -(2.0 ** 64)])
def test_checked_int_names_the_setting(value):
    with pytest.raises(ValueError, match="refresh interval out of range: .* ns does not fit"):
        checked_int("refresh interval", value, "ns")


def test_checked_int_rounds_values_that_fit():
    assert checked_int("x", 2.5, "ns") == 2
    assert checked_int("x", -(2.0 ** 63), "ns") == -(1 << 63)
    assert checked_int("x", 2.0 ** 62, "ns") == 1 << 62


def test_background_timing_in_ns_and_cycles():
    # 2 ms; 1e9 / 1,093,075 and 1e9 / 580,169 pages/s; 2 ms * 580,169 pages/s
    assert background_timing(ModelParameters(), 2.0, 1e9, "ns") == (2_000_000, 915, 1724, 1160)
    # the budget is counted from the interval in ns whatever the unit
    assert background_timing(ModelParameters(), 2.0, 3e9, "cycles") == (6_000_000, 2745, 5171, 1160)
    # a sub-unit interval is 1 unit, and 1 ns for the budget
    fast = ModelParameters(background_throughput_pages_per_s=2_000_000_000)
    assert background_timing(fast, 1e-7, 1e9, "ns") == (1, 915, 1, 2)
    assert background_timing(fast, 1e-7, 16, "cycles") == (1, 1, 1, 2)


def test_background_timing_checks_the_interval_in_each_unit():
    # 2 s is 2e9 ns but about 1.8e19 cycles at the largest clock
    params = ModelParameters(clock_hz=INT64_MAX)
    with pytest.raises(ValueError, match="refresh interval out of range: .* cycles does not fit"):
        KernelModel(params, refresh_interval_ms=2000.0)
    with pytest.raises(ValueError, match="refresh interval must be finite and positive"):
        background_timing(ModelParameters(), 0.0, 1e9, "ns")
