"""Sampler fit checks: the (mean, p95) pair is the contract, so every
distribution is verified against those two statistics directly."""
import math
import random

import pytest

from mfoesim.params import Z95, LatencySampler, ModelParameters


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
    xs = sorted(sampler.sample(rng) for _ in range(n))
    mean = sum(xs) / n
    p95 = xs[math.ceil(0.95 * n) - 1]
    assert abs(mean - 2552.0) / 2552.0 < 0.02
    assert abs(p95 - 6432.0) / 6432.0 < 0.03


def test_lognormal_smaller_root_keeps_body_below_p95():
    # The smaller sigma root puts the median below the mean but well
    # above zero; the larger root would push the median to a tiny value.
    sampler = LatencySampler(2552.0, 6432.0)
    rng = random.Random(7)
    xs = sorted(sampler.sample(rng) for _ in range(50_000))
    median = xs[len(xs) // 2]
    assert 1500 < median < 2552


def test_lognormal_degenerates_to_constant():
    sampler = LatencySampler(500.0, 500.0)
    rng = random.Random(0)
    assert sampler.dist == "constant"
    assert all(sampler.sample(rng) == 500.0 for _ in range(10))


def test_constant_distribution():
    sampler = LatencySampler(795.0, 1757.0, dist="constant")
    rng = random.Random(0)
    assert sampler.sample(rng) == 795.0
    assert sampler.sample_int(rng) == 795


def test_two_point_mass_and_mean():
    sampler = LatencySampler(1000.0, 4000.0, dist="two_point")
    rng = random.Random(99)
    n = 100_000
    xs = [sampler.sample(rng) for _ in range(n)]
    values = sorted(set(xs))
    assert len(values) == 2
    lo, hi = values
    assert hi == 4000.0
    # the low point is chosen so the weighted mean is exact
    assert math.isclose(0.95 * lo + 0.05 * hi, 1000.0, rel_tol=1e-12)
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
