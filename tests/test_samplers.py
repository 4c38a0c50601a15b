"""Synthetic bivariate families: marginal laws, dependence direction,
joint law spot checks, and the rate-switch diagnostic."""

import math

import numpy as np
import pytest
import scipy.stats as stats

from kappacov import (
    DomainError,
    FamilySpec,
    NOnPositive,
    PairedSample,
    SeedSpec,
    marginal_quantile,
    sample_family,
)
from kappacov.closedform import exp_integral_G_scaled

MARGINAL_DISTS = {
    "normal": stats.norm(),
    "uniform": stats.uniform(),
    "exponential": stats.expon(),
    "laplace": stats.laplace(scale=1.0 / math.sqrt(2.0)),
    "logistic": stats.logistic(),
    "chisquare": stats.chi2(1),
}


def test_sampling_is_reproducible():
    spec = FamilySpec("laplace", 0.4)
    a = sample_family(spec, 50, SeedSpec(3))
    b = sample_family(spec, 50, SeedSpec(3))
    c = sample_family(spec, 50, SeedSpec(3, 1))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.ys, c.ys)


@pytest.mark.parametrize("n", [0, -5])
def test_sample_size_must_be_positive(n):
    with pytest.raises(NOnPositive):
        sample_family(FamilySpec("normal", 0.0), n, SeedSpec(0))


def test_uniform_boundary_thetas_are_deterministic_couplings():
    up = sample_family(FamilySpec("uniform", 1.0), 100, SeedSpec(5))
    down = sample_family(FamilySpec("uniform", -1.0), 100, SeedSpec(5))
    assert np.array_equal(up.ys, up.xs)
    assert np.array_equal(down.ys, 1.0 - down.xs)


def test_support_constraints():
    seed = SeedSpec(12)
    uni = sample_family(FamilySpec("uniform", 0.3), 2000, seed)
    assert np.all((uni.xs >= 0.0) & (uni.xs <= 1.0))
    assert np.all((uni.ys >= 0.0) & (uni.ys <= 1.0))
    exp = sample_family(FamilySpec("exponential", 0.7), 2000, seed)
    assert np.all(exp.xs > 0.0) and np.all(exp.ys > 0.0)
    chi = sample_family(FamilySpec("chisquare", -0.5), 2000, seed)
    assert np.all(chi.xs >= 0.0) and np.all(chi.ys >= 0.0)


@pytest.mark.parametrize("family", sorted(MARGINAL_DISTS))
@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_marginals_by_kolmogorov_smirnov(family, theta):
    spec = FamilySpec(family, theta)
    sample = sample_family(spec, 4000, SeedSpec(202608))
    dist = MARGINAL_DISTS[family]
    for values in (sample.xs, sample.ys):
        assert stats.kstest(values, dist.cdf).pvalue > 1e-3


@pytest.mark.parametrize("family", sorted(MARGINAL_DISTS))
def test_independence_at_theta_zero(family):
    sample = sample_family(FamilySpec(family, 0.0), 4000, SeedSpec(77))
    corr = np.corrcoef(sample.xs, sample.ys)[0, 1]
    assert abs(corr) < 0.06


def test_normal_family_correlation_and_scales():
    spec = FamilySpec("normal", 0.8, sigma1=2.0, sigma2=0.5)
    sample = sample_family(spec, 20_000, SeedSpec(4))
    assert abs(np.corrcoef(sample.xs, sample.ys)[0, 1] - 0.8) < 0.02
    assert abs(sample.xs.std() - 2.0) < 0.05
    assert abs(sample.ys.std() - 0.5) < 0.02


def test_laplace_family_correlation():
    # Mixing a common scale over correlated normals keeps corr = theta.
    sample = sample_family(FamilySpec("laplace", 0.6), 30_000, SeedSpec(6))
    assert abs(np.corrcoef(sample.xs, sample.ys)[0, 1] - 0.6) < 0.04


def test_chisquare_family_correlation():
    # Squares of theta-correlated standard normals have corr theta^2.
    sample = sample_family(FamilySpec("chisquare", 0.6), 30_000, SeedSpec(8))
    assert abs(np.corrcoef(sample.xs, sample.ys)[0, 1] - 0.36) < 0.05


def test_logistic_family_dependence_sign():
    sample = sample_family(FamilySpec("logistic", 0.8), 5000, SeedSpec(10))
    assert stats.spearmanr(sample.xs, sample.ys).statistic > 0.25
    flipped = sample_family(FamilySpec("logistic", -0.8), 5000, SeedSpec(10))
    assert stats.spearmanr(flipped.xs, flipped.ys).statistic < -0.25


def test_exponential_family_product_moment():
    # E[XY] = (1/theta) e^(1/theta) E1(1/theta) under the joint
    # survival function exp(-x - y - theta x y).
    theta = 0.5
    sample = sample_family(FamilySpec("exponential", theta), 200_000, SeedSpec(14))
    expected = (1.0 / theta) * exp_integral_G_scaled(1.0 / theta)
    observed = float(np.mean(sample.xs * sample.ys))
    assert abs(observed - expected) < 0.015


def test_exponential_family_joint_survival():
    theta = 0.7
    sample = sample_family(FamilySpec("exponential", theta), 120_000, SeedSpec(15))
    for s, t in ((0.5, 0.5), (1.0, 0.3), (0.2, 1.5)):
        empirical = float(np.mean((sample.xs > s) & (sample.ys > t)))
        exact = math.exp(-s - t - theta * s * t)
        assert abs(empirical - exact) < 0.006


def exponential_rate_switch(theta: float, n: int, seed: SeedSpec) -> PairedSample:
    """A deliberately wrong exponential sampler.

    Draws the second coordinate as a single exponential whose rate
    switches between 1 + theta*x and 2 + theta*x on the complementary
    mixture weights (theta/a and (a - theta)/a).  Its second marginal
    is not exponential; at theta = 0 it is Exp(2).  The tests below
    quantify how far this recipe strays from the exact sampler used by
    :func:`sample_family`.
    """
    spec = FamilySpec("exponential", theta)
    n = int(n)
    if n < 1:
        raise NOnPositive(f"sample size must be positive, got {n}")
    rng = seed.generator()
    xs = rng.standard_exponential(n)
    a = 1.0 + spec.theta * xs
    u = rng.random(n)
    rate = np.where(u * a > a - spec.theta, a, a + 1.0)
    ys = rng.standard_exponential(n) / rate
    return PairedSample(xs, ys)


def test_rate_switch_diagnostic_misses_the_marginal():
    # The diagnostic recipe draws the second coordinate from a single
    # rate-switched exponential; at theta = 0 that collapses to Exp(2),
    # so its mean sits near 1/2 where the production sampler gives 1.
    switched = exponential_rate_switch(0.0, 20_000, SeedSpec(21))
    produced = sample_family(FamilySpec("exponential", 0.0), 20_000, SeedSpec(21))
    assert abs(float(switched.ys.mean()) - 0.5) < 0.02
    assert abs(float(produced.ys.mean()) - 1.0) < 0.02

    switched_dep = exponential_rate_switch(0.5, 20_000, SeedSpec(22))
    produced_dep = sample_family(FamilySpec("exponential", 0.5), 20_000, SeedSpec(22))
    assert stats.kstest(switched_dep.ys, stats.expon().cdf).pvalue < 1e-6
    assert stats.kstest(produced_dep.ys, stats.expon().cdf).pvalue > 1e-3


def test_rate_switch_validation():
    with pytest.raises(NOnPositive):
        exponential_rate_switch(0.5, 0, SeedSpec(0))


@pytest.mark.parametrize("family", sorted(MARGINAL_DISTS))
def test_marginal_quantile_matches_reference(family):
    spec = FamilySpec(family, 0.2 if family == "exponential" else 0.0)
    dist = MARGINAL_DISTS[family]
    for u in np.linspace(0.05, 0.95, 10):
        value = marginal_quantile(spec, "x", float(u))
        assert math.isclose(value, float(dist.ppf(u)), rel_tol=1e-9, abs_tol=1e-12)


def test_marginal_quantile_normal_scales():
    spec = FamilySpec("normal", 0.0, sigma1=2.0, sigma2=0.5)
    base = marginal_quantile(FamilySpec("normal", 0.0), "x", 0.9)
    assert math.isclose(marginal_quantile(spec, "x", 0.9), 2.0 * base, rel_tol=1e-13)
    assert math.isclose(marginal_quantile(spec, "y", 0.9), 0.5 * base, rel_tol=1e-13)


def test_marginal_quantile_domain():
    spec = FamilySpec("uniform", 0.0)
    with pytest.raises(DomainError):
        marginal_quantile(spec, "z", 0.5)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            marginal_quantile(spec, "x", bad)
