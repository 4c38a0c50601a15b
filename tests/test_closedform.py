"""Closed-form population values, the exponential integral, and the
bivariate normal CDF."""

import math

import numpy as np
import pytest
import scipy.special as special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kappacov import (
    DomainError,
    FamilySpec,
    ThetaOutOfRange,
    UnsupportedFamily,
    kappa_bvn,
    kappa_gbed,
    population_kappa,
)
from kappacov.closedform import (
    PopulationMoments,
    bvn_cdf,
    bvn_moments,
    exp_integral_G,
    exp_integral_G_scaled,
    kappa_bvn_second_derivative,
    kappa_from_moments,
    kappa_gbed_derivative,
    kappa_quadrature_oracle,
)

# Frozen against mpmath-grade quadrature of the defining double integral;
# agreement was at the 1e-12 level when these were recorded.
GBED_VALUES = {
    0.1: 0.000510425887,
    0.3: 0.003343825312,
    0.5: 0.007227092887,
    0.7: 0.011479673307,
    0.9: 0.015816989963,
    1.0: 0.017973008642,
}


# --- exponential integral -------------------------------------------------


def test_exp_integral_known_value():
    assert math.isclose(exp_integral_G(1.0), 0.21938393439552312, rel_tol=1e-13)


def test_exp_integral_matches_reference_library():
    for x in np.logspace(-2, 2, 41):
        assert math.isclose(exp_integral_G(float(x)), float(special.exp1(x)), rel_tol=1e-12)


def test_exp_integral_series_cf_seam():
    # The implementation switches route at x = 1; both sides must agree.
    for x in (0.995, 1.0, 1.005):
        assert math.isclose(exp_integral_G(x), float(special.exp1(x)), rel_tol=1e-12)


def test_scaled_exp_integral_consistency():
    for x in (0.5, 1.0, 5.0, 50.0):
        assert math.isclose(exp_integral_G_scaled(x), math.exp(x) * exp_integral_G(x), rel_tol=1e-12)


def test_scaled_exp_integral_classical_bounds():
    # 1/(x+1) < e^x E1(x) < 1/x for all x > 0.
    for x in (1e-3, 1.0, 1e3, 1e6):
        scaled = exp_integral_G_scaled(x)
        assert 1.0 / (x + 1.0) < scaled < 1.0 / x


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("func", [exp_integral_G, exp_integral_G_scaled])
def test_exp_integral_domain(func, bad):
    with pytest.raises(DomainError):
        func(bad)


# --- exponential-family kappa ---------------------------------------------


def test_kappa_gbed_frozen_values():
    for theta, expected in GBED_VALUES.items():
        assert math.isclose(kappa_gbed(theta), expected, rel_tol=1e-9)


def test_kappa_gbed_zero_is_exact():
    assert kappa_gbed(0.0) == 0.0


def test_kappa_gbed_small_theta_quadratic():
    theta = 1e-3
    assert math.isclose(kappa_gbed(theta), theta**2 / 16.0, rel_tol=1e-2)


def test_kappa_gbed_monotone_and_derivative():
    grid = np.linspace(0.01, 1.0, 34)
    values = [kappa_gbed(float(t)) for t in grid]
    assert all(b > a for a, b in zip(values, values[1:]))
    h = 1e-6
    for theta in (0.2, 0.5, 0.8):
        slope = (kappa_gbed(theta + h) - kappa_gbed(theta - h)) / (2 * h)
        exact = kappa_gbed_derivative(theta)
        assert exact > 0.0
        assert math.isclose(exact, slope, rel_tol=1e-5)


@pytest.mark.parametrize("theta", [-0.01, 1.01, float("nan")])
def test_kappa_gbed_theta_domain(theta):
    with pytest.raises(ThetaOutOfRange):
        kappa_gbed(theta)
    with pytest.raises(ThetaOutOfRange):
        kappa_gbed_derivative(theta)


# --- normal-family kappa ----------------------------------------------------


def test_kappa_bvn_frozen_values():
    assert kappa_bvn(0.0) == 0.0
    assert math.isclose(kappa_bvn(0.5), 0.020687911538937013, rel_tol=1e-12)
    full = (math.pi / 3.0 + 1.0 - math.sqrt(3.0)) / math.pi
    assert math.isclose(kappa_bvn(1.0), full, rel_tol=1e-12)


def test_kappa_bvn_even_and_scaled():
    for theta in (0.2, 0.65, 0.9):
        assert math.isclose(kappa_bvn(-theta), kappa_bvn(theta), rel_tol=1e-13)
        assert math.isclose(
            kappa_bvn(theta, sigma1=2.0, sigma2=0.7), 1.4 * kappa_bvn(theta), rel_tol=1e-13
        )


def test_kappa_bvn_convexity():
    grid = np.linspace(-0.999, 0.999, 41)
    assert all(kappa_bvn_second_derivative(float(t)) >= 0.0 for t in grid)
    assert kappa_bvn_second_derivative(1.0) == math.inf
    assert kappa_bvn_second_derivative(-1.0) == math.inf
    # Finite-difference cross-check away from the endpoints.
    h = 1e-4
    for theta in (0.0, 0.4, 0.8):
        curvature = (kappa_bvn(theta + h) - 2 * kappa_bvn(theta) + kappa_bvn(theta - h)) / h**2
        assert math.isclose(curvature, kappa_bvn_second_derivative(theta), rel_tol=1e-4, abs_tol=1e-6)


def test_kappa_bvn_domain():
    with pytest.raises(ThetaOutOfRange):
        kappa_bvn(1.0001)
    with pytest.raises(ThetaOutOfRange):
        kappa_bvn_second_derivative(-1.5)
    with pytest.raises(DomainError):
        kappa_bvn(0.5, sigma1=0.0)


def test_bvn_moments_feed_kappa():
    for theta in (-0.8, -0.3, 0.0, 0.45, 0.95):
        moments = bvn_moments(theta)
        assert math.isclose(moments.mu1, 2.0 / math.sqrt(math.pi), rel_tol=1e-13)
        assert math.isclose(kappa_from_moments(moments), kappa_bvn(theta), rel_tol=1e-12, abs_tol=1e-15)
    scaled = bvn_moments(0.5, sigma1=2.0, sigma2=0.7)
    assert math.isclose(scaled.mu1, 4.0 / math.sqrt(math.pi), rel_tol=1e-13)
    assert math.isclose(scaled.mu2, 1.4 / math.sqrt(math.pi), rel_tol=1e-13)


def test_kappa_from_moments_formula():
    moments = PopulationMoments(mu1=1.0, mu2=2.0, mu3=3.0, mu12=4.0)
    assert kappa_from_moments(moments) == 0.25 * (4.0 - 2.0 * 3.0 + 1.0 * 2.0)


def test_population_kappa_dispatch():
    assert population_kappa(FamilySpec("normal", 0.5)) == kappa_bvn(0.5)
    assert population_kappa(FamilySpec("normal", 0.5, 2.0, 0.7)) == kappa_bvn(0.5, 2.0, 0.7)
    assert population_kappa(FamilySpec("exponential", 0.5)) == kappa_gbed(0.5)
    with pytest.raises(UnsupportedFamily):
        population_kappa(FamilySpec("uniform", 0.5))


# --- bivariate normal CDF ---------------------------------------------------


def test_bvn_cdf_independence_factorizes():
    for h in (-2.0, -0.3, 0.0, 1.1):
        for k in (-1.5, 0.0, 0.7, 2.5):
            product = float(special.ndtr(h) * special.ndtr(k))
            assert math.isclose(bvn_cdf(h, k, 0.0), product, rel_tol=1e-13, abs_tol=1e-15)


def test_bvn_cdf_comonotone_limits():
    for h, k in ((-1.0, 0.5), (0.3, 0.3), (2.0, -0.7)):
        lo = float(special.ndtr(min(h, k)))
        hi = max(float(special.ndtr(h) + special.ndtr(k)) - 1.0, 0.0)
        assert math.isclose(bvn_cdf(h, k, 1.0), lo, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(bvn_cdf(h, k, -1.0), hi, rel_tol=1e-12, abs_tol=1e-15)


def test_bvn_cdf_at_origin():
    for rho in (-0.9, -0.5, 0.0, 0.25, 0.8):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert math.isclose(bvn_cdf(0.0, 0.0, rho), expected, rel_tol=1e-12)


def test_bvn_cdf_monotone_in_arguments():
    hs = np.linspace(-3.0, 3.0, 25)
    values = [bvn_cdf(float(h), 0.4, 0.6) for h in hs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_bvn_cdf_rho_domain():
    with pytest.raises(DomainError):
        bvn_cdf(0.0, 0.0, 1.5)


def test_bvn_cdf_at_subnormal_coordinates():
    # The value is continuous at the origin, so coordinates below any
    # working step still give the origin's value.
    for h, k, rho in ((5e-324, 0.0, 0.875), (1e-310, 0.0, 0.5), (0.0, -1e-310, -0.3), (-5e-324, 1e-320, 0.2)):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert math.isclose(bvn_cdf(h, k, rho), expected, rel_tol=1e-12), (h, k, rho)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-8, 8, allow_nan=False),
    st.floats(-8, 8, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
)
@example(5e-324, 0.0, 0.875)
@example(1e-310, 0.0, 0.5)
def test_bvn_cdf_bounds_and_symmetry(h, k, rho):
    value = bvn_cdf(h, k, rho)
    assert 0.0 <= value <= 1.0
    assert math.isclose(value, bvn_cdf(k, h, rho), rel_tol=1e-11, abs_tol=1e-13)
    # Frechet bounds.
    ph, pk = float(special.ndtr(h)), float(special.ndtr(k))
    assert value <= min(ph, pk) + 1e-12
    assert value >= max(ph + pk - 1.0, 0.0) - 1e-12


# --- quadrature oracle -------------------------------------------------------


def test_quadrature_oracle_spot_checks():
    spec = FamilySpec("exponential", 0.4)
    assert math.isclose(kappa_quadrature_oracle(spec), kappa_gbed(0.4), rel_tol=1e-7)
    spec = FamilySpec("normal", 0.6, sigma1=1.5)
    assert math.isclose(kappa_quadrature_oracle(spec), kappa_bvn(0.6, 1.5, 1.0), rel_tol=1e-7)


def test_quadrature_oracle_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        kappa_quadrature_oracle(FamilySpec("laplace", 0.5))
