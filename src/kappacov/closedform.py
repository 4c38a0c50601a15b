"""Closed-form kappa curves and their quadrature cross-checks.

Two families admit an explicit dependence curve ``kappa(theta)``:

normal
    Correlation ``theta`` and marginal scales ``sigma1``, ``sigma2``::

        kappa = (sigma1 * sigma2 / pi) * (theta * asin(theta)
                + sqrt(1 - theta^2) + 1
                - theta * asin(theta / 2) - sqrt(4 - theta^2))

exponential
    Joint survival ``exp(-x - y - theta * x * y)`` with standard
    exponential marginals and ``theta in [0, 1]``::

        kappa = G(2/theta) * exp(2/theta) / (2*theta) + 1/4
                - (2/theta) * G(4/theta) * exp(4/theta)

    written here in the scaled form actually computed, where ``G`` is
    the exponential integral ``integral_{t >= 1} exp(-x t) / t dt``.

Both curves are validated against direct two-dimensional quadrature of
``(F12 - F1 * F2)^2``, the squared gap between the joint distribution
function and the product of its marginals, which equals kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .core import FamilySpec
from .errors import DomainError, ThetaOutOfRange, UnsupportedFamily

__all__ = [
    "PopulationMoments",
    "exp_integral_G",
    "exp_integral_G_scaled",
    "kappa_gbed",
    "kappa_gbed_derivative",
    "kappa_bvn",
    "kappa_bvn_second_derivative",
    "bvn_moments",
    "kappa_from_moments",
    "population_kappa",
    "bvn_cdf",
    "kappa_quadrature_oracle",
]

_EULER_GAMMA = 0.5772156649015328606
# Termination tolerance of the exponential-integral series and continued
# fraction, and the relative accuracy asked of the quadrature oracle.
_SPECIAL_FN_TOL = 1e-12
_QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class PopulationMoments:
    """Population pairwise moments determining kappa.

    ``mu1``/``mu2`` are the expected absolute differences of two
    independent copies of each marginal, ``mu3`` the expected product of
    the two conditional mean-difference functions at one joint draw, and
    ``mu12`` the expected product of coordinate differences of two joint
    draws.
    """

    mu1: float
    mu2: float
    mu3: float
    mu12: float


def kappa_from_moments(moments: PopulationMoments) -> float:
    """``(mu12 - 2*mu3 + mu1*mu2) / 4``."""
    return 0.25 * (moments.mu12 - 2.0 * moments.mu3 + moments.mu1 * moments.mu2)


def _series_E1(x: float) -> float:
    # -gamma - log(x) + sum_k (-1)^(k+1) x^k / (k * k!), rapid for x <= 1.
    # Alternating tail is bounded by the first omitted term, so stopping
    # two orders below the tolerance leaves ample margin on the delivered
    # error.
    stop = max(0.005 * _SPECIAL_FN_TOL, 1e-17)
    total = -_EULER_GAMMA - math.log(x)
    term = x
    total += term
    for k in range(2, 200):
        term *= -x * (k - 1) / (k * k)
        total += term
        if abs(term) <= stop * abs(total):
            return total
    raise ArithmeticError(f"series for the exponential integral stalled at x={x}")


def _scaled_cf_E1(x: float) -> float:
    # Modified Lentz evaluation of the continued fraction
    # exp(x) * E1(x) = 1 / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...)))).
    # Convergence is slowest near x = 1, where the truncation tail runs a
    # few multiples of the last step; stop well below the tolerance to
    # absorb that.
    stop = max(0.005 * _SPECIAL_FN_TOL, 5e-16)
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 600):
        a = -float(i) * i
        b += 2.0
        d = a * d + b
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= stop:
            return h
    raise ArithmeticError(f"continued fraction for the exponential integral stalled at x={x}")


def exp_integral_G(x: float) -> float:
    """Exponential integral ``integral_{t >= 1} exp(-x t) / t dt`` for x > 0.

    Power series for ``x <= 1``, continued fraction beyond.  Underflows
    to subnormals and then 0 for x beyond roughly 745, where the true
    value is below the float64 range.
    """
    x = float(x)
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise DomainError(f"exponential integral requires finite x > 0, got {x!r}")
    if x <= 1.0:
        return _series_E1(x)
    return math.exp(-x) * _scaled_cf_E1(x)


def exp_integral_G_scaled(x: float) -> float:
    """``exp(x) * exp_integral_G(x)``, stable for arbitrarily large x.

    The continued fraction produces the scaled product directly, so this
    never overflows; for large x it behaves as ``1/x - 1/x^2 + ...``.
    """
    x = float(x)
    if not (x > 0.0) or math.isinf(x) or math.isnan(x):
        raise DomainError(f"exponential integral requires finite x > 0, got {x!r}")
    if x <= 1.0:
        return math.exp(x) * _series_E1(x)
    return _scaled_cf_E1(x)


def _check_gbed_theta(theta: float) -> float:
    theta = float(theta)
    if not (0.0 <= theta <= 1.0):
        raise ThetaOutOfRange(f"exponential family requires theta in [0, 1], got {theta!r}")
    return theta


def kappa_gbed(theta: float) -> float:
    """kappa of the exponential family with survival ``exp(-x-y-theta*x*y)``.

    Returns exactly 0.0 at ``theta = 0`` (independence).  Increasing on
    [0, 1]; behaves as ``theta^2 / 16`` near 0.
    """
    theta = _check_gbed_theta(theta)
    if theta == 0.0:
        return 0.0
    w2 = exp_integral_G_scaled(2.0 / theta)
    w4 = exp_integral_G_scaled(4.0 / theta)
    return 0.5 / theta * w2 + 0.25 - 2.0 / theta * w4


def kappa_gbed_derivative(theta: float) -> float:
    """Derivative of :func:`kappa_gbed` in theta; 0.0 at theta = 0 (limit)."""
    theta = _check_gbed_theta(theta)
    if theta == 0.0:
        return 0.0
    w2 = exp_integral_G_scaled(2.0 / theta)
    w4 = exp_integral_G_scaled(4.0 / theta)
    t2 = theta * theta
    t3 = t2 * theta
    return (
        -1.5 / t2
        + (8.0 / t3 + 2.0 / t2) * w4
        - (1.0 / t3 + 0.5 / t2) * w2
    )


def _check_bvn_args(theta: float, sigma1: float, sigma2: float) -> tuple[float, float, float]:
    theta = float(theta)
    if not (-1.0 <= theta <= 1.0):
        raise ThetaOutOfRange(f"normal family requires theta in [-1, 1], got {theta!r}")
    sigma1, sigma2 = float(sigma1), float(sigma2)
    if not (math.isfinite(sigma1) and sigma1 > 0 and math.isfinite(sigma2) and sigma2 > 0):
        raise DomainError("sigma1 and sigma2 must be positive and finite")
    return theta, sigma1, sigma2


def kappa_bvn(theta: float, sigma1: float = 1.0, sigma2: float = 1.0) -> float:
    """kappa of the normal family with correlation theta.

    Even in theta, exactly 0.0 at theta = 0, and scales as
    ``sigma1 * sigma2``.
    """
    theta, sigma1, sigma2 = _check_bvn_args(theta, sigma1, sigma2)
    return (sigma1 * sigma2 / math.pi) * (
        theta * math.asin(theta)
        + math.sqrt(1.0 - theta * theta)
        + 1.0
        - theta * math.asin(0.5 * theta)
        - math.sqrt(4.0 - theta * theta)
    )


def kappa_bvn_second_derivative(
    theta: float, sigma1: float = 1.0, sigma2: float = 1.0
) -> float:
    """Second derivative of :func:`kappa_bvn` in theta.

    Equals ``(sigma1*sigma2/pi) * (1/sqrt(1-theta^2) - 1/sqrt(4-theta^2))``,
    which is nonnegative on (-1, 1): the curve is convex.  Returns
    ``inf`` at the endpoints ``theta = +-1`` (the one-sided limit).
    """
    theta, sigma1, sigma2 = _check_bvn_args(theta, sigma1, sigma2)
    if abs(theta) == 1.0:
        return math.inf
    return (sigma1 * sigma2 / math.pi) * (
        1.0 / math.sqrt(1.0 - theta * theta) - 1.0 / math.sqrt(4.0 - theta * theta)
    )


def bvn_moments(
    theta: float, sigma1: float = 1.0, sigma2: float = 1.0
) -> PopulationMoments:
    """Population pairwise moments of the normal family.

    Satisfies ``kappa_from_moments(bvn_moments(t)) == kappa_bvn(t)``.
    """
    theta, sigma1, sigma2 = _check_bvn_args(theta, sigma1, sigma2)
    root_pi = math.sqrt(math.pi)
    cross = sigma1 * sigma2 / math.pi
    return PopulationMoments(
        mu1=2.0 * sigma1 / root_pi,
        mu2=2.0 * sigma2 / root_pi,
        mu3=2.0 * cross * (theta * math.asin(0.5 * theta) + math.sqrt(4.0 - theta * theta)),
        mu12=4.0 * cross * (theta * math.asin(theta) + math.sqrt(1.0 - theta * theta)),
    )


def population_kappa(spec: FamilySpec) -> float:
    """Closed-form kappa for the families that have one.

    Raises
    ------
    UnsupportedFamily
        For families without a known closed form.
    """
    if spec.family == "normal":
        return kappa_bvn(spec.theta, spec.sigma1, spec.sigma2)
    if spec.family == "exponential":
        return kappa_gbed(spec.theta)
    raise UnsupportedFamily(
        f"no closed-form kappa for family {spec.family!r}; available: normal, exponential"
    )


def bvn_cdf(h: float, k: float, rho: float) -> float:
    """Standard bivariate normal distribution function ``P(X <= h, Y <= k)``.

    Owen's T-function decomposition, accurate to close to machine
    precision over the full correlation range, with the degenerate
    ``rho = +-1`` cases handled by their comonotone limits.
    """
    if not (-1.0 <= rho <= 1.0):
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    if rho == 0.0:
        return float(special.ndtr(h) * special.ndtr(k))
    if rho == 1.0:
        return float(special.ndtr(min(h, k)))
    if rho == -1.0:
        return float(max(0.0, special.ndtr(h) + special.ndtr(k) - 1.0))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    s = math.sqrt(1.0 - rho * rho)
    # Move a zero or near-zero coordinate out to a sub-epsilon step
    # (keeping its sign); the decomposition is continuous there and the
    # slope ratios stay finite instead of underflowing.
    tiny = 1e-300
    hh = math.copysign(tiny, h if h != 0.0 else k) if abs(h) < tiny else h
    kk = math.copysign(tiny, k if k != 0.0 else h) if abs(k) < tiny else k
    a_h = (kk - rho * hh) / (hh * s)
    a_k = (hh - rho * kk) / (kk * s)
    # Compare signs: the product hh * kk underflows for two stand-ins.
    correction = 0.0 if (hh > 0.0) == (kk > 0.0) else 0.5
    value = (
        0.5 * (special.ndtr(h) + special.ndtr(k))
        - special.owens_t(hh, a_h)
        - special.owens_t(kk, a_k)
        - correction
    )
    return float(min(1.0, max(0.0, value)))


def kappa_quadrature_oracle(spec: FamilySpec) -> float:
    """kappa by adaptive 2-D quadrature of ``(F12 - F1*F2)^2``.

    Independent of the closed forms: the normal integrand evaluates the
    joint distribution function through Owen's T-function and the
    exponential one uses the explicit survival, and both are integrated
    over a truncation box whose tail contribution is far below the
    requested tolerance.  Supports the normal and exponential families.
    """
    if spec.family == "normal":
        rho = spec.theta

        def integrand(v: float, u: float) -> float:
            gap = bvn_cdf(u, v, rho) - special.ndtr(u) * special.ndtr(v)
            return gap * gap

        value, _ = integrate.dblquad(
            integrand, -9.0, 9.0, -9.0, 9.0,
            epsabs=1e-13, epsrel=_QUAD_REL_TOL,
        )
        return spec.sigma1 * spec.sigma2 * value

    if spec.family == "exponential":
        theta = spec.theta

        def integrand(y: float, x: float) -> float:
            gap = math.exp(-x - y) * (math.exp(-theta * x * y) - 1.0)
            return gap * gap

        value, _ = integrate.dblquad(
            integrand, 0.0, 40.0, 0.0, 40.0,
            epsabs=1e-13, epsrel=_QUAD_REL_TOL,
        )
        return value

    raise UnsupportedFamily(
        f"quadrature oracle supports normal and exponential, got {spec.family!r}"
    )
