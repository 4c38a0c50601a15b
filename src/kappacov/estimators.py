"""Estimators of the dependence coefficient kappa.

kappa is defined through products of doubly centered absolute-difference
kernels; it is nonnegative, zero exactly under independence, and for the
population equals ``(mu12 - 2*mu3 + mu1*mu2) / 4`` in terms of the
expected pairwise and cross moments.  Three sample versions exist:

``kappa_star``
    ``(u12 + u1*u2 - 2*u3) / 4`` from the distinct-tuple means.
``kappa_tilde``
    Mean over unordered pairs of products of kernels centered with
    leave-type ``n/(n-1)`` factors.  May be negative; exactly mean-zero
    under independence.
``kappa_hat``
    Mean over all ordered pairs of products of fully centered kernels,
    ``(v12 - 2*v3 + v1*v2) / 4``.  Always nonnegative; carries an O(1/n)
    positive bias.

``kappa_tilde`` and ``kappa_hat`` admit exact finite-n expressions in
terms of ``kappa_star`` and the distinct-tuple means; the production
paths use those, while the ``*_direct`` functions evaluate the defining
kernel sums for cross-validation.  The two routes agree to floating
point roundoff on every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairedSample
from .errors import DegenerateMarginal, SampleTooSmall
from .ustats import UStatBundle, differences
from .ustats import _bundle_from_sums, _in_units, _pair_row_sums, _sorted_row_sums, _sweep, _unit

__all__ = [
    "ESTIMATOR_NAMES",
    "KappaEstimates",
    "RhoEstimates",
    "kappa_star",
    "kappa_tilde",
    "kappa_hat",
    "kappa_hat_relation",
    "kappa_trio",
    "kappa_tilde_direct",
    "kappa_hat_direct",
    "statistic_scale",
    "delta1_plugin",
    "estimate",
    "rho_estimates",
]

# The estimators, ``kappa_<name>``, in the order :func:`kappa_trio` returns them.
ESTIMATOR_NAMES = ("star", "tilde", "hat")


@dataclass(frozen=True)
class KappaEstimates:
    """The three kappa estimates of one sample, optionally with the
    plug-in asymptotic variance of ``sqrt(n) * (estimate - kappa)``."""

    kappa_star: float
    kappa_tilde: float
    kappa_hat: float
    n: int
    delta1_hat: float | None = None


@dataclass(frozen=True)
class RhoEstimates:
    """Normalized dependence coefficients in [0, 1] (hat) and [-1, 1]
    (tilde), obtained by dividing each kappa by the geometric mean of
    its two self-coefficients."""

    rho_hat: float
    rho_tilde: float
    n: int


def _unit_bundle(data: PairedSample | UStatBundle) -> tuple[UStatBundle, int]:
    if isinstance(data, UStatBundle):
        return data, 0
    unit, ex, ey = _unit(data)
    return _sweep(unit)[0], ex + ey


def kappa_star(data: PairedSample | UStatBundle) -> float:
    """Quarter combination of the distinct-tuple means.

    Accepts a sample, or a precomputed bundle when several statistics
    share one :func:`~kappacov.ustats.compute_ustats` call.
    """
    bundle, e = _unit_bundle(data)
    return _in_units(0.25 * (bundle.u12 + bundle.u1 * bundle.u2 - 2.0 * bundle.u3), e)


def kappa_tilde(data: PairedSample | UStatBundle) -> float:
    """Leave-type centered estimate via its exact finite-n relation to
    :func:`kappa_star`."""
    bundle, e = _unit_bundle(data)
    n = bundle.n
    nm1 = n - 1.0
    correction = 0.25 * (
        -2.0 * n / nm1**2 * bundle.u12
        + 2.0 / nm1**2 * bundle.u3
        + 2.0 / nm1 * bundle.u1 * bundle.u2
    )
    return _in_units(kappa_star(bundle) + correction, e)


def kappa_hat(data: PairedSample | UStatBundle) -> float:
    """Fully centered estimate from the with-replacement means."""
    bundle, e = _unit_bundle(data)
    return _in_units(0.25 * (bundle.v12 - 2.0 * bundle.v3 + bundle.v1 * bundle.v2), e)


def kappa_hat_relation(data: PairedSample | UStatBundle) -> float:
    """:func:`kappa_hat` expressed through the distinct-tuple means.

    Exact finite-n identity; useful as an independent route when
    validating the with-replacement reductions.
    """
    bundle, e = _unit_bundle(data)
    n = bundle.n
    square = float(n) * n
    correction = 0.25 * (
        (2.0 - 3.0 * n) / square * bundle.u12
        - 2.0 * (2.0 - 3.0 * n) / square * bundle.u3
        + (1.0 - 2.0 * n) / square * bundle.u1 * bundle.u2
    )
    return _in_units(kappa_star(bundle) + correction, e)


def kappa_trio(data: PairedSample | UStatBundle) -> tuple[float, float, float]:
    """(kappa_star, kappa_tilde, kappa_hat) from one shared bundle."""
    bundle, e = _unit_bundle(data)
    return tuple(_in_units(f(bundle), e) for f in (kappa_star, kappa_tilde, kappa_hat))


def statistic_scale(data: PairedSample | UStatBundle) -> float:
    """Natural magnitude of the kappa statistics of a sample.

    Quarter of the sum of the absolute values of the three combined
    terms.  The statistics are signed combinations of these terms, so
    this is the correct denominator floor when comparing two computation
    routes in relative terms near a zero crossing.
    """
    bundle, e = _unit_bundle(data)
    return _in_units(0.25 * (bundle.u12 + 2.0 * bundle.u3 + bundle.u1 * bundle.u2), e)


def kappa_tilde_direct(sample: PairedSample) -> float:
    """Defining kernel-product sum for the leave-type centered estimate.

    Builds both centered kernel matrices explicitly and averages their
    entrywise product over unordered pairs.  O(n^2) memory; used to
    cross-check :func:`kappa_tilde`.
    """
    n = sample.n
    if n < 2:
        raise SampleTooSmall(f"need at least 2 observations, got {n}")
    scale = n / (n - 1.0)
    dx = differences(sample.xs)
    row_x = dx.mean(axis=1)
    hx = -0.5 * (dx - scale * (np.add.outer(row_x, row_x) - row_x.mean()))
    dy = differences(sample.ys)
    row_y = dy.mean(axis=1)
    hy = -0.5 * (dy - scale * (np.add.outer(row_y, row_y) - row_y.mean()))
    upper = np.triu_indices(n, 1)
    return float((hx[upper] * hy[upper]).sum()) / math.comb(n, 2)


def kappa_hat_direct(sample: PairedSample) -> float:
    """Defining kernel-product sum for the fully centered estimate.

    Diagonal entries included: the average runs over all ordered pairs.
    """
    n = sample.n
    if n < 2:
        raise SampleTooSmall(f"need at least 2 observations, got {n}")
    dx = differences(sample.xs)
    row_x = dx.mean(axis=1)
    hx = -0.5 * (dx - np.add.outer(row_x, row_x) + row_x.mean())
    dy = differences(sample.ys)
    row_y = dy.mean(axis=1)
    hy = -0.5 * (dy - np.add.outer(row_y, row_y) + row_y.mean())
    return float((hx * hy).sum()) / (float(n) * n)


def delta1_plugin(sample: PairedSample) -> float:
    """Plug-in estimate of the asymptotic variance of
    ``sqrt(n) * (kappa_estimate - kappa)``.

    The limit variance is a quarter of the variance of the first
    projection of the estimating kernel.  Every population mean in that
    projection is replaced by the matching sample mean:

    * the joint pairwise mean at ``(x_i, y_i)``,
    * the two marginal pairwise means,
    * the two mixed conditional means, estimated by weighting the
      opposite coordinate's pairwise means with the observed distances,
    * and the product of the marginal pairwise means.

    Variance is taken with denominator ``n``.  All three kappa
    estimators share this limit, so one value serves for them all; it is
    the ``delta1_hat`` of :func:`estimate` with ``with_variance=True``.
    Its row-level sums come from sorts: O(n log n) time, O(n) memory.
    """
    if sample.n < 3:
        raise SampleTooSmall(f"need at least 3 observations, got {sample.n}")
    unit, ex, ey = _unit(sample)
    return _in_units(_delta1(unit, _sorted_row_sums(unit.xs), _sorted_row_sums(unit.ys)), 2 * (ex + ey))


def _delta1(unit: PairedSample, a: np.ndarray, b: np.ndarray) -> float:
    """:func:`delta1_plugin` of a unit sample with row sums ``a`` and ``b``, in the unit."""
    n = unit.n
    g1, g2, g12 = a / n, b / n, _pair_row_sums(unit) / n
    cond_x = _sorted_row_sums(unit.xs, b) / n / n
    cond_y = _sorted_row_sums(unit.ys, a) / n / n
    projection = g12 + g1.mean() * g2 + g2.mean() * g1 - cond_x - cond_y - g1 * g2
    return 0.25 * float(projection.var())


def estimate(sample: PairedSample, with_variance: bool = False) -> KappaEstimates:
    """All three kappa estimates of one sample from one bundle, and on
    request the plug-in variance of :func:`delta1_plugin`; both take the
    one unit sample and its row sums."""
    unit, ex, ey = _unit(sample)
    a, b = _sorted_row_sums(unit.xs), _sorted_row_sums(unit.ys)
    star, tilde, hat = (_in_units(kappa, ex + ey) for kappa in kappa_trio(_sweep(unit, rows=(a, b))[0]))
    delta1 = _in_units(_delta1(unit, a, b), 2 * (ex + ey)) if with_variance else None
    return KappaEstimates(
        kappa_star=star, kappa_tilde=tilde, kappa_hat=hat, n=sample.n, delta1_hat=delta1
    )


# Cauchy-Schwarz bounds the normalized coefficients by 1 exactly, and a
# linear pair reaches 1 exactly; a value within this much rounding of 1,
# or of the lower bound from below, reads as that bound.
_RHO_ROUNDING = 1e-12


def _clip_rho(value: float, lower: float) -> float:
    if abs(value - 1.0) <= _RHO_ROUNDING:
        return 1.0
    if lower - _RHO_ROUNDING <= value < lower:
        return lower
    return value


def _self_bundle(values: np.ndarray, row_totals: np.ndarray) -> UStatBundle:
    # Bundle of the pair (values, values).  Its pair product
    # sum_ij (v_i - v_j)^2 is 2n * sum_i (v_i - mean)^2, less the
    # n * (error)^2 a rounded mean adds (6e-8 near 1e9), so the sorted
    # row sums of the one difference matrix, row_totals, are all it needs.
    centered = values - values.mean()
    n = values.size
    pair_prod = 2.0 * n * (float((centered * centered).sum()) - float(centered.sum()) ** 2 / n)
    total = float(row_totals.sum())
    return _bundle_from_sums(n, total, total, pair_prod, float((row_totals * row_totals).sum()))


def rho_estimates(sample: PairedSample) -> RhoEstimates:
    """Normalized coefficients ``kappa(x, y) / sqrt(kappa(x, x) * kappa(y, y))``.

    Raises
    ------
    DegenerateMarginal
        If either marginal is constant, making a self-coefficient zero.
    """
    unit = _unit(sample)[0]
    a, b = _sorted_row_sums(unit.xs), _sorted_row_sums(unit.ys)
    both = _sweep(unit, rows=(a, b))[0]
    self_x, self_y = _self_bundle(unit.xs, a), _self_bundle(unit.ys, b)

    hat_x, hat_y = kappa_hat(self_x), kappa_hat(self_y)
    tilde_x, tilde_y = kappa_tilde(self_x), kappa_tilde(self_y)
    # A constant marginal has all-zero differences, so u1 or u2 is 0; its
    # centered square sum may still be a rounding residue above zero.
    constant = not (both.u1 and both.u2)
    if constant or min(hat_x, hat_y, tilde_x, tilde_y) <= 0.0:
        raise DegenerateMarginal(
            "a marginal is constant; normalized coefficients are undefined"
        )

    # One root per factor fixes rho's last bits; in the unit, the product would fit.
    rho_hat = _clip_rho(kappa_hat(both) / (math.sqrt(hat_x) * math.sqrt(hat_y)), 0.0)
    rho_tilde = _clip_rho(kappa_tilde(both) / (math.sqrt(tilde_x) * math.sqrt(tilde_y)), -1.0)
    return RhoEstimates(rho_hat=rho_hat, rho_tilde=rho_tilde, n=sample.n)
