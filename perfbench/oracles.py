"""Reference values that the benchmark's gate compares each op against.

Every reference here is computed from the defining sums by code of the
benchmark's own, not by the engine under test, so an engine that drifts
fails the gate instead of moving its own reference.  All pairwise work is
done in row blocks, which keeps the benchmark's own peak memory well below
that of the ops it measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, linalg, stats

_BLOCK_ROWS = 256


@dataclass(frozen=True)
class EstimateReference:
    """Every field ``kappacov estimate --rho --variance`` prints, plus the
    natural magnitude ``scale`` (``statistic_scale``) of the statistics."""

    n: int
    kappa_star: float
    kappa_tilde: float
    kappa_hat: float
    delta1_hat: float
    rho_hat: float
    rho_tilde: float
    scale: float


def _blocks(n: int):
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _row_sums(values: np.ndarray) -> np.ndarray:
    out = np.empty(values.size)
    for rows in _blocks(values.size):
        out[rows] = np.abs(values[rows, None] - values[None, :]).sum(axis=1)
    return out


def estimate_reference(xs: np.ndarray, ys: np.ndarray) -> EstimateReference:
    """Defining kernel sums for all estimates of one sample, O(n) memory.

    ``kappa_hat`` averages products of fully centered kernels over all
    ordered pairs, ``kappa_tilde`` products of leave-type centered kernels
    over distinct pairs, and ``kappa_star`` combines the distinct-tuple
    means.  The rho values divide by the self-coefficients of each column.
    """
    n = xs.size
    ax, ay = _row_sums(xs), _row_sums(ys)
    rx, ry = ax / n, ay / n
    gx, gy = rx.mean(), ry.mean()
    leave = n / (n - 1.0)
    hat = np.zeros(3)  # xy, xx, yy
    tilde = np.zeros(3)
    pair_prod = 0.0
    g12 = np.empty(n)
    cond_x = np.empty(n)
    cond_y = np.empty(n)
    for rows in _blocks(n):
        dx = np.abs(xs[rows, None] - xs[None, :])
        dy = np.abs(ys[rows, None] - ys[None, :])
        hx = -0.5 * (dx - rx[rows, None] - rx[None, :] + gx)
        hy = -0.5 * (dy - ry[rows, None] - ry[None, :] + gy)
        hat += ((hx * hy).sum(), (hx * hx).sum(), (hy * hy).sum())
        tx = -0.5 * (dx - leave * (rx[rows, None] + rx[None, :] - gx))
        ty = -0.5 * (dy - leave * (ry[rows, None] + ry[None, :] - gy))
        local = np.arange(rows.stop - rows.start)
        tx[local, local + rows.start] = 0.0
        ty[local, local + rows.start] = 0.0
        tilde += ((tx * ty).sum(), (tx * tx).sum(), (ty * ty).sum())
        dxy = dx * dy
        pair_prod += dxy.sum()
        g12[rows] = dxy.mean(axis=1)
        cond_x[rows] = dx @ ry / n
        cond_y[rows] = dy @ rx / n
    hat /= float(n) * n
    tilde /= n * (n - 1.0)
    pairs = n * (n - 1.0)
    u1, u2, u12 = ax.sum() / pairs, ay.sum() / pairs, pair_prod / pairs
    u3 = (ax @ ay - pair_prod) / (pairs * (n - 2))
    projection = g12 + gx * ry + gy * rx - cond_x - cond_y - rx * ry
    return EstimateReference(
        n=n,
        kappa_star=0.25 * (u12 + u1 * u2 - 2.0 * u3),
        kappa_tilde=float(tilde[0]),
        kappa_hat=float(hat[0]),
        delta1_hat=0.25 * float(projection.var()),
        rho_hat=float(hat[0] / math.sqrt(hat[1] * hat[2])),
        rho_tilde=float(tilde[0] / math.sqrt(tilde[1] * tilde[2])),
        scale=0.25 * (u12 + 2.0 * u3 + u1 * u2),
    )


def permutation_pvalue(xs: np.ndarray, ys: np.ndarray, b: int, rng: np.random.Generator) -> float:
    """Upper-tail permutation p-value of ``kappa_star``, ``(1 + #{>=}) / (b + 1)``.

    Only ``u12`` and ``u3`` change under a permutation of ``ys``, so the
    statistic is compared through ``u12 - 2 u3`` up to a positive factor.
    """
    n = xs.size
    ax, ay = _row_sums(xs), _row_sums(ys)
    dx_blocks = [(rows, np.abs(xs[rows, None] - xs[None, :])) for rows in _blocks(n)]

    def shifted(perm: np.ndarray) -> float:
        pair = 0.0
        for rows, dx in dx_blocks:
            dyp = np.abs(ys[perm[rows], None] - ys[None, perm])
            pair += float((dx * dyp).sum())
        cross = float(ax @ ay[perm])
        return pair * (n - 2) - 2.0 * (cross - pair)

    observed = shifted(np.arange(n))
    exceed = sum(shifted(rng.permutation(n)) >= observed for _ in range(b))
    return (1.0 + exceed) / (b + 1.0)


def dense_spectrum(values: np.ndarray, k: int) -> np.ndarray:
    """Top ``k`` kernel eigenvalues of the empirical marginal, descending,
    from a dense eigensolve of ``[sqrt(p_i p_j) h(x_i, x_j)]``."""
    points, counts = np.unique(values, return_counts=True)
    probs = counts / values.size
    diff = np.abs(points[:, None] - points[None, :])
    g = diff @ probs
    kernel = -0.5 * (diff - g[:, None] - g[None, :] + probs @ g)
    root = np.sqrt(probs)
    kernel *= root[:, None]
    kernel *= root[None, :]
    k = min(k, points.size - 1)
    top = linalg.eigh(kernel, eigvals_only=True, subset_by_index=[points.size - k, points.size - 1])
    return top[::-1]


def chisquare_mixture_sf(weights: np.ndarray, q: float) -> float:
    """``P(sum_i w_i Z_i^2 > q)`` for positive ``w_i`` by Imhof's (1961)
    inversion of the characteristic function."""

    def integrand(u: float) -> float:
        wu = weights * u
        theta = 0.5 * np.arctan(wu).sum() - 0.5 * q * u
        log_rho = 0.25 * np.log1p(wu * wu).sum()
        return math.sin(theta) * math.exp(-log_rho) / u

    value, _ = integrate.quad(integrand, 0.0, np.inf, limit=500)
    return min(1.0, max(0.0, 0.5 + value / math.pi))


def centered_null_pvalue(lx: np.ndarray, ly: np.ndarray, statistic: float) -> float:
    """Upper tail of ``sum_ij lambda_i eta_j (Z_ij^2 - 1)`` at ``statistic``."""
    weights = np.outer(lx, ly).ravel()
    return chisquare_mixture_sf(weights, statistic + weights.sum())


# Standard errors by which two Monte Carlo p-values may differ.
P_Z = 5.0
# Per-op binomial tail below which one op's rejection count fails: a
# check for gross errors only, as one op has 100 trials per cell.
OP_TAIL = 1e-7
# Family-wise tail below which the hits of a whole run fail, split
# equally (Bonferroni) over the cells of the table.
RUN_TAIL = 1e-4


def pvalues_agree(p: float, count: int, p_ref: float, ref_count: float) -> bool:
    """Whether two Monte Carlo p-values from ``count`` and ``ref_count``
    draws agree within ``P_Z`` standard errors plus one step of each grid.

    ``ref_count`` is ``inf`` for an exact reference.  The variance uses the
    estimate nearer 1/2, so the band is never narrower than either side's.
    """
    spread = max(p * (1.0 - p), p_ref * (1.0 - p_ref))
    sigma = math.sqrt(spread * (1.0 / count + 1.0 / ref_count))
    return abs(p - p_ref) <= P_Z * sigma + 1.0 / (count + 1.0) + 1.0 / (ref_count + 1.0)


def permutation_size(alpha: float, b: int) -> float:
    """Exact rejection rate under independence of a ``b``-permutation test
    that rejects when ``(1 + #{>=}) / (b + 1) <= alpha``.

    Under independence the observed statistic and the ``b`` permuted ones
    are exchangeable, so its rank among them is uniform on ``1..b + 1``.
    """
    return sum((1.0 + exceed) / (b + 1.0) <= alpha for exceed in range(b + 1)) / (b + 1.0)


def rate_agrees(hits: int, trials: int, p_ref: float, ref_trials: float) -> bool:
    """Whether ``hits`` of ``trials`` is plausible for a rate recorded as
    ``p_ref`` from ``ref_trials`` trials (``inf`` for an exact rate).

    The recorded rate is widened by four of its standard errors plus
    3/``ref_trials`` (so a recorded 0 or 1 still admits rare misses); the
    count fails only if an exact binomial tail beyond it has probability
    below ``OP_TAIL`` at every rate in that interval.
    """
    se = math.sqrt(p_ref * (1.0 - p_ref) / ref_trials)
    slack = 4.0 * se + 3.0 / ref_trials
    lo, hi = max(0.0, p_ref - slack), min(1.0, p_ref + slack)
    too_many = stats.binom.sf(hits - 1, trials, hi) < OP_TAIL
    too_few = stats.binom.cdf(hits, trials, lo) < OP_TAIL
    return not (too_many or too_few)


def tally_agrees(hits: int, trials: int, p_ref: float, ref_trials: float, cells: int) -> bool:
    """Whether the hits of one cell over a whole run agree with its
    reference, at a two-sided tail of ``RUN_TAIL / cells``.

    An exact rate is tested with the exact binomial test; a recorded rate
    with Fisher's exact test of the two counts.
    """
    if math.isinf(ref_trials):
        pvalue = stats.binomtest(hits, trials, p_ref).pvalue
    else:
        ref_hits = round(p_ref * ref_trials)
        pvalue = stats.fisher_exact([[hits, trials - hits], [ref_hits, ref_trials - ref_hits]]).pvalue
    return pvalue >= RUN_TAIL / cells
