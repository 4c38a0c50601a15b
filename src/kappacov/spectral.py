"""Kernel spectra on discretized marginals and the null limit law.

Under independence the n-scaled statistics converge to weighted sums of
chi-square variables: ``n * kappa_tilde`` and ``n * kappa_star`` to
``sum_ij lambda_i * eta_j * (Z_ij^2 - 1)`` and ``n * kappa_hat`` to the
same sum without the centering, where Z_ij are i.i.d. standard normal
and lambda/eta are the eigenvalues of the centered absolute-difference
kernel of each marginal.

The eigenvalues solve a generalized problem ``D_p g = lambda C g`` on a
discretized marginal, with ``D_p`` the diagonal of probabilities and
``C`` a tridiagonal matrix built from inverse gaps ``c_m``.  Writing
``C = B' diag(c) B`` with ``B`` the first-difference matrix shows the
symmetric form ``M = D_p^{-1/2} C D_p^{-1/2}`` equals ``K'K`` for
``K = diag(sqrt(c)) B D_p^{-1/2}``, so the nonzero reciprocal
eigenvalues of ``M`` are exactly the eigenvalues of the positive
definite tridiagonal ``K K'``.  Solving the latter removes the constant
mode structurally instead of relying on a numerical threshold to
separate it (at t = 1000 the spurious mode computes to about 6e-11,
uncomfortably close to any fixed cutoff).  A dense eigendecomposition
of the kernel matrix itself is kept as an independent oracle.  Both
solve on the support divided by ``ustats._unit_exponent``'s power of two
and scale the eigenvalues back, exactly, so a spectrum follows the data's
units and its zero cut does not.

The limit law is fixed by the two spectra: one ``_NullLaw`` per pair
gives a statistic's threshold, a Chernoff bound for the far tail, and
the upper tail of either law exactly, by Imhof's (1961) inversion of
the characteristic function over every product ``lambda_i * eta_j``;
:func:`null_tail` asks one.  Asked for the tail at a level, it returns
a Chernoff bound below that level without the integral: the far-tail
exit at 1e-12 and a power study's test at alpha are one route.  The
law never forms the products as one array: at each point of the
integral the few large products are summed directly and the rest by
power series whose coefficients are power sums of the two spectra,
truncated below 1e-19 of their sums and kept.  The two Fourier-weighted
passes of the integral share their nodes, so each is evaluated once.
:func:`null_limit_model` draws the same law by Monte Carlo and is kept
as the oracle the exact tail is tested against.

scipy is imported inside the functions that use it, the two
eigensolvers, :func:`null_tail` and its Chernoff bound, so importing
this module loads numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import SeedSpec
from .errors import (
    AllValuesEqual,
    DegenerateGrid,
    DomainError,
    EmptySpectrum,
    NonMonotoneQuantile,
    SampleTooSmall,
)
from .ustats import _unit_exponent, differences

__all__ = [
    "DiscreteMarginal",
    "EigenSpectrum",
    "NullLimitModel",
    "discretize_marginal",
    "empirical_marginal",
    "kernel_eigenvalues",
    "dense_kernel_eigenvalues",
    "null_limit_model",
    "null_pvalue",
    "null_tail",
]

_DENSE_T_LIMIT = 200
# Reciprocal (tridiagonal) or kernel (dense) eigenvalues at or below this,
# on a support scaled to a spread in [1/2, 1), are discarded as the removed
# constant mode or numerical noise.
_EIG_ZERO_TOL = 1e-10
_DRAW_BATCH = 1024
# Terms M of each power series that sums the products outside the head
# (see _NullLaw.imhof_sums).
_SERIES_TERMS = 30
# Far-tail level: by default the Chernoff bound is returned below it, and
# the Imhof estimate, accurate to a tenth of it, is floored at it.
_TAIL_FLOOR = 1e-12
# Periods of cos(q u / 2) integrated plainly before a Fourier-weighted tail.
_TAIL_PERIODS = 10
# Thresholds q at or below it have tail 1 (see null_tail).
_TAIL_BOTTOM = 1e-30


@dataclass(frozen=True, eq=False)
class DiscreteMarginal:
    """Finitely supported marginal: strictly increasing points with
    positive probabilities summing to 1."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if points.ndim != 1 or probs.ndim != 1 or points.shape != probs.shape:
            raise DomainError("points and probs must be 1-d arrays of equal length")
        if points.size < 2:
            raise DegenerateGrid("a discrete marginal needs at least 2 support points")
        if not np.all(np.isfinite(points)):
            raise DomainError("support points must be finite")
        if np.any(points[1:] <= points[:-1]):
            raise DegenerateGrid("support points must be strictly increasing")
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise DomainError("probabilities must be finite and positive")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")
        points = points.copy()
        probs = probs.copy()
        points.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "probs", probs)

    @property
    def t(self) -> int:
        return int(self.points.size)

    def mean_abs_difference(self) -> float:
        """E|X - X'| for two independent copies.

        Uses the layer-cake form sum over gaps of 2 F (1 - F), linear in
        t rather than quadratic; the gaps of the halved points cannot overflow.
        """
        cdf = np.cumsum(self.probs)[:-1]
        half_gaps = np.diff(0.5 * self.points)
        return float(4.0 * np.sum(half_gaps * cdf * (1.0 - cdf)))

    @property
    def trace_target(self) -> float:
        """Half the mean absolute difference; equals the full eigenvalue sum."""
        return 0.5 * self.mean_abs_difference()


@dataclass(frozen=True, eq=False)
class EigenSpectrum:
    """Positive kernel eigenvalues of one marginal, descending.

    ``trace_target`` is half the marginal's mean absolute difference;
    the complete spectrum sums to it, a truncated one falls short.
    """

    lambdas: np.ndarray
    t: int
    trace_target: float

    def __post_init__(self) -> None:
        lambdas = np.asarray(self.lambdas, dtype=np.float64)
        if lambdas.ndim != 1 or lambdas.size == 0:
            raise EmptySpectrum("spectrum must contain at least one eigenvalue")
        if np.any(lambdas <= 0.0) or not np.all(np.isfinite(lambdas)):
            raise DomainError("eigenvalues must be finite and positive")
        if np.any(np.diff(lambdas) > 0.0):
            raise DomainError("eigenvalues must be sorted in descending order")
        if lambdas.size > self.t - 1:
            raise DomainError("at most t - 1 nonzero eigenvalues can exist")
        lambdas = lambdas.copy()
        lambdas.flags.writeable = False
        object.__setattr__(self, "lambdas", lambdas)

    @property
    def k(self) -> int:
        return int(self.lambdas.size)

    @property
    def total(self) -> float:
        return float(self.lambdas.sum())

    def as_dict(self) -> dict:
        return {
            "lambdas": [float(v) for v in self.lambdas],
            "t": self.t,
            "trace_target": self.trace_target,
            "sum_lambdas": self.total,
        }


@dataclass(frozen=True, eq=False)
class NullLimitModel:
    """Monte Carlo sample of the weighted chi-square null limit.

    ``centered`` selects the law: True gives the limit of the unbiased
    statistics (terms ``Z^2 - 1``), False the nonnegative one (``Z^2``).
    """

    lambdas: EigenSpectrum
    etas: EigenSpectrum
    draws: np.ndarray
    centered: bool
    seed: SeedSpec

    def __post_init__(self) -> None:
        draws = np.asarray(self.draws, dtype=np.float64)
        if draws.ndim != 1 or draws.size == 0:
            raise DomainError("the null model needs at least one draw")
        if np.any(np.diff(draws) < 0.0):
            raise DomainError("draws must be sorted ascending")
        draws = draws.copy()
        draws.flags.writeable = False
        object.__setattr__(self, "draws", draws)

    @property
    def r(self) -> int:
        return int(self.draws.size)


def discretize_marginal(quantile_fn, t: int) -> DiscreteMarginal:
    """t-point equal-weight discretization at quantile levels (m - 1/2)/t.

    Raises
    ------
    DegenerateGrid
        If t < 3.
    NonMonotoneQuantile
        If the evaluated quantiles fail to strictly increase.
    """
    t = int(t)
    if t < 3:
        raise DegenerateGrid(f"discretization needs at least 3 points, got {t}")
    levels = (np.arange(1, t + 1) - 0.5) / t
    points = np.array([float(quantile_fn(u)) for u in levels], dtype=np.float64)
    if not np.all(np.isfinite(points)):
        raise DomainError("quantile function produced non-finite values")
    if np.any(np.diff(points) <= 0.0):
        raise NonMonotoneQuantile("quantile function is not strictly increasing")
    return DiscreteMarginal(points, np.full(t, 1.0 / t))


def empirical_marginal(values) -> DiscreteMarginal:
    """Distinct sorted values weighted by multiplicity / n.

    Raises
    ------
    SampleTooSmall
        Fewer than 3 values.
    AllValuesEqual
        A single distinct value (no spread, no spectrum).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("values must form a 1-d array")
    if arr.size < 3:
        raise SampleTooSmall(f"need at least 3 values, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("values must be finite")
    points, counts = np.unique(arr, return_counts=True)
    if points.size < 2:
        raise AllValuesEqual("all values are identical")
    return DiscreteMarginal(points, counts / arr.size)


def kernel_eigenvalues(marginal: DiscreteMarginal, k_max: int) -> EigenSpectrum:
    """Top k_max kernel eigenvalues of a discrete marginal.

    Solves the positive definite tridiagonal system described in the
    module docstring; the reciprocals of its eigenvalues are the kernel
    eigenvalues, with the constant mode excluded by construction.  It is
    solved on the support divided by ``2**e`` for its
    :func:`~kappacov.ustats._unit_exponent`, and the eigenvalues are
    multiplied back, both exactly, so the spectrum follows the data's
    units, and a reciprocal mode at or below ``_EIG_ZERO_TOL`` there is
    discarded whatever the units.  A two-point marginal gives a 1 x 1
    system whose one eigenvalue ``p_1 p_2 (x_2 - x_1)`` is its
    ``trace_target``.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max}")
    t = marginal.t
    exponent = _unit_exponent(marginal.points)
    gaps = np.diff(np.ldexp(marginal.points, -exponent))
    p = marginal.probs
    # Every gap * p and gap * neighbouring gap above 4 / max keeps c = 1 / gap and all entries finite.
    floor = min((gaps * np.minimum(p[:-1], p[1:])).min(), (gaps[:-1] * gaps[1:]).min(initial=1.0))
    if floor <= 4.0 / sys.float_info.max:
        raise DegenerateGrid("consecutive support points too close: infinite coefficient")
    c = 1.0 / gaps
    diag = c * (1.0 / p[:-1] + 1.0 / p[1:])
    off = -np.sqrt(c[:-1] * c[1:]) / p[1:-1]
    from scipy.linalg import eigvalsh_tridiagonal

    mu = eigvalsh_tridiagonal(diag, off)
    mu = mu[mu > _EIG_ZERO_TOL]
    if mu.size == 0:
        raise EmptySpectrum("no eigenvalue exceeded the zero tolerance")
    lambdas = np.ldexp(1.0 / mu, exponent)
    return EigenSpectrum(lambdas[:k_max], t, marginal.trace_target)


def _weighted_kernel_matrix(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    absdiff = differences(x)
    g = absdiff @ p
    grand = float(p @ g)
    root_p = np.sqrt(p)
    return -0.5 * (absdiff - np.add.outer(g, g) + grand) * np.outer(root_p, root_p)


def dense_kernel_eigenvalues(marginal: DiscreteMarginal, k_max: int) -> EigenSpectrum:
    """Oracle route: eigendecompose [sqrt(p_i p_j) h(x_i, x_j)] directly.

    Quadratic in t, so restricted to t <= 200.  Exists to cross-check
    :func:`kernel_eigenvalues`; production code should use the
    tridiagonal solver.  Its kernel is built on the support scaled as in
    :func:`kernel_eigenvalues`.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be at least 1, got {k_max}")
    t = marginal.t
    if t > _DENSE_T_LIMIT:
        raise DomainError(f"dense oracle limited to t <= {_DENSE_T_LIMIT}, got {t}")
    exponent = _unit_exponent(marginal.points)
    kernel = _weighted_kernel_matrix(np.ldexp(marginal.points, -exponent), marginal.probs)
    from scipy.linalg import eigh

    eigvals = eigh(kernel, eigvals_only=True)[::-1]
    eigvals = eigvals[eigvals > _EIG_ZERO_TOL]
    if eigvals.size == 0:
        raise EmptySpectrum("no eigenvalue exceeded the zero tolerance")
    return EigenSpectrum(np.ldexp(eigvals[:k_max], exponent), t, marginal.trace_target)


def _batch_generator(seed: SeedSpec, batch_index: int) -> np.random.Generator:
    # Two-level spawn key: never collides with the single-level
    # substreams handed out elsewhere for the same master seed.
    ss = np.random.SeedSequence(
        seed.master_seed, spawn_key=(seed.stream_index, batch_index)
    )
    return np.random.default_rng(ss)


def null_limit_model(
    lx: EigenSpectrum,
    ly: EigenSpectrum,
    k: int,
    r: int,
    seed: SeedSpec,
    centered: bool,
) -> NullLimitModel:
    """Monte Carlo draws of ``sum_ij lambda_i eta_j (Z_ij^2 - c)``.

    ``c`` is 1 when ``centered`` else 0.  Each spectrum is truncated to
    its top ``min(k, available)`` eigenvalues.  Draws are produced in
    fixed-size batches with per-batch generators derived from ``seed``,
    so the result is reproducible and independent of any scheduling.
    """
    if k < 1:
        raise DomainError(f"k must be at least 1, got {k}")
    if r < 1000:
        raise DomainError(f"need at least 1000 draws for a usable null model, got {r}")
    if lx.k == 0 or ly.k == 0:
        raise EmptySpectrum("both marginals need a nonempty spectrum")
    lam = lx.lambdas[:k]
    eta = ly.lambdas[:k]
    chunks: list[np.ndarray] = []
    offset = 1.0 if centered else 0.0
    for batch_index in range(math.ceil(r / _DRAW_BATCH)):
        size = min(_DRAW_BATCH, r - batch_index * _DRAW_BATCH)
        rng = _batch_generator(seed, batch_index)
        q = rng.standard_normal((size, lam.size, eta.size))
        # In place: a batch of 1024 x 100 x 100 draws is 80 MB per copy.
        np.square(q, out=q)
        q -= offset
        chunks.append((q @ eta) @ lam)
    draws = np.sort(np.concatenate(chunks))
    return NullLimitModel(
        lambdas=EigenSpectrum(lam, lx.t, lx.trace_target),
        etas=EigenSpectrum(eta, ly.t, ly.trace_target),
        draws=draws,
        centered=centered,
        seed=seed,
    )


def null_pvalue(model: NullLimitModel, statistic: float) -> float:
    """Upper-tail probability ``(1 + #{draws >= statistic}) / (r + 1)``."""
    statistic = float(statistic)
    if not math.isfinite(statistic):
        raise DomainError(f"statistic must be finite, got {statistic!r}")
    below = int(np.searchsorted(model.draws, statistic, side="left"))
    return (1 + model.r - below) / (model.r + 1)


class _NullLaw:
    """The null limit law of two spectra, fixed by their products ``w_ij =
    a_i b_j`` scaled so ``a_0 = b_0 = 1``, summed over without forming them
    as one array; a statistic and its centering only move the threshold.

    Level ``bits`` splits the products at ``tau = 2**-bits``.  Its head,
    the products ``w >= tau``, is kept as an array; the rest enter through
    ``T_p / p`` for ``p = 1 .. 2 M``, where ``T_p = sum (w / tau)**p`` over
    the rest.  Row i's rest starts at ``j_i``, the first j with ``a_i b_j <
    tau`` (one ``searchsorted`` over the descending b), so ``T_p = sum_i
    r_i**p F_p[j_i]`` with ``r_i = a_i b_{j_i} / tau < 1`` and ``F_p[j] =
    sum_{j' >= j} (b_j' / b_j)**p`` in [1, k_y]: no factor overflows, and
    none underflows unless its term is negligible, however small tau is.
    A level is built when first asked for and kept.
    """

    def __init__(self, lx: EigenSpectrum, ly: EigenSpectrum) -> None:
        self.a = lx.lambdas / lx.lambdas[0]
        self.b = ly.lambdas / ly.lambdas[0]
        self.total = float(self.a.sum() * self.b.sum())
        # Unscaled: the mean of sum w Z^2, the mass left out, the largest w.
        self._mean = lx.total * ly.total
        self._left_out = lx.trace_target * ly.trace_target - self._mean
        self._top = float(lx.lambdas[0] * ly.lambdas[0])
        self.powers = np.arange(1, 2 * _SERIES_TERMS + 1)
        self._padded = np.append(self.b, 0.0)
        # F by a doubling scan of F[j] = 1 + (b_{j+1} / b_j)**p F[j + 1]:
        # before the pass at span s, step[j] = (b_{j+s} / b_j)**p, 0 past
        # the end, and suffix[j] sums the terms j .. j + s - 1.  The zero
        # row serves rows of a whose rest is empty.
        k = self.b.size
        step = np.zeros((k, self.powers.size))
        _power_table(self.b[1:] / self.b[:-1], out=step[:-1])
        suffix = np.ones((k + 1, self.powers.size))
        suffix[k] = 0.0
        span = 1
        while span < k:
            suffix[: k - span] += step[: k - span] * suffix[span:k]
            step[: k - span] *= step[span:]
            span *= 2
        self._suffix = suffix
        self._levels: dict[int, tuple[np.ndarray, np.ndarray, list, list]] = {}

    def level(self, bits: int) -> tuple[np.ndarray, np.ndarray, list, list]:
        """The head ``w >= 2**-bits``, ``T_p / p`` of the rest, and the
        coefficients of :meth:`imhof_sums`' two series in it."""
        cached = self._levels.get(bits)
        if cached is None:
            starts = np.searchsorted(-self.b, -math.ldexp(1.0, -bits) / self.a, side="right")
            rows = np.repeat(np.arange(self.a.size), starts)
            cols = np.arange(rows.size) - np.repeat(np.cumsum(starts) - starts, starts)
            ratios = np.ldexp(self.a, bits) * self._padded[starts]
            series = np.einsum("ip,ip->p", _power_table(ratios), self._suffix[starts]) / self.powers
            # T_(2m+1) / (2m+1) and T_(2m+2) / (m+1), highest m first.
            odd, even = series[-2::-2].tolist(), (2.0 * series[::-2]).tolist()
            cached = self._levels[bits] = (self.a[rows] * self.b[cols], series, odd, even)
        return cached

    def imhof_sums(self, u: float) -> tuple[float, float]:
        """``sum arctan(w u)`` and ``sum log1p((w u)**2)`` over every product.

        At ``bits = max(0, ceil(log2(2 u)))`` every product outside the head
        has ``w u < x = u 2**-bits <= 1/2``.  The head is summed directly,
        the rest by the series ``arctan(y) = sum_m (-1)**m y**(2m+1) /
        (2m+1)`` and ``log1p(y**2) = sum_m (-1)**(m+1) y**(2m) / m`` with
        ``sum y**p = T_p x**p``, M terms each.  Their terms shrink by at
        least 4 each, so each is cut below ``4**-M / M`` of its sum, under
        1e-19.
        """
        mantissa, exponent = math.frexp(2.0 * u)
        bits = max(0, exponent - (mantissa == 0.5))
        head, _, odd_terms, even_terms = self.level(bits)
        wu = head * u
        x = math.ldexp(u, -bits)
        z = -x * x
        odd = even = 0.0
        for c_odd, c_even in zip(odd_terms, even_terms):
            odd = odd * z + c_odd
            even = even * z + c_even
        arctan = float(np.arctan(wu).sum()) + x * odd
        log = float(np.log1p(wu * wu).sum()) - z * even
        return arctan, log

    def threshold(self, statistic: float, centered: bool) -> float:
        """The ``q`` with ``P(S > statistic) = P(sum w Z^2 > q)`` for the
        scaled products; see :func:`null_tail`."""
        statistic = float(statistic)
        if not math.isfinite(statistic):
            raise DomainError(f"statistic must be finite, got {statistic!r}")
        shifted = statistic + self._mean if centered else statistic - self._left_out
        # P(sum w Z^2 > shifted) is scale free: work with the largest product 1.
        q = shifted / self._top if self._top >= sys.float_info.min else math.nan
        if not math.isfinite(q):
            raise DomainError(f"no finite threshold: the largest product is {self._top!r}")
        return q

    def log_bound(self, q: float) -> float:
        """Log of ``min_s exp(-s q) prod(1 - 2 s w)^(-1/2)``, the Chernoff
        bound on ``P(sum w Z^2 > q)``; 0 at or below the mean ``sum w``.

        The head at ``tau = 1/4`` is summed directly; outside it ``2 s w <
        1/4``, and ``-log1p(-y) = sum_p y**p / p`` is summed from ``T_p``.
        """
        if q <= self.total:
            return 0.0
        from scipy import optimize

        head, series, _, _ = self.level(2)
        best = optimize.minimize_scalar(
            lambda s: -s * q - 0.5 * np.log1p(-2.0 * s * head).sum() + 0.5 * (series @ (0.5 * s) ** self.powers),
            bounds=(0.0, 0.5 - 1e-13),
            method="bounded",
        )
        return min(best.fun, 0.0)

    def tail(self, q: float, level: float = _TAIL_FLOOR) -> float:
        """``P(sum w Z^2 > q)`` by the route :func:`null_tail` describes, but
        the Chernoff bound wherever it is below ``level``: whether the tail
        is at most ``level`` is answered alike, without Imhof's integral."""
        from scipy import integrate

        # The largest product alone exceeds q with probability erfc(sqrt(q / 2)),
        # within 1e-15 of 1 for q up to 1e-30.
        if q <= _TAIL_BOTTOM:
            return 1.0
        log_bound = self.log_bound(q)
        if log_bound < math.log(level):
            return max(math.exp(log_bound), sys.float_info.min)

        def parts(u: float) -> tuple[float, float]:
            arctan, log = self.imhof_sums(u)
            return 0.5 * arctan, math.exp(-0.25 * log) / u

        def integrand(u: float) -> float:
            phase, decay = parts(u)
            return math.sin(phase - 0.5 * q * u) * decay

        cut = _TAIL_PERIODS * 4.0 * math.pi / q
        # Decades of u as break points: for small q the range runs many
        # decades past where the integrand is concentrated, and one rule
        # over all of it samples none of that.
        decades = [10.0**j for j in range(math.ceil(math.log10(cut)))] or None
        tol = 0.1 * math.pi * _TAIL_FLOOR
        total = integrate.quad(integrand, 0.0, cut, epsabs=tol, epsrel=0.0, limit=500, points=decades)[0]
        # sin(phase - q u / 2) = sin(phase) cos(q u / 2) - cos(phase) sin(q u / 2).
        # QAWF places both passes' nodes alike, so the first pass keeps the
        # second's integrand at each of its nodes.
        cos_parts: dict[float, float] = {}

        def sin_part(u: float) -> float:
            phase, decay = parts(u)
            cos_parts[u] = math.cos(phase) * decay
            return math.sin(phase) * decay

        def cos_part(u: float) -> float:
            if u in cos_parts:
                return cos_parts.pop(u)
            phase, decay = parts(u)
            return math.cos(phase) * decay

        # QAWF's error estimate is optimistic: asked for tol, one tied sample
        # came out 4e-12 off.  Asked for 1e-13, a grid of 6480 tails over six
        # families was clean; 1e-14 raised roundoff warnings.
        total += integrate.quad(sin_part, cut, math.inf, weight="cos", wvar=0.5 * q, epsabs=1e-13)[0]
        total -= integrate.quad(cos_part, cut, math.inf, weight="sin", wvar=0.5 * q, epsabs=1e-13)[0]
        return min(1.0, max(0.5 + total / math.pi, _TAIL_FLOOR))


def _power_table(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row i holds ``values[i]**p`` for ``p = 1 .. 2 M``, by running
    products: unlike a broadcast power, it allocates only the table."""
    shape = (values.size, 2 * _SERIES_TERMS)
    return np.cumprod(np.broadcast_to(values[:, None], shape), axis=1, out=out)


def null_tail(
    lx: EigenSpectrum,
    ly: EigenSpectrum,
    statistic: float,
    centered: bool,
) -> float:
    """Upper tail ``P(S > statistic)`` of the null limit law, without draws.

    ``S = sum_ij w_ij (Z_ij^2 - c)`` over the products ``w_ij = lambda_i
    eta_j`` of all eigenvalues in both spectra, with ``c`` as in
    :func:`null_limit_model`.  The uncentered law also carries the mass
    the spectra leave out, ``lx.trace_target * ly.trace_target - sum w``,
    as a constant, so its mean is the full trace product.

    Every product enters, and none is formed in a ``k_x * k_y`` array.
    Imhof's integrand at ``u`` needs ``sum arctan(w u)`` and ``sum
    log1p((w u)^2)``: the products with ``w u`` above about 1/4, a few
    dozen where the integral lives, are summed directly, and the rest by
    30 terms of two alternating series in ``u^2`` whose coefficients are
    power sums of the two spectra (each series cut below 1e-19 of its
    sum).  If the law's Chernoff bound is below 1e-12, it is returned.
    Otherwise Imhof's (1961) integral is taken plainly over 10 periods of
    its oscillation, split at decades of its variable, and the rest,
    which decays slowly when few products dominate, with a Fourier weight
    (QUADPACK's QAWF), whose cosine and sine passes share their nodes and
    evaluate each once.  That estimate, accurate to about 1e-13, is
    floored at 1e-12, so the tail is strictly positive and non-increasing
    in ``statistic``.

    The law works with the statistic and the products divided by the
    largest product; with spectra from :func:`kernel_eigenvalues`, which
    scales by a power of two, the tail does not depend on the data's
    units.  A largest product that underflows to a subnormal or zero
    leaves no finite threshold and raises ``DomainError``.
    """
    law = _NullLaw(lx, ly)
    return law.tail(law.threshold(statistic, centered))
