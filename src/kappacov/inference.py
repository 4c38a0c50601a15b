"""Independence testing, power studies, normality diagnostics, timing.

The permutation test is exact under the null: the second coordinate is
permuted with the first held fixed, the sample's one sweep
(:func:`~kappacov.ustats._sweep`) gives the observed statistics from its
identity block and the permuted ones from B draws, and the p-value is
``(1 + #{permuted >= observed}) / (B + 1)``, where a permuted statistic
within ``1e-12 * statistic_scale`` below the observed one counts as a
tie, since the two can differ by rounding alone.  One loop,
:func:`_exceedances`, counts them, drawing the permutations block by
block, each just before it sweeps it, so a test's memory grows with n
but not with B; the draws are those of B ``rng.permutation(n)`` calls.
The asymptotic route scales the statistic by n and refers it to the
weighted chi-square null limit built from the empirical marginals, whose
tail the sample's one null law (as in
:func:`~kappacov.spectral.null_tail`) computes without simulation, so it
ignores the permutation count ``b_or_r``; a power study asks it only
whether the tail is at most alpha.

A permutation power study needs only whether ``p <= alpha`` too, and
the same loop answers it (Besag & Clifford 1991, Biometrika 78:301): it
stops sweeping once no requested estimator's ``(1 + count) / (B + 1) <=
alpha`` can change with the rows left, since the count only grows, but
still draws every block, so the generator moves on as after B draws.
The replicate reads that float test on the count where it stopped.  A
swept row's statistics depend on its permutation alone, so they are the
full sweep's bits, and no decision, hence no power report, can differ
from the full p-values'.  :func:`independence_test` sweeps all B rows
for its p-value.

All three statistics inflate under dependence, so every test is
one-sided in the upper tail.  A power study's replicate is a function
of its substream index alone, mapped over the streams serially or by a
process pool.

scipy is imported only by the normality diagnostic's KS distance, and
the process pool only by a :func:`power_study` with more than one
worker, so importing this module loads neither.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .closedform import population_kappa
from .core import FamilySpec, PairedSample, SeedSpec
from .errors import DomainError, SampleTooSmall, UnknownEstimator
from .estimators import (
    ESTIMATOR_NAMES,
    estimate,
    kappa_hat,
    kappa_star,
    kappa_tilde,
    kappa_trio,
    statistic_scale,
)
from .samplers import _draw
from .spectral import _NullLaw, empirical_marginal, kernel_eigenvalues
from .ustats import UStatBundle, _drawn_blocks, _in_units, _sweep, _unit, compute_ustats

__all__ = [
    "TestResult",
    "PowerCell",
    "PowerReport",
    "NormalityRow",
    "NormalityReport",
    "TimingReport",
    "independence_test",
    "power_study",
    "normality_diagnostic",
    "timing_benchmark",
]

_METHODS = ("permutation", "asymptotic_null")
_DEFAULT_SPECTRUM_K = 100
# Floor on the permutation count b_or_r, checked for both methods.
_MIN_B = 99
# A permuted statistic this share of statistic_scale below the observed one
# still counts as reaching it: statistics tied in exact arithmetic, as on
# discrete data, differ by rounding alone.
_TIE_TOLERANCE = 1e-12


def _check_estimator(name: str) -> str:
    if name not in ESTIMATOR_NAMES:
        raise UnknownEstimator(
            f"estimator must be one of {', '.join(ESTIMATOR_NAMES)}, got {name!r}"
        )
    return name


def _check_estimators(names) -> tuple[str, ...]:
    names = tuple(names)
    if not names:
        raise UnknownEstimator("need at least one estimator")
    return tuple(_check_estimator(name) for name in names)


def _check_method(method: str) -> str:
    if method not in _METHODS:
        raise DomainError(f"method must be one of {', '.join(_METHODS)}, got {method!r}")
    return method


def _check_b_or_r(b_or_r: int) -> int:
    b_or_r = int(b_or_r)
    if b_or_r < _MIN_B:
        raise DomainError(f"b_or_r must be at least {_MIN_B}, got {b_or_r}")
    return b_or_r


@dataclass(frozen=True)
class TestResult:
    """Outcome of one independence test.

    ``statistic`` is the raw estimate for the permutation method and
    the n-scaled estimate for the asymptotic method (the scale on which
    the null limit lives).
    """

    statistic_name: str
    statistic: float
    method: str
    p_value: float
    n: int
    b_or_r: int
    seed: SeedSpec

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PowerCell:
    family: str
    theta: float
    estimator: str
    power: float
    mc_stderr: float


@dataclass(frozen=True)
class PowerReport:
    n: int
    replicates: int
    alpha: float
    method: str
    b_or_r: int
    estimators: tuple[str, ...]
    seed: SeedSpec
    cells: tuple[PowerCell, ...]

    def power_for(self, family: str, theta: float, estimator: str) -> PowerCell:
        for cell in self.cells:
            if (
                cell.family == family
                and cell.estimator == estimator
                and math.isclose(cell.theta, theta, rel_tol=0.0, abs_tol=1e-12)
            ):
                return cell
        raise KeyError(f"no power cell for ({family!r}, {theta!r}, {estimator!r})")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NormalityRow:
    estimator: str
    n: int
    mean: float
    variance: float
    ks_distance: float
    rmse_sqrt_n: float


@dataclass(frozen=True)
class NormalityReport:
    family: str
    theta: float
    kappa: float
    replicates: int
    seed: SeedSpec
    rows: tuple[NormalityRow, ...]

    def row_for(self, estimator: str, n: int) -> NormalityRow:
        for row in self.rows:
            if row.estimator == estimator and row.n == n:
                return row
        raise KeyError(f"no normality row for ({estimator!r}, n={n})")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TimingReport:
    estimator: str
    n: int
    evals: int
    mean_seconds: float
    sd_seconds: float

    def as_dict(self) -> dict:
        return asdict(self)


def _exceedances(
    observed: UStatBundle, bundle, b: int, rng: np.random.Generator, level=None, estimators=ESTIMATOR_NAMES
) -> np.ndarray:
    """Per statistic, how many of ``b`` permuted statistics reach the observed one,
    from a unit sample's :func:`~kappacov.ustats._sweep`, with each block drawn
    just before it is swept.

    Given a ``level``, a block is swept only while some of ``estimators``
    has a ``p <= level`` still open: ``(1 + count) / (b + 1) <= level``
    holds now but would fail were all ``left`` rows not yet swept to reach
    the observed one.  The counts may then stop short, but each requested
    one passes that test exactly when its full count would.  Every block
    is drawn, so ``rng`` ends as after B draws.
    """
    # Per statistic, the least permuted value that reaches the observed one.
    floor = np.array(kappa_trio(observed))[:, None] - _TIE_TOLERANCE * statistic_scale(observed)
    asked = [ESTIMATOR_NAMES.index(name) for name in estimators]
    exceed, left = np.zeros(len(ESTIMATOR_NAMES), dtype=np.int64), b
    for block in _drawn_blocks(observed.n, b, rng):
        counts = exceed.tolist()
        if level is None or any(
            (1.0 + counts[i]) / (b + 1.0) <= level < (1.0 + counts[i] + left) / (b + 1.0) for i in asked
        ):
            trio = np.array(kappa_trio(bundle(block)))
            exceed += np.count_nonzero(trio >= floor, axis=1)
        left -= len(block)
    return exceed


def _asymptotic_null(unit: PairedSample, observed: UStatBundle, k: int, estimators) -> tuple:
    """n-scaled trio of ``observed``, a unit sample's bundle, the null limit
    law of both marginals' top-``k`` spectra, and each estimator's threshold.

    ``kappa_star`` and ``kappa_tilde`` refer to the centered null limit,
    ``kappa_hat`` to the uncentered one.
    """
    scaled = unit.n * np.array(kappa_trio(observed))
    lx = kernel_eigenvalues(empirical_marginal(unit.xs), k)
    ly = kernel_eigenvalues(empirical_marginal(unit.ys), k)
    law = _NullLaw(lx, ly)
    thresholds = {name: law.threshold(scaled[ESTIMATOR_NAMES.index(name)], name != "hat") for name in estimators}
    return scaled, law, thresholds


def independence_test(
    sample: PairedSample,
    estimator: str = "star",
    method: str = "permutation",
    b_or_r: int = 999,
    seed: SeedSpec = SeedSpec(0),
    spectrum_k: int = _DEFAULT_SPECTRUM_K,
) -> TestResult:
    """Test independence of the two coordinates, upper tail.

    ``b_or_r`` is the permutation count B (>= 99).  The asymptotic
    method computes its p-value exactly, without draws; it checks and
    echoes ``b_or_r`` the same way but does not use it.
    """
    estimator = _check_estimator(estimator)
    method = _check_method(method)
    if sample.n < 3:
        raise SampleTooSmall(f"independence test needs n >= 3, got {sample.n}")
    b_or_r = _check_b_or_r(b_or_r)
    index = ESTIMATOR_NAMES.index(estimator)
    unit, ex, ey = _unit(sample)
    observed, bundle = _sweep(unit)
    if method == "permutation":
        trio = kappa_trio(observed)
        p_value = (1.0 + _exceedances(observed, bundle, b_or_r, seed.generator())[index]) / (b_or_r + 1.0)
    else:
        del bundle  # the eigensolves and the tail, where this test's memory peaks, need no sweep
        trio, law, thresholds = _asymptotic_null(unit, observed, spectrum_k, (estimator,))
        del unit  # and the tail no copy of the sample
        p_value = law.tail(thresholds[estimator])
    return TestResult(
        statistic_name=f"kappa_{estimator}",
        statistic=_in_units(float(trio[index]), ex + ey),
        method=method,
        p_value=float(p_value),
        n=sample.n,
        b_or_r=b_or_r,
        seed=seed,
    )


def _power_replicate(stream, seed, grid, n, method, b_or_r, alpha, spectrum_k, estimators):
    """0/1 rejections per (cell, estimator) of the replicate on substream ``stream``."""
    rng = SeedSpec(seed.master_seed, stream).generator()
    rejected = np.zeros((len(grid), len(ESTIMATOR_NAMES)), dtype=np.int64)
    for ci, spec in enumerate(grid):
        sample = _unit(PairedSample(*_draw(spec, n, rng)))[0]
        observed, bundle = _sweep(sample)
        if method == "permutation":
            exceed = _exceedances(observed, bundle, b_or_r, rng, alpha, estimators)
            rejected[ci] = np.isin(ESTIMATOR_NAMES, estimators) & ((1.0 + exceed) / (b_or_r + 1.0) <= alpha)
        else:
            del bundle  # the null law needs no sweep, as in independence_test
            _, law, thresholds = _asymptotic_null(sample, observed, spectrum_k, estimators)
            for name, q in thresholds.items():
                rejected[ci, ESTIMATOR_NAMES.index(name)] = law.tail(q, level=alpha) <= alpha
    return rejected


def power_study(
    grid,
    n: int = 100,
    replicates: int = 1000,
    alpha: float = 0.05,
    method: str = "permutation",
    b_or_r: int = 199,
    seed: SeedSpec = SeedSpec(0),
    estimators=ESTIMATOR_NAMES,
    threads: int = 1,
    spectrum_k: int = _DEFAULT_SPECTRUM_K,
) -> PowerReport:
    """Rejection rate per (family, theta, estimator) cell.

    Replicate r is a function of the substream at offset r alone, mapped
    over the streams in order or by a process pool, so the report is
    identical for any worker count: ``threads`` of them, at most one per
    core, and all cores for 0.  All replicates share substreams across
    cells (common random numbers), and all three statistics are computed
    from the same permutations within a cell.
    With the permutation method a replicate draws and sweeps its
    ``b_or_r`` permutations block by block, and stops sweeping once each
    requested estimator's ``p <= alpha`` is settled by its count of
    permuted statistics that reach the observed one; it still draws every
    block, so the generator moves on to the next cell as it would for full
    p-values.  Every swept row is computed exactly as in the full sweep, so
    the report is the same, bit for bit, as from full p-values, while a
    null cell at B = 199 and alpha = 0.05 sweeps about a quarter of the
    permutations.
    With the asymptotic method each cell's sample gives one null law,
    which every estimator asks once for its tail at level ``alpha``: a
    Chernoff bound below ``alpha`` settles the rejection without Imhof's
    integral, with the same outcome as the exact tail.
    """
    grid = tuple(grid)
    if not grid:
        raise DomainError("the family grid must be nonempty")
    for spec in grid:
        if not isinstance(spec, FamilySpec):
            raise DomainError("grid entries must be FamilySpec instances")
    estimators = _check_estimators(estimators)
    method = _check_method(method)
    b_or_r = _check_b_or_r(b_or_r)
    replicates = int(replicates)
    if replicates < 100:
        raise DomainError(f"need at least 100 replicates, got {replicates}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    threads = int(threads)
    if threads < 0:
        raise DomainError(f"threads must be nonnegative, got {threads}")
    task = functools.partial(
        _power_replicate, seed=seed, grid=grid, n=int(n), method=method, b_or_r=b_or_r,
        alpha=float(alpha), spectrum_k=int(spectrum_k), estimators=estimators,
    )
    streams = range(seed.stream_index, seed.stream_index + replicates)
    # A pool forks all its workers at once, so never ask for more than cores.
    cores = os.cpu_count() or 1
    workers = min(threads, cores) if threads else cores
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, replicates // (8 * workers))
            totals = sum(pool.map(task, streams, chunksize=chunksize))
    else:
        totals = sum(map(task, streams))
    cells = []
    for ci, spec in enumerate(grid):
        for estimator in estimators:
            ei = ESTIMATOR_NAMES.index(estimator)
            p = totals[ci, ei] / replicates
            cells.append(
                PowerCell(
                    family=spec.family,
                    theta=spec.theta,
                    estimator=estimator,
                    power=float(p),
                    mc_stderr=float(math.sqrt(p * (1.0 - p) / replicates)),
                )
            )
    return PowerReport(
        n=int(n),
        replicates=replicates,
        alpha=float(alpha),
        method=method,
        b_or_r=b_or_r,
        estimators=estimators,
        seed=seed,
        cells=tuple(cells),
    )


def _ks_distance(values: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of ``values`` to the standard normal."""
    from scipy import special

    cdf = special.ndtr(np.sort(values))
    steps = np.arange(cdf.size + 1) / cdf.size
    return float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


def normality_diagnostic(
    spec: FamilySpec,
    n_grid=(100, 400),
    replicates: int = 1000,
    seed: SeedSpec = SeedSpec(0),
) -> NormalityReport:
    """Distribution of sqrt(n) * (estimate - kappa) / sqrt(delta1_hat).

    Requires a family with a closed-form kappa (normal or exponential).
    For each n the report row carries the mean, variance, and the KS
    distance to the standard normal of the standardized values, plus
    sqrt(n) times the raw RMSE of the estimate (flat across n under
    root-n consistency).
    """
    kappa0 = population_kappa(spec)
    replicates = int(replicates)
    if replicates < 100:
        raise DomainError(f"need at least 100 replicates, got {replicates}")
    rows = []
    for n_index, n in enumerate(n_grid):
        n = int(n)
        estimates = np.empty((replicates, 3))
        deviations = np.empty((replicates, 3))
        for r in range(replicates):
            stream = seed.stream_index + n_index * replicates + r
            rng = SeedSpec(seed.master_seed, stream).generator()
            values = estimate(PairedSample(*_draw(spec, n, rng)), with_variance=True)
            trio = np.array([values.kappa_star, values.kappa_tilde, values.kappa_hat])
            scale = math.sqrt(n / values.delta1_hat)
            estimates[r] = trio
            deviations[r] = scale * (trio - kappa0)
        for ei, estimator in enumerate(ESTIMATOR_NAMES):
            standardized = deviations[:, ei]
            rmse = math.sqrt(float(np.mean((estimates[:, ei] - kappa0) ** 2)))
            rows.append(
                NormalityRow(
                    estimator=estimator,
                    n=n,
                    mean=float(standardized.mean()),
                    variance=float(standardized.var(ddof=1)),
                    ks_distance=_ks_distance(standardized),
                    rmse_sqrt_n=math.sqrt(n) * rmse,
                )
            )
    return NormalityReport(
        family=spec.family,
        theta=spec.theta,
        kappa=kappa0,
        replicates=replicates,
        seed=seed,
        rows=tuple(rows),
    )


_TIMING_FUNCS = {"star": kappa_star, "tilde": kappa_tilde, "hat": kappa_hat}


def timing_benchmark(
    estimators,
    n: int = 100,
    evals: int = 100,
    spec: FamilySpec = FamilySpec("normal", 0.0),
    seed: SeedSpec = SeedSpec(0),
    repetitions: int = 10,
) -> list[TimingReport]:
    """Wall-clock seconds to compute ``evals`` estimates at size n.

    Samples are generated up front and excluded from the timed region;
    each repetition times a plain single-threaded loop over fresh
    samples, and the report carries the mean and standard deviation
    over repetitions.
    """
    estimators = _check_estimators(estimators)
    evals = int(evals)
    if evals < 10:
        raise DomainError(f"need at least 10 evaluations per repetition, got {evals}")
    repetitions = int(repetitions)
    if repetitions < 2:
        raise DomainError(f"need at least 2 repetitions, got {repetitions}")
    rng = seed.generator()
    batches = [
        [PairedSample(*_draw(spec, n, rng)) for _ in range(evals)]
        for _ in range(repetitions)
    ]
    reports = []
    for estimator in estimators:
        func = _TIMING_FUNCS[estimator]
        times = np.empty(repetitions)
        for rep, batch in enumerate(batches):
            start = time.perf_counter()
            for sample in batch:
                func(compute_ustats(sample))
            times[rep] = time.perf_counter() - start
        reports.append(
            TimingReport(
                estimator=f"kappa_{estimator}",
                n=int(n),
                evals=evals,
                mean_seconds=float(times.mean()),
                sd_seconds=float(times.std(ddof=1)),
            )
        )
    return reports
