"""Kernel eigenvalues of discretized marginals, and the weighted
chi-square null limit: its exact tail and its simulated draws."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacov import (
    AllValuesEqual,
    DegenerateGrid,
    DiscreteMarginal,
    DomainError,
    EigenSpectrum,
    EmptySpectrum,
    FamilySpec,
    NonMonotoneQuantile,
    SampleTooSmall,
    SeedSpec,
    discretize_marginal,
    empirical_marginal,
    kappa_hat,
    kappa_star,
    kernel_eigenvalues,
    marginal_quantile,
    null_tail,
    sample_family,
)
from kappacov.spectral import (
    _NullLaw,
    dense_kernel_eigenvalues,
    null_limit_model,
    null_pvalue,
    null_tail_bound,
)


def uniform_marginal(t: int) -> DiscreteMarginal:
    return discretize_marginal(lambda u: u, t)


def random_marginal(rng: np.random.Generator, t: int) -> DiscreteMarginal:
    points = np.sort(rng.normal(size=t) * 2.0)
    while np.any(np.diff(points) <= 0):
        points = np.sort(rng.normal(size=t) * 2.0)
    probs = rng.dirichlet(np.full(t, 2.0))
    return DiscreteMarginal(points, probs / probs.sum())


# --- marginal containers -----------------------------------------------------


def test_two_point_marginal_moments():
    marginal = DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert marginal.t == 2
    assert math.isclose(marginal.mean_abs_difference(), 0.5, rel_tol=1e-15)
    assert math.isclose(marginal.trace_target, 0.25, rel_tol=1e-15)


def test_three_point_marginal_moments():
    marginal = DiscreteMarginal(np.array([0.0, 1.0, 2.0]), np.full(3, 1.0 / 3.0))
    assert math.isclose(marginal.mean_abs_difference(), 8.0 / 9.0, rel_tol=1e-14)


def test_marginal_validation():
    with pytest.raises(DegenerateGrid):
        DiscreteMarginal(np.array([1.0]), np.array([1.0]))
    with pytest.raises(DegenerateGrid):
        DiscreteMarginal(np.array([0.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.5, -0.5]))
    with pytest.raises(DomainError):
        DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.6, 0.6]))
    with pytest.raises(DomainError):
        DiscreteMarginal(np.array([0.0, 1.0, 2.0]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        DiscreteMarginal(np.array([0.0, np.inf]), np.array([0.5, 0.5]))


def test_discretize_uniform_grid():
    marginal = uniform_marginal(5)
    assert np.allclose(marginal.points, [0.1, 0.3, 0.5, 0.7, 0.9])
    assert np.allclose(marginal.probs, 0.2)


def test_discretize_errors():
    with pytest.raises(DegenerateGrid):
        discretize_marginal(lambda u: u, 2)
    with pytest.raises(NonMonotoneQuantile):
        discretize_marginal(lambda u: round(u), 10)
    with pytest.raises(DomainError):
        discretize_marginal(lambda u: float("nan"), 5)


def test_empirical_marginal_counts():
    marginal = empirical_marginal([3.0, 1.0, 3.0, 2.0, 1.0, 1.0])
    assert np.array_equal(marginal.points, [1.0, 2.0, 3.0])
    assert np.allclose(marginal.probs, [0.5, 1.0 / 6.0, 1.0 / 3.0])


def test_empirical_marginal_errors():
    with pytest.raises(SampleTooSmall):
        empirical_marginal([1.0, 2.0])
    with pytest.raises(AllValuesEqual):
        empirical_marginal([5.0, 5.0, 5.0, 5.0])
    with pytest.raises(DomainError):
        empirical_marginal([1.0, 2.0, float("nan")])


# --- eigen-solve --------------------------------------------------------------


def test_uniform_spectrum_matches_continuum():
    # The continuous-marginal eigenvalues are 1/(k^2 pi^2); at t = 400
    # the discretization error grows with k and reaches ~1.4e-4 at k = 5.
    spectrum = kernel_eigenvalues(uniform_marginal(400), 5)
    for k, value in enumerate(spectrum.lambdas, start=1):
        assert math.isclose(value, 1.0 / (k * math.pi) ** 2, rel_tol=1e-3)


def test_full_spectrum_satisfies_trace_identity(rng):
    for marginal in (uniform_marginal(101), random_marginal(rng, 57)):
        spectrum = kernel_eigenvalues(marginal, marginal.t)
        assert spectrum.k <= marginal.t - 1
        assert math.isclose(spectrum.total, marginal.trace_target, rel_tol=1e-10)


def test_tridiagonal_matches_dense(rng):
    for marginal in (uniform_marginal(60), random_marginal(rng, 60), random_marginal(rng, 120)):
        k = 20
        fast = kernel_eigenvalues(marginal, k)
        dense = dense_kernel_eigenvalues(marginal, k)
        m = min(fast.k, dense.k, k)
        ratios = fast.lambdas[:m] / dense.lambdas[:m]
        assert np.max(np.abs(ratios - 1.0)) <= 1e-10


def test_dense_route_size_limit():
    with pytest.raises(DomainError):
        dense_kernel_eigenvalues(uniform_marginal(201), 5)


def test_kernel_eigenvalues_arguments():
    marginal = uniform_marginal(50)
    assert kernel_eigenvalues(marginal, 1).k == 1
    assert kernel_eigenvalues(marginal, 10_000).k <= 49
    with pytest.raises(DomainError):
        kernel_eigenvalues(marginal, 0)


def test_two_point_spectrum_is_its_trace():
    # One eigenvalue, p_1 p_2 (x_2 - x_1), which is the trace target.
    two_point = DiscreteMarginal(np.array([-0.5, 1.0]), np.array([0.3, 0.7]))
    for solve in (kernel_eigenvalues, dense_kernel_eigenvalues):
        spectrum = solve(two_point, 5)
        assert spectrum.k == 1
        assert abs(spectrum.lambdas[0] - 0.3 * 0.7 * 1.5) <= 1e-12
        assert abs(spectrum.lambdas[0] - two_point.trace_target) <= 1e-12


def test_spectrum_container_validation():
    with pytest.raises(EmptySpectrum):
        EigenSpectrum(np.array([]), t=10, trace_target=0.5)
    with pytest.raises(DomainError):
        EigenSpectrum(np.array([0.1, 0.2]), t=10, trace_target=0.5)
    with pytest.raises(DomainError):
        EigenSpectrum(np.array([0.2, -0.1]), t=10, trace_target=0.5)
    with pytest.raises(DomainError):
        EigenSpectrum(np.array([0.2, 0.1, 0.05]), t=3, trace_target=0.5)
    spectrum = EigenSpectrum(np.array([0.2, 0.1]), t=10, trace_target=0.5)
    payload = spectrum.as_dict()
    assert payload["t"] == 10
    assert payload["lambdas"] == [0.2, 0.1]
    assert math.isclose(payload["sum_lambdas"], 0.3, rel_tol=1e-15)


# --- null limit ----------------------------------------------------------------


def _small_spectra():
    marginal = uniform_marginal(200)
    return kernel_eigenvalues(marginal, 20), kernel_eigenvalues(marginal, 20)


def test_null_model_is_reproducible():
    lx, ly = _small_spectra()
    a = null_limit_model(lx, ly, k=20, r=2000, seed=SeedSpec(7), centered=True)
    b = null_limit_model(lx, ly, k=20, r=2000, seed=SeedSpec(7), centered=True)
    c = null_limit_model(lx, ly, k=20, r=2000, seed=SeedSpec(8), centered=True)
    assert np.array_equal(a.draws, b.draws)
    assert not np.array_equal(a.draws, c.draws)
    assert np.all(np.diff(a.draws) >= 0.0)
    assert a.r == 2000


def test_null_model_moments():
    lx, ly = _small_spectra()
    lam = lx.lambdas[:20]
    eta = ly.lambdas[:20]
    mean_shift = float(lam.sum() * eta.sum())
    spread = 2.0 * float((lam**2).sum() * (eta**2).sum())

    centered = null_limit_model(lx, ly, k=20, r=60_000, seed=SeedSpec(11), centered=True)
    uncentered = null_limit_model(lx, ly, k=20, r=60_000, seed=SeedSpec(11), centered=False)
    assert abs(float(centered.draws.mean())) < 3e-4
    assert abs(float(uncentered.draws.mean()) - mean_shift) < 3e-4
    assert math.isclose(float(centered.draws.var()), spread, rel_tol=0.1)
    # The two laws differ only by the deterministic mean shift.
    assert np.allclose(uncentered.draws - mean_shift, centered.draws, atol=1e-12)


def test_null_model_truncates_k():
    lx, ly = _small_spectra()
    model = null_limit_model(lx, ly, k=10_000, r=1000, seed=SeedSpec(1), centered=True)
    assert model.lambdas.k == 20


def test_null_model_keeps_each_spectrum_to_its_own_k():
    # A binary x has one eigenvalue; the draws still sum over all of y's.
    lx = kernel_eigenvalues(DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.4, 0.6])), 10)
    ly = _small_spectra()[1]
    r = 20_000
    model = null_limit_model(lx, ly, k=10, r=r, seed=SeedSpec(4), centered=False)
    assert (model.lambdas.k, model.etas.k) == (1, 10)
    lam = lx.lambdas[0]
    eta = ly.lambdas[:10]
    stderr = math.sqrt(2.0 * lam**2 * float((eta**2).sum()) / r)
    assert abs(float(model.draws.mean()) - lam * float(eta.sum())) <= 4.0 * stderr


def test_null_model_argument_validation():
    lx, ly = _small_spectra()
    with pytest.raises(DomainError):
        null_limit_model(lx, ly, k=0, r=2000, seed=SeedSpec(0), centered=True)
    with pytest.raises(DomainError):
        null_limit_model(lx, ly, k=5, r=999, seed=SeedSpec(0), centered=True)


def test_null_pvalue_tail_behavior():
    lx, ly = _small_spectra()
    model = null_limit_model(lx, ly, k=20, r=5000, seed=SeedSpec(5), centered=False)
    below = null_pvalue(model, float(model.draws[0]) - 1.0)
    above = null_pvalue(model, float(model.draws[-1]) + 1.0)
    assert below == 1.0
    assert math.isclose(above, 1.0 / 5001.0, rel_tol=1e-12)
    stats = np.quantile(model.draws, [0.1, 0.5, 0.9])
    pvals = [null_pvalue(model, float(s)) for s in stats]
    assert pvals[0] > pvals[1] > pvals[2]
    for q, p in zip((0.1, 0.5, 0.9), pvals):
        assert abs(p - (1.0 - q)) < 0.02
    with pytest.raises(DomainError):
        null_pvalue(model, float("nan"))


# --- exact tail -------------------------------------------------------------------


def _tail_spectra(k):
    normal = FamilySpec("normal", 0.0)
    lx = kernel_eigenvalues(discretize_marginal(lambda u: marginal_quantile(normal, "x", u), 200), k)
    ly = kernel_eigenvalues(discretize_marginal(lambda u: -math.log1p(-u), 200), k)
    return lx, ly


@pytest.mark.parametrize("centered", [True, False])
def test_null_tail_matches_simulated_law(centered):
    lx, ly = _tail_spectra(10)
    r = 1_000_000
    model = null_limit_model(lx, ly, k=10, r=r, seed=SeedSpec(21), centered=centered)
    # The exact uncentered law also carries the mass beyond the top 10
    # eigenvalues, a constant the simulated draws leave out.
    shift = 0.0 if centered else lx.trace_target * ly.trace_target - model.lambdas.total * model.etas.total
    assert centered or shift > 0.0
    for level in (0.5, 0.95, 0.999):
        draw = float(np.quantile(model.draws, level))
        simulated = null_pvalue(model, draw)
        exact = null_tail(lx, ly, draw + shift, centered=centered)
        stderr = math.sqrt(simulated * (1.0 - simulated) / r)
        assert abs(exact - simulated) <= 4.0 * stderr + 1.0 / r, (level, exact, simulated)


def test_null_tail_keeps_every_eigenvalue_of_each_marginal():
    # A binary x has one eigenvalue; the law still sums over all of y's.
    lx = kernel_eigenvalues(DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.4, 0.6])), 10)
    ly = _tail_spectra(10)[1]
    r = 200_000
    z = np.random.default_rng(3).standard_normal((r, ly.k))
    draws = lx.lambdas[0] * ((z * z - 1.0) @ ly.lambdas)
    for level in (0.5, 0.95, 0.999):
        exact = null_tail(lx, ly, float(np.quantile(draws, level)), centered=True)
        stderr = math.sqrt(level * (1.0 - level) / r)
        assert abs(exact - (1.0 - level)) <= 4.0 * stderr + 1.0 / r, (level, exact)


def test_uncentered_tail_has_the_trace_product_mean():
    from scipy import integrate

    marginal = uniform_marginal(200)
    spectrum = kernel_eigenvalues(marginal, 5)
    target = marginal.trace_target**2
    # The uncentered law is positive, so its mean is the integral of its tail.
    mean = integrate.quad(lambda q: null_tail(spectrum, spectrum, q, centered=False), 0.0, np.inf)[0]
    assert math.isclose(mean, target, rel_tol=1e-9)
    # The top 5 eigenvalues alone fall well short of the trace.
    assert spectrum.total**2 < 0.99 * target


@pytest.mark.filterwarnings("error")
def test_null_tail_near_the_bottom_of_its_support():
    # One product, and two or four equal ones, give chi-square laws in
    # closed form.  For a small threshold Imhof's integrand spreads over
    # many decades and decays slowly, as with binary columns.
    laws = {
        (1, 1): lambda q: math.erfc(math.sqrt(0.5 * q)),
        (1, 2): lambda q: math.exp(-0.5 * q),
        (2, 2): lambda q: (1.0 + 0.5 * q) * math.exp(-0.5 * q),
    }
    for (kx, ky), tail in laws.items():
        lx = EigenSpectrum(np.full(kx, 0.5), 3, 0.5 * kx)
        ly = EigenSpectrum(np.full(ky, 0.5), 3, 0.5 * ky)
        for q in (1e-31, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 3.0, 30.0):
            # Complete spectra: the uncentered S is 0.25 * sum Z^2.
            exact = null_tail(lx, ly, 0.25 * q, centered=False)
            assert abs(exact - tail(q)) <= 1e-12, (kx, ky, q, exact)


@pytest.mark.filterwarnings("error")
def test_null_tail_on_strong_dependence():
    sample = sample_family(FamilySpec("normal", 0.9), 100, SeedSpec(17))
    lx = kernel_eigenvalues(empirical_marginal(sample.xs), 100)
    ly = kernel_eigenvalues(empirical_marginal(sample.ys), 100)
    for centered, statistic in ((True, 100 * kappa_star(sample)), (False, 100 * kappa_hat(sample))):
        p = null_tail(lx, ly, statistic, centered=centered)
        assert 0.0 < p <= 1e-6
        grid = np.linspace(-0.2, 1.5 * statistic, 40)
        tails = np.array([null_tail(lx, ly, q, centered=centered) for q in grid])
        assert np.all(tails > 0.0) and np.all(tails <= 1.0)
        assert np.all(np.diff(tails) <= 0.0)
        bounds = np.array([null_tail_bound(lx, ly, q, centered=centered) for q in grid])
        assert np.all(tails <= bounds) and np.all(bounds <= 1.0)


def test_null_tail_arguments():
    lx, ly = _tail_spectra(5)
    assert null_tail(lx, ly, -1.0, centered=True) == 1.0
    assert null_tail(lx, ly, 0.0, centered=False) == 1.0
    # At or below the mean the Chernoff bound says nothing.
    assert null_tail_bound(lx, ly, 0.0, centered=True) == 1.0
    with pytest.raises(DomainError):
        null_tail(lx, ly, float("nan"), centered=True)
    with pytest.raises(DomainError):
        null_tail_bound(lx, ly, float("inf"), centered=True)
    # A largest product that underflows leaves no finite threshold.
    tiny = EigenSpectrum(np.array([1e-160]), 2, 1e-160)
    for tail in (null_tail, null_tail_bound):
        with pytest.raises(DomainError):
            tail(tiny, tiny, 0.0, centered=True)


# --- the tail against direct sums over every product -------------------------------
#
# The oracles below form all k_x * k_y products as one array and sum
# Imhof's integrand and the Chernoff objective over it directly; the
# integral is taken with the same quadrature as null_tail.


def _direct_products(lx, ly):
    return np.outer(lx.lambdas, ly.lambdas).ravel() / (lx.lambdas[0] * ly.lambdas[0])


def _direct_threshold(lx, ly, statistic, centered):
    # Centered: add the mean of sum w Z^2.  Uncentered: remove the mass
    # the spectra leave out.
    total = lx.total * ly.total
    offset = total if centered else total - lx.trace_target * ly.trace_target
    return (statistic + offset) / (lx.lambdas[0] * ly.lambdas[0])


def _direct_log_bound(w, q):
    from scipy import optimize

    if q <= w.sum():
        return 0.0
    best = optimize.minimize_scalar(
        lambda s: -s * q - 0.5 * np.log1p(-2.0 * s * w).sum(), bounds=(0.0, 0.5 - 1e-13), method="bounded"
    )
    return min(best.fun, 0.0)


def _direct_tail(lx, ly, statistic, centered):
    from scipy import integrate

    w = _direct_products(lx, ly)
    q = _direct_threshold(lx, ly, statistic, centered)
    if q <= 1e-30:
        return 1.0
    log_bound = _direct_log_bound(w, q)
    if log_bound < math.log(1e-12):
        return max(math.exp(log_bound), sys.float_info.min)

    def phase(u):
        return 0.5 * np.arctan(w * u).sum()

    def decay(u):
        return math.exp(-0.25 * np.log1p((w * u) ** 2).sum()) / u

    cut = 40.0 * math.pi / q
    decades = [10.0**j for j in range(math.ceil(math.log10(cut)))] or None
    total = integrate.quad(
        lambda u: math.sin(phase(u) - 0.5 * q * u) * decay(u), 0.0, cut,
        epsabs=0.1 * math.pi * 1e-12, epsrel=0.0, limit=500, points=decades,
    )[0]
    total += integrate.quad(
        lambda u: math.sin(phase(u)) * decay(u), cut, math.inf, weight="cos", wvar=0.5 * q, epsabs=1e-13
    )[0]
    total -= integrate.quad(
        lambda u: math.cos(phase(u)) * decay(u), cut, math.inf, weight="sin", wvar=0.5 * q, epsabs=1e-13
    )[0]
    return min(1.0, max(0.5 + total / math.pi, 1e-12))


def _eigenvalue_lists():
    # Powers of two give products exactly at the head/rest split points
    # 2**-b, and repeat often enough to give ties.
    value = st.one_of(st.integers(0, 29).map(lambda e: math.ldexp(1.0, -e)), st.floats(1e-9, 1.0))
    return st.lists(value, min_size=1, max_size=40).map(lambda v: np.sort(v)[::-1])


@settings(max_examples=300, deadline=None)
@given(
    lambdas=_eigenvalue_lists(),
    etas=_eigenvalue_lists(),
    u=st.one_of(st.floats(-6.0, 6.0).map(lambda e: 10.0**e), st.integers(-19, 19).map(lambda e: math.ldexp(1.0, e))),
)
def test_imhof_sums_match_the_direct_sums(lambdas, etas, u):
    # Phase and log-decay of Imhof's integrand are these two sums over
    # the scaled products, times 1/2 and -1/4.
    w = np.outer(lambdas, etas).ravel() / (lambdas[0] * etas[0])
    law = _NullLaw(*(EigenSpectrum(v, v.size + 1, float(v.sum())) for v in (lambdas, etas)))
    arctan, log = law.imhof_sums(u)
    direct_arctan = float(np.arctan(w * u).sum())
    direct_log = float(np.log1p((w * u) ** 2).sum())
    assert abs(arctan - direct_arctan) <= 1e-13 * direct_arctan, (arctan, direct_arctan)
    assert abs(log - direct_log) <= 1e-13 * direct_log, (log, direct_log)


def _stress_marginals():
    normal = FamilySpec("normal", 0.0)
    marginals = {
        "normal": discretize_marginal(lambda u: marginal_quantile(normal, "x", u), 200),
        "exponential": discretize_marginal(lambda u: -math.log1p(-u), 200),
        "uniform": uniform_marginal(200),
        "binary": DiscreteMarginal(np.array([0.0, 1.0]), np.array([0.3, 0.7])),
    }
    names = list(marginals)
    return [(marginals[x], marginals[names[(i + 1) % 4]]) for i, x in enumerate(names)]


def _stress_grid(x, y):
    """(lx, ly, statistic, centered) over k and both laws, with thresholds
    from 1e-18 of the largest product (p near 1 - 1e-9 for one product)
    to past the mean by 45 (p near 5e-12)."""
    for k in (1, 5, 30, 100):
        lx, ly = kernel_eigenvalues(x, k), kernel_eigenvalues(y, k)
        top, total = lx.lambdas[0] * ly.lambdas[0], lx.total * ly.total
        mean = total / top
        for centered in (True, False):
            shift = total if centered else -(lx.trace_target * ly.trace_target - total)
            for q in (1e-18, 1e-3, mean, 2.0 * mean, 5.0 * mean, 30.0 + 2.0 * mean, 45.0 + 2.0 * mean):
                yield lx, ly, q * top - shift, centered


@pytest.mark.parametrize("pair", range(4), ids=["normal-exponential", "exponential-uniform", "uniform-binary", "binary-normal"])
def test_null_tail_matches_the_direct_sum_imhof(pair):
    tails = []
    for lx, ly, statistic, centered in _stress_grid(*_stress_marginals()[pair]):
        exact = null_tail(lx, ly, statistic, centered=centered)
        assert abs(exact - _direct_tail(lx, ly, statistic, centered)) <= 1e-12, (lx.k, ly.k, statistic, centered)
        tails.append(exact)
    assert min(tails) < 1e-11 and max(tails) > 1.0 - 1e-9


def test_null_tail_bound_matches_the_direct_chernoff():
    # Bounds from 1 down to about 1e-13; far below, one rounding of the
    # log bound alone exceeds 1e-14 of the bound.
    for x, y in _stress_marginals():
        for lx, ly, statistic, centered in _stress_grid(x, y):
            bound = null_tail_bound(lx, ly, statistic, centered=centered)
            direct = math.exp(
                _direct_log_bound(_direct_products(lx, ly), _direct_threshold(lx, ly, statistic, centered))
            )
            assert abs(bound - direct) <= 1e-14 * direct, (lx.k, ly.k, statistic, centered, bound, direct)


def test_null_tail_on_a_million_products_stays_small():
    spectrum = kernel_eigenvalues(uniform_marginal(1001), 1000)
    assert spectrum.k == 1000
    null_tail(spectrum, spectrum, 0.5, centered=False)  # scipy's imports
    tracemalloc.start()
    try:
        p = null_tail(spectrum, spectrum, spectrum.total**2, centered=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One 10**6 product array is 8 MB; the tail built from sorting it
    # peaked at 24 MB here, and builds none now (about 1.6 MB).
    assert peak < 4e6, peak
    assert 0.3 < p < 0.4
