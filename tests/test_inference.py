"""Independence tests, power studies, normality diagnostics, timing."""

import concurrent.futures
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from kappacov import inference, spectral, ustats
from kappacov import (
    DomainError,
    FamilySpec,
    NOnPositive,
    PairedSample,
    SampleTooSmall,
    SeedSpec,
    UnknownEstimator,
    UnsupportedFamily,
    independence_test,
    kappa_star,
    kappa_tilde,
    normality_diagnostic,
    power_study,
    sample_family,
    timing_benchmark,
)

NULL_SPEC = FamilySpec("normal", 0.0)
DEP_SPEC = FamilySpec("normal", 0.9)


def test_permutation_test_is_deterministic():
    sample = sample_family(DEP_SPEC, 60, SeedSpec(1))
    a = independence_test(sample, seed=SeedSpec(42), b_or_r=199)
    b = independence_test(sample, seed=SeedSpec(42), b_or_r=199)
    assert a == b
    assert a.statistic == kappa_star(sample)
    assert a.method == "permutation"
    assert a.statistic_name == "kappa_star"
    assert a.n == 60 and a.b_or_r == 199


def test_permutation_test_detects_dependence():
    sample = sample_family(DEP_SPEC, 100, SeedSpec(2))
    result = independence_test(sample, b_or_r=199, seed=SeedSpec(0))
    assert result.p_value <= 0.01
    assert result.p_value >= 1.0 / 200.0


def test_permutation_test_keeps_the_null():
    sample = sample_family(NULL_SPEC, 100, SeedSpec(3))
    result = independence_test(sample, b_or_r=199, seed=SeedSpec(0))
    assert result.p_value > 0.05


def test_permutation_estimator_variants():
    sample = sample_family(DEP_SPEC, 50, SeedSpec(4))
    tilde = independence_test(sample, estimator="tilde", b_or_r=99, seed=SeedSpec(1))
    hat = independence_test(sample, estimator="hat", b_or_r=99, seed=SeedSpec(1))
    assert tilde.statistic_name == "kappa_tilde"
    assert tilde.statistic == kappa_tilde(sample)
    assert hat.statistic_name == "kappa_hat"
    assert 0.0 < tilde.p_value <= 1.0 and 0.0 < hat.p_value <= 1.0


def _exact_trio(n, sum_x, sum_y, pair_prod, cross):
    # kappa_star, kappa_tilde and kappa_hat of integer sums in exact arithmetic.
    pairs, square = n * (n - 1), n * n
    u1, u2, u12 = Fraction(sum_x, pairs), Fraction(sum_y, pairs), Fraction(pair_prod, pairs)
    u3 = Fraction(cross - pair_prod, pairs * (n - 2))
    star = (u12 + u1 * u2 - 2 * u3) / 4
    tilde = star + (-2 * n * u12 + 2 * u3 + 2 * (n - 1) * u1 * u2) / (4 * (n - 1) ** 2)
    v12, v3 = Fraction(pair_prod, square), Fraction(cross, square * n)
    hat = (v12 - 2 * v3 + u1 * u2 * (n - 1) ** 2 / square) / 4
    return star, tilde, hat


def test_permutation_pvalues_count_ties_exactly(monkeypatch):
    # Three-valued columns: many permuted statistics equal the observed one
    # in exact arithmetic.  Both kernels must count exactly those as ties.
    n, b = 30, 199
    rng = np.random.default_rng(20261018)
    for trial in range(12):
        xs = rng.integers(0, 3, n) + 1000
        ys = rng.integers(0, 3, n) + 1000
        sample = PairedSample(xs.astype(float), ys.astype(float))
        dx = np.abs(xs[:, None] - xs[None, :])
        dy = np.abs(ys[:, None] - ys[None, :])
        a, row_y = dx.sum(axis=1), dy.sum(axis=1)
        perm_rng = np.random.default_rng(trial)
        perms = [np.arange(n)] + [perm_rng.permutation(n) for _ in range(b)]
        exact = np.array(
            [
                _exact_trio(n, int(a.sum()), int(row_y.sum()), int((dx * dy[p][:, p]).sum()), int(a @ row_y[p]))
                for p in perms
            ],
            dtype=object,
        )
        expected = (1.0 + (exact[1:] >= exact[0]).sum(axis=0)) / (b + 1.0)
        for cut in (0, 10**9):
            monkeypatch.setattr(ustats, "_SORT_MIN_N", cut)
            got = inference._permutation_pvalues(sample, b, np.random.default_rng(trial))
            assert np.array_equal(got, expected.astype(float)), (trial, cut)


def test_permutation_test_memory_is_bounded():
    # The tables alone would hold 2 * 5000**2 floats, 400 MB.
    sample = sample_family(NULL_SPEC, 5000, SeedSpec(5))
    tracemalloc.start()
    try:
        result = independence_test(sample, b_or_r=99, seed=SeedSpec(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak
    assert 0.0 < result.p_value <= 1.0


def test_test_result_as_dict():
    sample = sample_family(DEP_SPEC, 30, SeedSpec(5))
    payload = independence_test(sample, b_or_r=99, seed=SeedSpec(6, 2)).as_dict()
    assert payload["statistic_name"] == "kappa_star"
    assert payload["seed"] == {"master_seed": 6, "stream_index": 2}
    assert set(payload) == {
        "statistic_name",
        "statistic",
        "method",
        "p_value",
        "n",
        "b_or_r",
        "seed",
    }


def test_independence_test_validation():
    sample = sample_family(NULL_SPEC, 30, SeedSpec(7))
    with pytest.raises(UnknownEstimator):
        independence_test(sample, estimator="phi")
    with pytest.raises(DomainError):
        independence_test(sample, method="bootstrap")
    with pytest.raises(DomainError):
        independence_test(sample, b_or_r=50)
    tiny = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(SampleTooSmall):
        independence_test(tiny)


def test_asymptotic_test_basics():
    sample = sample_family(NULL_SPEC, 120, SeedSpec(8))
    result = independence_test(sample, method="asymptotic_null", b_or_r=2000, seed=SeedSpec(9))
    assert result.method == "asymptotic_null"
    assert result.statistic == 120 * kappa_star(sample)
    assert result.p_value > 0.05

    dep = sample_family(DEP_SPEC, 120, SeedSpec(10))
    rejected = independence_test(dep, method="asymptotic_null", b_or_r=2000, seed=SeedSpec(9))
    assert rejected.p_value < 0.01


def test_asymptotic_test_needs_enough_draws():
    # B < 99 is rejected whatever the method; the asymptotic method
    # echoes B but its exact tail does not depend on it.
    sample = sample_family(NULL_SPEC, 50, SeedSpec(11))
    for method in ("permutation", "asymptotic_null"):
        with pytest.raises(DomainError):
            independence_test(sample, method=method, b_or_r=98)
    low = independence_test(sample, method="asymptotic_null", b_or_r=99)
    high = independence_test(sample, method="asymptotic_null", b_or_r=1500)
    assert (low.b_or_r, high.b_or_r) == (99, 1500)
    assert low.p_value == high.p_value


def test_power_study_asymptotic_needs_enough_draws():
    # power_study applies the same B >= 99 rule for both methods.
    for method in ("permutation", "asymptotic_null"):
        with pytest.raises(DomainError):
            power_study([NULL_SPEC], n=40, replicates=100, method=method, b_or_r=98)


def test_asymptotic_test_on_binary_marginal():
    # A two-point marginal has a single kernel eigenvalue.
    sample = sample_family(NULL_SPEC, 50, SeedSpec(18))
    binary = PairedSample((sample.xs > 0.0).astype(float), sample.ys)
    for estimator in ("star", "hat"):
        result = independence_test(binary, estimator=estimator, method="asymptotic_null", b_or_r=1000)
        assert 0.0 < result.p_value <= 1.0
        assert result.b_or_r == 1000


def test_asymptotic_estimator_variants_agree_on_strong_signal():
    dep = sample_family(FamilySpec("normal", 0.85), 150, SeedSpec(12))
    for name in ("star", "tilde", "hat"):
        result = independence_test(
            dep, estimator=name, method="asymptotic_null", b_or_r=1500, seed=SeedSpec(3), spectrum_k=50
        )
        assert result.p_value < 0.02


def test_methods_agree_on_clear_cases():
    # Scaled-down version of the documented large-n agreement between
    # the permutation and asymptotic-null tests at alpha = 0.05.
    agreements = 0
    total = 20
    for r in range(total):
        null = sample_family(NULL_SPEC, 200, SeedSpec(100 + r))
        perm = independence_test(null, b_or_r=199, seed=SeedSpec(1))
        asym = independence_test(null, method="asymptotic_null", b_or_r=1200, seed=SeedSpec(1), spectrum_k=40)
        agreements += (perm.p_value <= 0.05) == (asym.p_value <= 0.05)
    assert agreements >= 17

    agreements = 0
    for r in range(total):
        dep = sample_family(FamilySpec("normal", 0.6), 200, SeedSpec(300 + r))
        perm = independence_test(dep, b_or_r=199, seed=SeedSpec(1))
        asym = independence_test(dep, method="asymptotic_null", b_or_r=1200, seed=SeedSpec(1), spectrum_k=40)
        agreements += (perm.p_value <= 0.05) == (asym.p_value <= 0.05)
    assert agreements >= 17


def test_power_study_worker_count_invariance():
    grid = [FamilySpec("normal", 0.0), FamilySpec("normal", 0.8)]
    serial = power_study(grid, n=40, replicates=100, b_or_r=99, seed=SeedSpec(13), threads=1)
    pooled = power_study(grid, n=40, replicates=100, b_or_r=99, seed=SeedSpec(13), threads=2)
    assert serial.as_dict() == pooled.as_dict()


@pytest.mark.parametrize("threads", [0, 10**6])
def test_power_study_caps_workers_at_cores(monkeypatch, threads):
    # A process pool forks every worker it is asked for at once.  The fake
    # pool records the request and maps serially, so no process starts.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(inference.os, "cpu_count", lambda: 3)
    grid = [FamilySpec("normal", 0.0), FamilySpec("normal", 0.8)]
    serial = power_study(grid, n=20, replicates=100, b_or_r=99, seed=SeedSpec(13), threads=1)
    assert asked == []
    pooled = power_study(grid, n=20, replicates=100, b_or_r=99, seed=SeedSpec(13), threads=threads)
    assert asked == [3]
    assert pooled.as_dict() == serial.as_dict()


def test_power_study_separates_null_from_alternative():
    grid = [FamilySpec("normal", 0.0), FamilySpec("normal", 0.9)]
    report = power_study(grid, n=60, replicates=100, b_or_r=99, seed=SeedSpec(14))
    size = report.power_for("normal", 0.0, "star").power
    power = report.power_for("normal", 0.9, "star").power
    assert size <= 0.12
    assert power >= 0.9
    cell = report.power_for("normal", 0.9, "star")
    assert math.isclose(
        cell.mc_stderr, math.sqrt(cell.power * (1.0 - cell.power) / 100.0), rel_tol=1e-12, abs_tol=1e-12
    )


def test_power_study_estimator_subset_and_lookup():
    report = power_study(
        [FamilySpec("uniform", 0.7)], n=40, replicates=100, b_or_r=99,
        seed=SeedSpec(15), estimators=("tilde",),
    )
    assert len(report.cells) == 1
    assert report.cells[0].estimator == "tilde"
    with pytest.raises(KeyError):
        report.power_for("uniform", 0.7, "star")


def test_power_study_asymptotic_method():
    report = power_study(
        [FamilySpec("normal", 0.9)], n=60, replicates=100, method="asymptotic_null",
        b_or_r=1000, seed=SeedSpec(16), spectrum_k=30,
    )
    assert report.power_for("normal", 0.9, "star").power >= 0.9


def test_asymptotic_power_matches_its_tests():
    # Replicates settled by the Chernoff bound must reject exactly when
    # the exact tail does: replicate r of a one-cell grid is the sample
    # drawn from substream r.
    spec, n, seed = FamilySpec("normal", 0.45), 40, SeedSpec(23, 5)
    report = power_study(
        [spec], n=n, replicates=100, method="asymptotic_null", b_or_r=1000,
        seed=seed, estimators=("star", "hat"), spectrum_k=20,
    )
    for estimator in ("star", "hat"):
        hits = sum(
            independence_test(
                sample_family(spec, n, SeedSpec(23, 5 + r)), estimator=estimator,
                method="asymptotic_null", b_or_r=1000, spectrum_k=20,
            ).p_value <= 0.05
            for r in range(100)
        )
        assert 0 < hits < 100
        assert report.power_for("normal", 0.45, estimator).power == hits / 100


def test_asymptotic_replicate_asks_one_law_per_cell(monkeypatch):
    # Every estimator of a cell asks the cell's one null law for its bound
    # and tail, and the law minimises each threshold's Chernoff bound once.
    from scipy import optimize

    laws, minimisations = [], []
    build, minimize = spectral._NullLaw.__init__, optimize.minimize_scalar

    def counting_build(law, lx, ly):
        laws.append(law)
        build(law, lx, ly)

    def counting_minimize(*args, **kwargs):
        minimisations.append(args)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(spectral._NullLaw, "__init__", counting_build)
    monkeypatch.setattr(optimize, "minimize_scalar", counting_minimize)
    grid = tuple(FamilySpec(family, theta) for family in ("normal", "chisquare") for theta in (0.0, 0.6))
    names = inference.ESTIMATOR_NAMES
    for stream in range(4):
        laws.clear()
        minimisations.clear()
        inference._power_replicate(stream, SeedSpec(31), grid, 60, "asymptotic_null", 199, 0.05, 30, names)
        assert len(laws) == len(grid)
        assert 0 < len(minimisations) <= len(grid) * len(names)


def test_power_study_validation():
    grid = [FamilySpec("normal", 0.5)]
    with pytest.raises(DomainError):
        power_study([], replicates=100)
    with pytest.raises(DomainError):
        power_study([("normal", 0.5)], replicates=100)
    with pytest.raises(DomainError):
        power_study(grid, replicates=99)
    with pytest.raises(DomainError):
        power_study(grid, replicates=100, alpha=1.0)
    with pytest.raises(DomainError):
        power_study(grid, replicates=100, threads=-1)
    with pytest.raises(UnknownEstimator):
        power_study(grid, replicates=100, estimators=("phi",))
    # The size check lives in samplers._draw, so a pooled replicate raises it too.
    for n, threads in ((0, 1), (-5, 1), (-5, 2)):
        with pytest.raises(NOnPositive):
            power_study(grid, n=n, replicates=100, b_or_r=99, threads=threads)


def test_normality_diagnostic_rows():
    report = normality_diagnostic(
        FamilySpec("normal", 0.5), n_grid=(80, 160), replicates=150, seed=SeedSpec(17)
    )
    assert len(report.rows) == 6
    assert report.kappa > 0.0
    for row in report.rows:
        assert abs(row.mean) < 0.6
        assert 0.5 < row.variance < 1.8
        assert row.ks_distance < 0.15
    small = report.row_for("star", 80)
    large = report.row_for("star", 160)
    # Root-n consistency keeps sqrt(n) * RMSE roughly flat.
    assert 0.5 < large.rmse_sqrt_n / small.rmse_sqrt_n < 2.0
    with pytest.raises(KeyError):
        report.row_for("star", 999)
    payload = report.as_dict()
    assert payload["family"] == "normal"
    assert len(payload["rows"]) == 6


def test_ks_distance_matches_scipy(monkeypatch):
    # The standardized values of test_normality_diagnostic_rows' six rows.
    seen = []
    original = inference._ks_distance

    def recording(values):
        seen.append(values.copy())
        return original(values)

    monkeypatch.setattr(inference, "_ks_distance", recording)
    report = normality_diagnostic(
        FamilySpec("normal", 0.5), n_grid=(80, 160), replicates=150, seed=SeedSpec(17)
    )
    assert len(seen) == len(report.rows) == 6
    for values, row in zip(seen, report.rows):
        expected = stats.kstest(values, "norm").statistic
        assert abs(row.ks_distance - expected) <= 1e-15


def test_normality_diagnostic_validation():
    with pytest.raises(DomainError):
        normality_diagnostic(FamilySpec("normal", 0.5), replicates=50)
    with pytest.raises(UnsupportedFamily):
        normality_diagnostic(FamilySpec("uniform", 0.5), replicates=100)
    for n in (0, -5):
        with pytest.raises(NOnPositive):
            normality_diagnostic(FamilySpec("normal", 0.5), n_grid=(n,), replicates=100)


def test_timing_benchmark_reports():
    reports = timing_benchmark(("star", "hat"), n=50, evals=10, repetitions=3, seed=SeedSpec(18))
    assert [r.estimator for r in reports] == ["kappa_star", "kappa_hat"]
    for report in reports:
        assert report.mean_seconds > 0.0
        assert report.sd_seconds >= 0.0
        assert report.n == 50 and report.evals == 10
        payload = report.as_dict()
        assert set(payload) == {"estimator", "n", "evals", "mean_seconds", "sd_seconds"}


def test_timing_benchmark_validation():
    with pytest.raises(DomainError):
        timing_benchmark(("star",), evals=5)
    with pytest.raises(DomainError):
        timing_benchmark(("star",), evals=10, repetitions=1)
    with pytest.raises(UnknownEstimator):
        timing_benchmark(("median",))
    for n in (0, -5):
        with pytest.raises(NOnPositive):
            timing_benchmark(("star",), n=n, evals=10)
