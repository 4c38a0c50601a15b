"""Independence tests, power studies, normality diagnostics, timing."""

import concurrent.futures
import gc
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from kappacov import inference, spectral, ustats
from kappacov.estimators import kappa_trio
from kappacov import (
    DomainError,
    FamilySpec,
    NOnPositive,
    PairedSample,
    SampleTooSmall,
    SeedSpec,
    UnknownEstimator,
    UnsupportedFamily,
    compute_ustats,
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
            observed, bundle = ustats._sweep(*ustats._unit(sample))
            got = (1.0 + inference._exceedances(observed, bundle, b, np.random.default_rng(trial))) / (b + 1.0)
            assert np.array_equal(got, expected.astype(float)), (trial, cut)


@pytest.mark.parametrize(
    "n, elements",
    [pytest.param(n, ustats._SWEEP_ELEMENTS, id=str(n)) for n in (3, 256, 257)]
    + [(n, elements) for n in (3, 256, 257) for elements in (1000, 1)],
)
def test_permutation_draws_are_successive_permutation_calls(monkeypatch, n, elements):
    # The sweep's B draws, streamed block by block, are those of B
    # rng.permutation(n) calls, and the generator ends where those calls leave
    # it, so a power study's common random numbers and every seeded p-value
    # stay as they were.  No block holds more than _DECISION_ROWS rows, nor
    # more than _SWEEP_ELEMENTS entries unless it is one row, so memory grows
    # neither with B nor past the sweep's working set.  Both hold for a test's
    # full sweep and for a power study's, which stops early here and still
    # draws the rest.  By default n = 3 sweeps with the gather, in chunks of
    # more rows than a block, and n = 256 and 257 with the sort kernel, in
    # chunks of 32 and 16 rows; a smaller working set makes blocks of 3 rows
    # at n = 256 and 257, and of one row at every n.
    monkeypatch.setattr(ustats, "_SWEEP_ELEMENTS", elements)
    b, drawn = 99, []
    draw = inference._drawn_blocks

    def capturing(n, b, rng):
        for block in draw(n, b, rng):
            drawn.append(block.copy())
            yield block

    monkeypatch.setattr(inference, "_drawn_blocks", capturing)
    rows = _counting_rows(monkeypatch)
    observed, bundle = ustats._sweep(ustats._unit(sample_family(NULL_SPEC, n, SeedSpec(n)))[0])
    names = inference.ESTIMATOR_NAMES
    for full, decide in (
        (True, lambda rng: inference._exceedances(observed, bundle, b, rng)),
        (False, lambda rng: inference._exceedances(observed, bundle, b, rng, 0.05, names)),
    ):
        drawn.clear()
        rows.clear()
        rng, twin = np.random.default_rng(n), np.random.default_rng(n)
        decide(rng)
        # The power study's sweep stops early wherever there is a block to skip.
        assert (sum(rows) == b) if full else (sum(rows) < b or len(drawn) == 1)
        assert max(len(block) for block in drawn) == max(1, min(ustats._DECISION_ROWS, elements // n))
        assert np.array_equal(np.concatenate(drawn), [twin.permutation(n) for _ in range(b)])
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("cut", [0, 10**9])
def test_permutation_pvalue_compares_the_reported_statistic(monkeypatch, cut):
    # The observed trio the permuted ones are compared with is the bundle
    # whose statistic the test reports, under either kernel.
    monkeypatch.setattr(ustats, "_SORT_MIN_N", cut)
    seen = []
    exceedances = inference._exceedances

    def capturing(observed, *args):
        seen.append(observed)
        return exceedances(observed, *args)

    monkeypatch.setattr(inference, "_exceedances", capturing)
    for n in (20, 150):
        # Already in unit scale, so the statistic is reported unscaled.
        sample = ustats._unit(sample_family(DEP_SPEC, n, SeedSpec(n)))[0]
        for index, name in enumerate(inference.ESTIMATOR_NAMES):
            result = independence_test(sample, name, b_or_r=99, seed=SeedSpec(5))
            (observed,) = seen
            assert kappa_trio(observed)[index] == result.statistic, (n, name)
            seen.clear()


def test_one_sweep_per_sample(monkeypatch):
    # Each test and each power-study cell sets up its sample's sweep once,
    # sorting each column's row sums once, and both methods read the
    # observed bundle from it.
    calls = []
    row_sums = ustats._sorted_row_sums
    monkeypatch.setattr(ustats, "_sorted_row_sums", lambda values: calls.append(values.size) or row_sums(values))
    sample = sample_family(DEP_SPEC, 30, SeedSpec(6))
    for method in ("permutation", "asymptotic_null"):
        independence_test(sample, method=method, b_or_r=99, spectrum_k=20)
        assert calls == [30] * 2, method
        calls.clear()
        power_study([NULL_SPEC, DEP_SPEC], n=20, replicates=100, method=method, b_or_r=99, spectrum_k=20)
        assert calls == [20] * 2 * 200, method
        calls.clear()


def test_asymptotic_test_frees_its_sweep_before_its_null_law(monkeypatch):
    # The sweep's function holds the row sums and the kernel (below n = 108,
    # two n^2 tables); the eigensolves and the tail, where an asymptotic
    # test's or power replicate's memory peaks, run without them.
    swept, checked = [], []
    sweep = inference._sweep

    def keeping(unit):
        observed, bundle = sweep(unit)
        swept.append(weakref.ref(bundle))
        return observed, bundle

    def checking(func):
        def call(*args, **kwargs):
            gc.collect()
            assert swept[-1]() is None, func.__name__
            checked.append(func.__name__)
            return func(*args, **kwargs)

        return call

    monkeypatch.setattr(inference, "_sweep", keeping)
    monkeypatch.setattr(inference, "kernel_eigenvalues", checking(inference.kernel_eigenvalues))
    monkeypatch.setattr(spectral._NullLaw, "tail", checking(spectral._NullLaw.tail))
    for n in (30, 150):
        independence_test(sample_family(DEP_SPEC, n, SeedSpec(n)), method="asymptotic_null", spectrum_k=20)
    assert len(swept) == 2 and checked == ["kernel_eigenvalues", "kernel_eigenvalues", "tail"] * 2
    checked.clear()
    names = inference.ESTIMATOR_NAMES
    inference._power_replicate(0, SeedSpec(0), (NULL_SPEC, DEP_SPEC), 20, "asymptotic_null", 99, 0.05, 20, names)
    assert len(swept) == 4 and checked == (["kernel_eigenvalues"] * 2 + ["tail"] * 3) * 2


def _counting_rows(monkeypatch):
    # Rows handed to either kernel's chunk function, in call order.
    rows = []
    for name in ("_gather_kernel", "_sort_kernel"):
        kernel = getattr(ustats, name)

        def counting(*args, kernel=kernel):
            pair_sums = kernel(*args)
            return lambda perms: rows.append(len(perms)) or pair_sums(perms)

        monkeypatch.setattr(ustats, name, counting)
    return rows


def _decision_samples(n):
    # Continuous columns at three strengths, and three-valued ones, whose
    # permuted statistics tie the observed one exactly.
    for theta in (0.0, 0.3, 0.6):
        yield sample_family(FamilySpec("normal", theta), n, SeedSpec(n))
    rng = np.random.default_rng(n)
    for _ in range(3):
        yield PairedSample(rng.integers(0, 3, n) + 1000.0, rng.integers(0, 3, n) + 1000.0)


# Both kernels stop between blocks, in chunks of fewer rows than a block,
# and the gather's default ones at n = 30, of more.
@pytest.mark.parametrize("cut, elements", [(0, 1000), (10**9, 1000), (10**9, ustats._SWEEP_ELEMENTS)])
def test_early_decisions_match_full_pvalues(monkeypatch, cut, elements):
    # A stopped sweep decides p <= alpha as the full sweep's p-value does,
    # for each requested estimator, at alphas whose threshold count m is the
    # full exceedance count (reject at m) or one below it (accept at m + 1),
    # and leaves the generator where the full sweep does.
    monkeypatch.setattr(ustats, "_SORT_MIN_N", cut)
    monkeypatch.setattr(ustats, "_SWEEP_ELEMENTS", elements)
    b, names = 199, inference.ESTIMATOR_NAMES
    rows, stopped = _counting_rows(monkeypatch), 0
    for sample in _decision_samples(30):
        observed, bundle = ustats._sweep(ustats._unit(sample)[0])
        full_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
        pvalues = (1.0 + inference._exceedances(observed, bundle, b, full_rng)) / (b + 1.0)
        exceed = np.rint(pvalues * (b + 1)).astype(int) - 1
        for k in range(len(names)):
            for most in {exceed[k], exceed[k] - 1} - {-1}:
                alpha = (1.0 + most) / (b + 1.0)
                for estimators in (names, (names[k],), tuple(name for name in names if name != names[k])):
                    asked = np.isin(names, estimators)
                    rows.clear()
                    rng = np.random.default_rng(7)
                    counts = inference._exceedances(observed, bundle, b, rng, alpha, estimators)
                    got = asked & ((1 + counts) / (b + 1) <= alpha)
                    assert np.array_equal(got, asked & (pvalues <= alpha)), (most, estimators)
                    assert rng.bit_generator.state == full_rng.bit_generator.state
                    stopped += sum(rows) < b
    assert stopped > 0


@pytest.mark.parametrize("cut", [0, 10**9])
def test_settled_alphas_sweep_nothing(monkeypatch, cut):
    # Below 1/(B + 1) no count rejects, and at 1 every count does: both are
    # settled before the first row, yet all B permutations are still drawn.
    monkeypatch.setattr(ustats, "_SORT_MIN_N", cut)
    b, names = 199, inference.ESTIMATOR_NAMES
    rows = _counting_rows(monkeypatch)
    for sample in _decision_samples(30):
        observed, bundle = ustats._sweep(ustats._unit(sample)[0])
        rows.clear()
        for alpha, expected in ((0.999 / (b + 1), False), (1.0, True)):
            rng, twin = np.random.default_rng(3), np.random.default_rng(3)
            got = (1 + inference._exceedances(observed, bundle, b, rng, alpha, names)) / (b + 1) <= alpha
            assert np.array_equal(got, np.full(len(names), expected)), alpha
            [twin.permutation(30) for _ in range(b)]
            assert rng.bit_generator.state == twin.bit_generator.state
        assert rows == []
    rows.clear()
    report = power_study([DEP_SPEC], n=30, replicates=100, alpha=0.004, b_or_r=b)
    assert all(cell.power == 0.0 for cell in report.cells)
    # One row per replicate: the sweep's identity block.
    assert rows == [1] * 100


def test_null_cell_stops_early_and_tests_sweep_all(monkeypatch):
    # At alpha = 0.05 and B = 199 a null replicate is settled once 10
    # permutations reach its statistic, well short of B; a test still sweeps
    # every permutation for its p-value.
    rows = _counting_rows(monkeypatch)
    b, replicates = 199, 100
    power_study([NULL_SPEC], n=30, replicates=replicates, b_or_r=b)
    assert sum(rows) - replicates < 0.5 * replicates * b
    rows.clear()
    independence_test(sample_family(NULL_SPEC, 30, SeedSpec(8)), b_or_r=b)
    assert sum(rows) == 1 + b


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


def test_permutation_test_memory_does_not_grow_with_b():
    # The sweep draws its permutations block by block as it reaches them, so
    # at B = 999 a test peaks within 10% of its peak at B = 99; with all B
    # drawn up front it peaked at 5.0 against 1.36 MB.  A first test also
    # allocates what later ones reuse, so one runs before either is traced.
    sample = sample_family(NULL_SPEC, 2000, SeedSpec(9))
    independence_test(sample, b_or_r=99)
    peaks = []
    for b in (99, 999):
        tracemalloc.start()
        try:
            independence_test(sample, b_or_r=b, seed=SeedSpec(0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


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
    routes = set()
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
        for r in range(100):
            sample = sample_family(spec, n, SeedSpec(23, 5 + r))
            _, law, thresholds = inference._asymptotic_null(sample, compute_ustats(sample), 20, (estimator,))
            q = thresholds[estimator]
            routes.add((math.exp(law.log_bound(q)) <= 0.05, law.tail(q) <= 0.05))
    # Some rejections are settled by the bound alone, and some only by
    # Imhof's integral.
    assert {(True, True), (False, True), (False, False)} <= routes


def test_asymptotic_replicate_asks_one_law_per_cell(monkeypatch):
    # Every estimator of a cell asks the cell's one null law for its tail at
    # level alpha, which minimises the threshold's Chernoff bound once.
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
