"""The three kappa estimators, their exact cross-relations, and the
plug-in asymptotic variance."""

import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacov import (
    AllValuesEqual,
    DegenerateMarginal,
    DomainError,
    FamilySpec,
    PairedSample,
    SampleTooSmall,
    SeedSpec,
    compute_ustats,
    delta1_plugin,
    estimate,
    independence_test,
    kappa_hat,
    kappa_star,
    kappa_tilde,
    rho_estimates,
    sample_family,
)
from kappacov.estimators import (
    kappa_hat_direct,
    kappa_hat_relation,
    kappa_tilde_direct,
    kappa_trio,
    statistic_scale,
)
from kappacov.ustats import compute_ustats_bruteforce
from kappacov import estimators, inference, ustats
from conftest import random_paired_sample, random_spec, rel_err

HAND_SAMPLE = PairedSample(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))


def test_hand_enumerated_trio():
    star, tilde, hat = kappa_trio(HAND_SAMPLE)
    assert math.isclose(star, 1.0 / 9.0, rel_tol=1e-14)
    assert math.isclose(tilde, 1.0 / 72.0, rel_tol=1e-14)
    assert math.isclose(hat, 10.0 / 81.0, rel_tol=1e-14)


def test_estimators_accept_sample_or_bundle(rng):
    sample = random_paired_sample(rng, 15)
    bundle = compute_ustats(sample)
    assert kappa_star(sample) == kappa_star(bundle)
    assert kappa_tilde(sample) == kappa_tilde(bundle)
    assert kappa_hat(sample) == kappa_hat(bundle)


def test_relations_match_direct_definitions(rng):
    # kappa_tilde and kappa_hat via their exact identities through
    # kappa_star equal the literal centered-kernel averages.
    for _ in range(40):
        n = int(rng.integers(3, 40))
        sample = (
            sample_family(random_spec(rng), n, SeedSpec(int(rng.integers(1 << 31))))
            if rng.random() < 0.7
            else random_paired_sample(rng, n, ties=True)
        )
        bundle = compute_ustats(sample)
        floor = statistic_scale(bundle)
        assert rel_err(kappa_tilde(bundle), kappa_tilde_direct(sample), floor) <= 1e-12
        assert rel_err(kappa_hat(bundle), kappa_hat_direct(sample), floor) <= 1e-12
        assert rel_err(kappa_hat(bundle), kappa_hat_relation(bundle), floor) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_input_scale_property(data):
    # Scale factors 10^k, k in [-100, 100], move every statistic by |c d|
    # without overflow, underflow or loss; an offset of up to 1e9 times
    # the scale is then added so that subtracting it again is exact.  Each
    # example forces one kernel of the sweep.
    n = data.draw(st.integers(3, 24), label="n")
    untied = st.integers(-50_000, 50_000).map(lambda v: v / 1000.0)
    tied = st.integers(0, 2).map(float)
    columns = []
    for name in ("x", "y"):
        values = data.draw(st.sampled_from([untied, tied]), label=f"{name} values")
        columns.append(np.array(data.draw(st.lists(values, min_size=n, max_size=n), label=name)))
    base = PairedSample(*columns)
    c, d = (
        data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
        * 10.0 ** data.draw(st.integers(-100, 100), label="k")
        for _ in range(2)
    )
    offset = data.draw(st.sampled_from([0.0, 1e3, 1e9, -1e9]), label="offset")
    cut = data.draw(st.sampled_from([0, 10**9]), label="_SORT_MIN_N")
    with mock.patch.object(ustats, "_SORT_MIN_N", cut):
        scaled = PairedSample(c * base.xs, d * base.ys)
        bound = 1e-12 * statistic_scale(scaled)
        for estimator in (kappa_star, kappa_tilde, kappa_hat):
            assert abs(estimator(scaled) - abs(c * d) * estimator(base)) <= bound, estimator
        try:
            rho = rho_estimates(base)
        except DegenerateMarginal:
            with pytest.raises(DegenerateMarginal):
                rho_estimates(scaled)
        else:
            scaled_rho = rho_estimates(scaled)
            assert abs(scaled_rho.rho_hat - rho.rho_hat) <= 1e-12
            assert abs(scaled_rho.rho_tilde - rho.rho_tilde) <= 1e-12
        # The asymptotic p-value does not depend on the units either.
        name = data.draw(st.sampled_from(["star", "tilde", "hat"]), label="estimator")
        try:
            p_value = independence_test(base, name, method="asymptotic_null").p_value
        except AllValuesEqual:
            with pytest.raises(AllValuesEqual):
                independence_test(scaled, name, method="asymptotic_null")
        else:
            assert abs(independence_test(scaled, name, method="asymptotic_null").p_value - p_value) <= 1e-9

        shift_x, shift_y = offset * c, offset * d
        shifted = PairedSample(scaled.xs + shift_x, scaled.ys + shift_y)
        back = PairedSample(shifted.xs - shift_x, shifted.ys - shift_y)
        bound = 1e-12 * statistic_scale(shifted)
        for estimator in (kappa_star, kappa_tilde, kappa_hat):
            assert abs(estimator(shifted) - estimator(back)) <= bound, estimator
        bundle = compute_ustats(shifted)
        slow = kappa_trio(compute_ustats_bruteforce(shifted))
        assert np.abs(np.subtract(kappa_trio(bundle), slow)).max() <= bound
        assert abs(kappa_tilde(bundle) - kappa_tilde_direct(shifted)) <= bound
        assert abs(kappa_hat(bundle) - kappa_hat_direct(shifted)) <= bound
        assert abs(kappa_hat(bundle) - kappa_hat_relation(bundle)) <= bound

        # rho is scale free; it is checked at the unit scale, offset.
        moved = PairedSample(base.xs + offset, base.ys - offset)
        if np.ptp(base.xs) == 0.0 or np.ptp(base.ys) == 0.0:
            with pytest.raises(DegenerateMarginal):
                rho_estimates(moved)
        else:
            rho = rho_estimates(moved)
            oracle = _rho_by_three_bundles(moved)
            assert np.abs(np.subtract((rho.rho_hat, rho.rho_tilde), oracle)).max() <= 1e-12


def _exact_ldexp(value: float, e: int):
    """``value * 2**e`` where that is a finite float that keeps every bit
    of ``value``, else None."""
    try:
        scaled = math.ldexp(value, e)
    except OverflowError:
        return None
    return scaled if math.ldexp(scaled, -e) == value else None


def _assert_scaled(call, base_values, exponents, read=lambda result: [result]):
    """``read(call())`` is the exact ``ldexp`` of each base value by its
    exponent, or ``call()`` raises ``DomainError`` where one of them leaves
    float64.  Returns the result, or None where it raised."""
    expected = [_exact_ldexp(v, e) for v, e in zip(base_values, exponents)]
    if None in expected:
        with pytest.raises(DomainError, match="overflows|underflows"):
            call()
        return None
    result = call()
    assert read(result) == expected
    return result


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_power_of_two_scale_property(data):
    # Columns scaled by 2**kx and 2**ky, each exponent anywhere in
    # [-1000, 1000]: the engine works on each column divided by a power of
    # two near its spread, so p-values, rho and the asymptotic power
    # decisions do not move, and kappas, bundle fields, delta1_hat and the
    # tests' statistics are the exact ldexp of the unscaled ones, or raise
    # DomainError where that leaves float64.  Each example forces one
    # kernel of the sweep.
    n = data.draw(st.integers(3, 24), label="n")
    untied = st.integers(-50_000, 50_000).map(lambda v: v / 1000.0)
    tied = st.integers(0, 2).map(float)
    columns = []
    for name in ("x", "y"):
        values = data.draw(st.sampled_from([untied, tied]), label=f"{name} values")
        columns.append(np.array(data.draw(st.lists(values, min_size=n, max_size=n), label=name)))
    kx, ky = (data.draw(st.integers(-1000, 1000), label=label) for label in ("kx", "ky"))
    cut = data.draw(st.sampled_from([0, 10**9]), label="_SORT_MIN_N")
    name = data.draw(st.sampled_from(["star", "tilde", "hat"]), label="estimator")
    _check_power_of_two_scale(PairedSample(*columns), kx, ky, cut, name)


@pytest.mark.parametrize("name", ["star", "tilde", "hat"])
def test_power_of_two_scale_exact_subnormal(name):
    # kappa_tilde here is -0x1.2c85c21a29f60p-33, and its ldexp by -990 is
    # the subnormal -1.306024888867441e-308 exactly, so the scaled sample
    # gives that value rather than an underflow.
    base = PairedSample(np.array([0.0] * 7 + [0.001]), np.array([0.0] * 6 + [0.001, 0.0]))
    assert kappa_tilde(base) == float.fromhex("-0x1.2c85c21a29f60p-33")
    _check_power_of_two_scale(base, 0, -990, 0, name)
    assert kappa_tilde(PairedSample(base.xs, np.ldexp(base.ys, -990))) == -1.306024888867441e-308


def _check_power_of_two_scale(base, kx, ky, cut, name):
    """The scale property of ``base`` scaled by ``2**kx`` and ``2**ky``,
    with ``_SORT_MIN_N`` at ``cut`` and the tests run for estimator ``name``."""
    scaled = PairedSample(np.ldexp(base.xs, kx), np.ldexp(base.ys, ky))
    exy = kx + ky
    with mock.patch.object(ustats, "_SORT_MIN_N", cut):
        fields = ("u1", "u2", "u12", "u3", "v1", "v2", "v12", "v3")
        bundle = compute_ustats(base)
        _assert_scaled(
            lambda: compute_ustats(scaled), [getattr(bundle, f) for f in fields],
            [kx, ky, exy, exy, kx, ky, exy, exy], lambda result: [getattr(result, f) for f in fields],
        )
        values = estimate(base, with_variance=True)
        for estimator in (kappa_star, kappa_tilde, kappa_hat):
            _assert_scaled(lambda: estimator(scaled), [getattr(values, estimator.__name__)], [exy])
        _assert_scaled(lambda: delta1_plugin(scaled), [values.delta1_hat], [2 * exy])

        try:
            rho = rho_estimates(base)
        except DegenerateMarginal:
            with pytest.raises(DegenerateMarginal):
                rho_estimates(scaled)
        else:
            assert rho_estimates(scaled) == rho

        for method in ("permutation", "asymptotic_null"):
            args = (name, method, 99, SeedSpec(1), 20)
            try:
                result = independence_test(base, *args)
            except AllValuesEqual:
                with pytest.raises(AllValuesEqual):
                    independence_test(scaled, *args)
                continue
            moved = _assert_scaled(
                lambda: independence_test(scaled, *args), [result.statistic], [exy],
                lambda result: [result.statistic],
            )
            assert moved is None or moved.p_value == result.p_value, method

        # A power study's replicate decides on its unit sample, which the
        # scaling does not move unless a column is constant, so its decisions
        # do not move either.
        if np.ptp(base.xs) > 0.0 and np.ptp(base.ys) > 0.0:
            units = [ustats._unit(sample)[0] for sample in (base, scaled)]
            assert all(np.array_equal(u.xs, units[0].xs) and np.array_equal(u.ys, units[0].ys) for u in units)
            decisions = []
            for unit in units:
                _, law, thresholds = inference._asymptotic_null(
                    unit, compute_ustats(unit), 20, ("star", "tilde", "hat")
                )
                decisions.append([law.tail(q, level=0.05) <= 0.05 for q in thresholds.values()])
            assert decisions[0] == decisions[1]


def test_kappa_hat_is_nonnegative(rng):
    # The fully centered estimate is a squared-norm type quantity.
    for _ in range(20):
        sample = random_paired_sample(rng, int(rng.integers(3, 25)), ties=bool(rng.random() < 0.5))
        assert kappa_hat(sample) >= 0.0


def test_statistic_scale_bounds_kappa_star(rng):
    for _ in range(10):
        sample = random_paired_sample(rng, int(rng.integers(3, 30)))
        bundle = compute_ustats(sample)
        assert abs(kappa_star(bundle)) <= statistic_scale(bundle) + 1e-15


def test_direct_estimators_need_two_observations():
    tiny = PairedSample(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    kappa_tilde_direct(tiny)
    kappa_hat_direct(tiny)
    with pytest.raises(SampleTooSmall):
        delta1_plugin(tiny)


def test_estimate_bundles_everything(rng):
    sample = random_paired_sample(rng, 20)
    values = estimate(sample, with_variance=True)
    assert values.kappa_star == kappa_star(sample)
    assert values.kappa_tilde == kappa_tilde(sample)
    assert values.kappa_hat == kappa_hat(sample)
    assert values.delta1_hat == delta1_plugin(sample)
    assert values.n == 20
    assert estimate(sample).delta1_hat is None


def _delta1_by_loops(sample: PairedSample) -> float:
    # Literal translation of the plug-in projection, one index at a time.
    xs, ys, n = sample.xs, sample.ys, sample.n
    g1 = np.array([np.mean(np.abs(x - xs)) for x in xs])
    g2 = np.array([np.mean(np.abs(y - ys)) for y in ys])
    g12 = np.array([np.mean(np.abs(x - xs) * np.abs(y - ys)) for x, y in zip(xs, ys)])
    cond_x = np.array([np.mean(np.abs(x - xs) * g2) for x in xs])
    cond_y = np.array([np.mean(np.abs(y - ys) * g1) for y in ys])
    proj = g12 + g1.mean() * g2 + g2.mean() * g1 - cond_x - cond_y - g1 * g2
    return 0.25 * float(np.mean((proj - proj.mean()) ** 2))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_delta1_plugin_property(data):
    # The sort-based row sums against the literal projection, on tied and
    # untied columns, at offsets that the median centering must absorb.
    n = data.draw(st.integers(3, 24), label="n")
    untied = st.integers(-50_000, 50_000).map(lambda v: v / 1000.0)
    tied = st.integers(0, 2).map(float)
    offset = data.draw(st.sampled_from([0.0, 1e9, -1e9]), label="offset")
    columns = []
    for name in ("x", "y"):
        values = data.draw(st.sampled_from([untied, tied]), label=f"{name} values")
        column = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label=name))
        columns.append(column + offset)
    sample = PairedSample(*columns)
    bound = 1e-12 * statistic_scale(sample) ** 2
    assert abs(delta1_plugin(sample) - _delta1_by_loops(sample)) <= bound


def test_delta1_plugin_matches_loop_oracle(rng):
    for _ in range(8):
        sample = random_paired_sample(rng, int(rng.integers(5, 25)))
        assert rel_err(delta1_plugin(sample), _delta1_by_loops(sample)) <= 1e-12


def _rho_by_three_bundles(sample: PairedSample) -> tuple[float, float]:
    # The defining ratio, with each self-coefficient from its own bundle.
    both = compute_ustats(sample)
    self_x = compute_ustats(PairedSample(sample.xs, sample.xs))
    self_y = compute_ustats(PairedSample(sample.ys, sample.ys))
    return (
        kappa_hat(both) / math.sqrt(kappa_hat(self_x) * kappa_hat(self_y)),
        kappa_tilde(both) / math.sqrt(kappa_tilde(self_x) * kappa_tilde(self_y)),
    )


@pytest.mark.parametrize("scale", [1, 100])
@pytest.mark.parametrize("ties", [False, True])
def test_variance_and_rho_match_oracles(rng, ties, scale):
    # The sort-based plug-in variance and rho against their oracles, on
    # unit-scale and on scaled samples.
    for n in (3, 4, 7, 64, *rng.integers(8, 64, size=4)):
        base = random_paired_sample(rng, int(n), ties=ties)
        sample = PairedSample(scale * base.xs, scale * base.ys)
        values = estimate(sample, with_variance=True)
        assert values.delta1_hat == delta1_plugin(sample)
        assert rel_err(values.delta1_hat, _delta1_by_loops(sample)) <= 1e-12, n
        rho = rho_estimates(sample)
        rho_hat, rho_tilde = _rho_by_three_bundles(sample)
        assert abs(rho.rho_hat - rho_hat) <= 1e-12, n
        assert abs(rho.rho_tilde - rho_tilde) <= 1e-12, n


def test_one_sweep_per_call(rng, monkeypatch):
    # No O(n^2) pass: every kappa comes from the sweep, which builds the
    # gather's one x table below _SORT_MIN_N and no difference matrix from
    # there on, and the plug-in variance builds none at any n.  Each column
    # is sorted for its row sums once, which the sweep, the plug-in variance
    # and rho's self-coefficients share; the variance's two weighted row
    # sums sort once more each.
    built, sorted_sums = [], []
    original, row_sums = ustats.differences, ustats._sorted_row_sums

    def counting(values):
        built.append(values.size)
        return original(values)

    def counting_sums(values, weights=None):
        sorted_sums.append(values.size)
        return row_sums(values, weights)

    monkeypatch.setattr(ustats, "differences", counting)
    for module in (ustats, estimators):
        monkeypatch.setattr(module, "_sorted_row_sums", counting_sums)
    sample = random_paired_sample(rng, 40)
    for cut, tables in ((0, 0), (10**9, 1)):
        monkeypatch.setattr(ustats, "_SORT_MIN_N", cut)
        for call, sorts in ((lambda: estimate(sample, with_variance=True), 4), (lambda: rho_estimates(sample), 2)):
            built.clear()
            sorted_sums.clear()
            call()
            assert built == [40] * tables, cut
            assert sorted_sums == [40] * sorts, cut


def test_large_sample_statistics_stay_fast_and_small():
    # n = 2e5, where an O(n^2) pass takes minutes.
    sample = sample_family(FamilySpec("normal", 0.3), 200_000, SeedSpec(5))
    calls = (
        (compute_ustats, 64e6),
        (estimate, 64e6),
        (rho_estimates, 64e6),
        (lambda data: estimate(data, with_variance=True), 128e6),
    )
    for index, (call, limit) in enumerate(calls):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            call(sample)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 10.0, (index, elapsed)
        assert peak < limit, (index, peak)


def test_delta1_plugin_positive_under_dependence():
    sample = sample_family(FamilySpec("normal", 0.6), 200, SeedSpec(3))
    assert delta1_plugin(sample) > 0.0


def test_rho_is_one_for_strictly_monotone_pairs(rng):
    xs = np.sort(rng.normal(size=30))
    sample = PairedSample(xs, 2.0 * xs + 3.0)
    rho = rho_estimates(sample)
    assert rho.rho_hat == 1.0
    assert rho.rho_tilde == 1.0
    # A linear pair reaches the bound exactly, so rounding on either side
    # of 1 reads 1 at every size.
    draws = np.random.default_rng(406)
    for trial in range(120):
        xs = draws.normal(size=int(draws.integers(5, 301)))
        rho = rho_estimates(PairedSample(xs, 2.0 * xs + 3.0))
        assert (rho.rho_hat, rho.rho_tilde) == (1.0, 1.0), (trial, xs.size, rho)


def test_rho_ranges(rng):
    for _ in range(15):
        sample = random_paired_sample(rng, int(rng.integers(4, 40)), ties=bool(rng.random() < 0.3))
        rho = rho_estimates(sample)
        assert 0.0 <= rho.rho_hat <= 1.0
        assert -1.0 <= rho.rho_tilde <= 1.0


def test_rho_small_under_independence():
    sample = sample_family(FamilySpec("uniform", 0.0), 400, SeedSpec(9))
    rho = rho_estimates(sample)
    assert rho.rho_hat < 0.1
    assert abs(rho.rho_tilde) < 0.1


def test_rho_degenerate_marginal():
    sample = PairedSample(np.zeros(10), np.arange(10.0))
    with pytest.raises(DegenerateMarginal):
        rho_estimates(sample)


def test_overflowing_sums_raise_domain_error():
    # Every sum is taken on columns divided by a power of two near their
    # spread, so no sum overflows; a result is scaled back exactly, and
    # raises a named error, warning nothing, only where it leaves float64
    # in the data's units.
    rng = np.random.default_rng(29)
    x, noise = rng.normal(size=50), rng.normal(size=50)
    base, dependent = PairedSample(x, noise), PairedSample(x, x + noise)
    huge = PairedSample(np.ldexp(x, 520), np.ldexp(noise, 520))
    calls = (
        compute_ustats, kappa_star, estimate, delta1_plugin,
        lambda s: independence_test(s, b_or_r=99),
        lambda s: independence_test(s, method="asymptotic_null"),
    )
    for call in calls:
        with pytest.raises(DomainError, match="overflow"):
            call(huge)
    # rho does not depend on units, so it is computed at any scale.
    assert rho_estimates(huge) == rho_estimates(base)
    tiny = PairedSample(np.ldexp(x, -520), np.ldexp(noise, -520))
    with pytest.raises(DomainError, match="underflow"):
        estimate(tiny)
    assert rho_estimates(tiny) == rho_estimates(base)
    # The kappas scale as the square of the units and stay exact; the
    # plug-in variance scales as the fourth power and overflows.
    squared = PairedSample(np.ldexp(x, 260), np.ldexp(x + noise, 260))
    assert estimate(squared).kappa_star == math.ldexp(estimate(dependent).kappa_star, 520)
    with pytest.raises(DomainError, match="overflow"):
        estimate(squared, with_variance=True)
    # A permutation test whose statistic fits gives the unscaled p-value.
    scaled, result = (
        independence_test(PairedSample(np.ldexp(x, k), np.ldexp(x + noise, k)), b_or_r=99)
        for k in (500, 0)
    )
    assert scaled.statistic == math.ldexp(result.statistic, 1000)
    assert scaled.p_value == result.p_value
    # rho is computed in the unit, where no self-coefficient squares a
    # column's units.
    lopsided = PairedSample(np.ldexp(x, 1000), noise)
    assert estimate(lopsided).kappa_star == math.ldexp(estimate(base).kappa_star, 1000)
    assert rho_estimates(lopsided) == rho_estimates(base)
