"""The three kappa estimators, their exact cross-relations, and the
plug-in asymptotic variance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacov import (
    DegenerateMarginal,
    FamilySpec,
    PairedSample,
    SampleTooSmall,
    SeedSpec,
    compute_ustats,
    delta1_plugin,
    estimate,
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
from kappacov import ustats
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
    # the scale is then added so that subtracting it again is exact.
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
    scaled = PairedSample(c * base.xs, d * base.ys)
    bound = 1e-12 * statistic_scale(scaled)
    for estimator in (kappa_star, kappa_tilde, kappa_hat):
        assert abs(estimator(scaled) - abs(c * d) * estimator(base)) <= bound, estimator

    offset = data.draw(st.sampled_from([0.0, 1e3, 1e9, -1e9]), label="offset")
    shift_x, shift_y = offset * c, offset * d
    shifted = PairedSample(scaled.xs + shift_x, scaled.ys + shift_y)
    back = PairedSample(shifted.xs - shift_x, shifted.ys - shift_y)
    bound = 1e-12 * statistic_scale(shifted)
    for estimator in (kappa_star, kappa_tilde, kappa_hat):
        assert abs(estimator(shifted) - estimator(back)) <= bound, estimator
    bundle = compute_ustats(shifted)
    assert abs(kappa_tilde(bundle) - kappa_tilde_direct(shifted)) <= bound
    assert abs(kappa_hat(bundle) - kappa_hat_direct(shifted)) <= bound
    assert abs(kappa_hat(bundle) - kappa_hat_relation(bundle)) <= bound


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


@pytest.mark.parametrize("block_elements", [1, 100])
@pytest.mark.parametrize("ties", [False, True])
def test_blocked_sweep_variance_and_rho(rng, monkeypatch, ties, block_elements):
    # 1-row blocks, and blocks of 1 to 33 rows for n = 3..64.
    monkeypatch.setattr(ustats, "_BLOCK_ELEMENTS", block_elements)
    for n in (3, 4, 7, 64, *rng.integers(8, 64, size=4)):
        sample = random_paired_sample(rng, int(n), ties=ties)
        values = estimate(sample, with_variance=True)
        assert values.delta1_hat == delta1_plugin(sample)
        assert rel_err(values.delta1_hat, _delta1_by_loops(sample)) <= 1e-12, n
        rho = rho_estimates(sample)
        rho_hat, rho_tilde = _rho_by_three_bundles(sample)
        assert abs(rho.rho_hat - rho_hat) <= 1e-12, n
        assert abs(rho.rho_tilde - rho_tilde) <= 1e-12, n


def test_one_sweep_per_call(rng, monkeypatch):
    # n = 40 in blocks of 10 rows: each call builds each matrix's four
    # blocks once, with or without the variance sums.
    monkeypatch.setattr(ustats, "_BLOCK_ELEMENTS", 400)
    built = []
    original = ustats.differences

    def counting(values, rows=slice(None)):
        built.append(rows)
        return original(values, rows)

    monkeypatch.setattr(ustats, "differences", counting)
    sample = random_paired_sample(rng, 40)
    for call in (lambda: estimate(sample, with_variance=True), lambda: rho_estimates(sample)):
        built.clear()
        call()
        assert len(built) == 2 * 4
        assert sorted({(rows.start, rows.stop) for rows in built}) == [(0, 10), (10, 20), (20, 30), (30, 40)]


def test_delta1_plugin_positive_under_dependence():
    sample = sample_family(FamilySpec("normal", 0.6), 200, SeedSpec(3))
    assert delta1_plugin(sample) > 0.0


def test_rho_is_one_for_strictly_monotone_pairs(rng):
    xs = np.sort(rng.normal(size=30))
    sample = PairedSample(xs, 2.0 * xs + 3.0)
    rho = rho_estimates(sample)
    assert rho.rho_hat == 1.0
    assert rho.rho_tilde == 1.0


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
