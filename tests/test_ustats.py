"""Distinct-tuple and with-replacement pairwise means.

The fast O(n^2) reduction is checked against the literal enumeration
over index tuples, and the with-replacement means against their exact
combinatorial identities to the distinct-tuple ones.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacov import (
    PairedSample,
    SampleTooSmall,
    compute_ustats,
)
from kappacov.estimators import kappa_trio, statistic_scale
from kappacov.ustats import (
    bundle_for_permutation,
    compute_ustats_bruteforce,
    pairwise_tables,
)
from kappacov import ustats
from conftest import random_paired_sample, rel_err

FIELDS = ("u1", "u2", "u12", "u3", "v1", "v2", "v12", "v3")

HAND_SAMPLE = PairedSample(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))


def test_hand_enumerated_values():
    bundle = compute_ustats(HAND_SAMPLE)
    assert math.isclose(bundle.u1, 4.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(bundle.u2, 4.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(bundle.u12, 2.0, rel_tol=1e-14)
    assert math.isclose(bundle.u3, 5.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(bundle.v1, 8.0 / 9.0, rel_tol=1e-14)
    assert math.isclose(bundle.v2, 8.0 / 9.0, rel_tol=1e-14)
    assert math.isclose(bundle.v12, 4.0 / 3.0, rel_tol=1e-14)
    assert math.isclose(bundle.v3, 22.0 / 27.0, rel_tol=1e-14)
    assert bundle.n == 3


def test_bruteforce_agrees_on_hand_sample():
    fast = compute_ustats(HAND_SAMPLE)
    slow = compute_ustats_bruteforce(HAND_SAMPLE)
    for field in ("u1", "u2", "u12", "u3", "v1", "v2", "v12", "v3"):
        assert math.isclose(getattr(fast, field), getattr(slow, field), rel_tol=1e-14)


@pytest.mark.parametrize("ties", [False, True])
def test_fast_matches_bruteforce_on_random_samples(rng, ties):
    for _ in range(25):
        n = int(rng.integers(3, 31))
        sample = random_paired_sample(rng, n, ties=ties)
        fast = compute_ustats(sample)
        slow = compute_ustats_bruteforce(sample)
        for field in ("u1", "u2", "u12", "u3", "v1", "v2", "v12", "v3"):
            assert rel_err(getattr(fast, field), getattr(slow, field)) <= 1e-12


@pytest.mark.parametrize("block_elements", [1, 100])
@pytest.mark.parametrize("ties", [False, True])
def test_blocked_sweep_matches_bruteforce(rng, monkeypatch, ties, block_elements):
    # 1-row blocks, and blocks of 1 to 33 rows for n = 3..64.
    monkeypatch.setattr(ustats, "_BLOCK_ELEMENTS", block_elements)
    for n in (3, 4, 7, 64, *rng.integers(8, 64, size=4)):
        sample = random_paired_sample(rng, int(n), ties=ties)
        fast = compute_ustats(sample)
        slow = compute_ustats_bruteforce(sample)
        for field in FIELDS:
            assert rel_err(getattr(fast, field), getattr(slow, field)) <= 1e-12, (n, field)


def test_differences_rows(rng):
    values = rng.normal(size=7)
    full = ustats.differences(values)
    assert full.shape == (7, 7)
    assert np.array_equal(full, [[abs(a - b) for b in values] for a in values])
    assert np.array_equal(ustats.differences(values, slice(2, 5)), full[2:5])


def test_with_replacement_identities(rng):
    # n^2 v1 = 2 C(n,2) u1 and n^3 v3 = 6 C(n,3) u3 + 2 C(n,2) u12.
    for _ in range(20):
        n = int(rng.integers(3, 50))
        b = compute_ustats(random_paired_sample(rng, n))
        pairs = math.comb(n, 2)
        triples = math.comb(n, 3)
        assert rel_err(n**2 * b.v1, 2 * pairs * b.u1) <= 1e-12
        assert rel_err(n**2 * b.v2, 2 * pairs * b.u2) <= 1e-12
        assert rel_err(n**2 * b.v12, 2 * pairs * b.u12) <= 1e-12
        assert rel_err(n**3 * b.v3, 6 * triples * b.u3 + 2 * pairs * b.u12) <= 1e-12


def test_symmetry_in_coordinates(rng):
    sample = random_paired_sample(rng, 17)
    b = compute_ustats(sample)
    s = compute_ustats(sample.swapped())
    assert math.isclose(b.u1, s.u2, rel_tol=1e-14)
    assert math.isclose(b.u2, s.u1, rel_tol=1e-14)
    assert math.isclose(b.u12, s.u12, rel_tol=1e-14)
    assert math.isclose(b.u3, s.u3, rel_tol=1e-14)


def test_translation_and_scale_behavior(rng):
    # The means are translation invariant and 1-homogeneous per coordinate.
    sample = random_paired_sample(rng, 12)
    moved = PairedSample(sample.xs + 100.0, sample.ys - 7.0)
    scaled = PairedSample(3.0 * sample.xs, sample.ys)
    b = compute_ustats(sample)
    m = compute_ustats(moved)
    c = compute_ustats(scaled)
    assert rel_err(b.u1, m.u1) <= 1e-10
    assert rel_err(b.u3, m.u3) <= 1e-10
    assert rel_err(3.0 * b.u1, c.u1) <= 1e-12
    assert rel_err(b.u2, c.u2) <= 1e-12
    assert rel_err(3.0 * b.u12, c.u12) <= 1e-12
    assert rel_err(3.0 * b.u3, c.u3) <= 1e-12


@pytest.mark.parametrize("func", [compute_ustats, compute_ustats_bruteforce])
def test_needs_three_observations(func):
    with pytest.raises(SampleTooSmall):
        func(PairedSample(np.array([1.0, 2.0]), np.array([3.0, 4.0])))


def test_pairwise_tables_fields(rng):
    sample = random_paired_sample(rng, 9)
    tables = pairwise_tables(sample)
    dx = np.abs(sample.xs[:, None] - sample.xs[None, :])
    assert np.allclose(tables.dx, dx)
    assert np.allclose(tables.a, dx.sum(axis=1))
    assert math.isclose(tables.sum_x, dx.sum(), rel_tol=1e-14)
    assert tables.n == 9


def test_bundle_for_permutation_identity(rng):
    sample = random_paired_sample(rng, 11)
    tables = pairwise_tables(sample)
    direct = compute_ustats(sample)
    via_tables = bundle_for_permutation(tables, None)
    for field in ("u1", "u2", "u12", "u3", "v3"):
        assert math.isclose(getattr(direct, field), getattr(via_tables, field), rel_tol=1e-12)


def test_bundle_for_permutation_matches_permuted_sample(rng):
    sample = random_paired_sample(rng, 13)
    tables = pairwise_tables(sample)
    perm = rng.permutation(13)
    permuted = compute_ustats(PairedSample(sample.xs, sample.ys[perm]))
    shuffled = bundle_for_permutation(tables, perm)
    for field in ("u1", "u2", "u12", "u3", "v1", "v2", "v12", "v3"):
        assert rel_err(getattr(permuted, field), getattr(shuffled, field)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=8),
    st.lists(st.floats(-50, 50), min_size=8, max_size=8),
)
def test_fast_route_is_exact_property(xs, ys):
    sample = PairedSample(np.array(xs), np.array(ys[: len(xs)]))
    fast = compute_ustats(sample)
    slow = compute_ustats_bruteforce(sample)
    for field in ("u1", "u2", "u12", "u3", "v3"):
        a, b = getattr(fast, field), getattr(slow, field)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


# Sizes at, next to and between the powers of two the sort kernel pads to.
SWEEP_SIZES = (3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)
# _SORT_MIN_N values forcing the sort kernel and the table gather.
KERNELS = {"sort": 0, "gather": 10**9}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_permutation_sweep_property(data):
    n = data.draw(st.sampled_from(SWEEP_SIZES), label="n")
    # Three-valued columns tie heavily; offsets near 1e9 cancel if uncentered.
    values = data.draw(
        st.sampled_from([st.floats(-50, 50), st.integers(0, 2).map(float)]), label="values"
    )
    offset = data.draw(st.sampled_from([0.0, 1e9, -1e9]), label="offset")
    xs = np.array(data.draw(st.lists(values, min_size=n, max_size=n))) + offset
    ys = np.array(data.draw(st.lists(values, min_size=n, max_size=n))) - offset
    sample = PairedSample(xs, ys)
    b = data.draw(st.integers(1, 4), label="B")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    perms = np.array([np.random.default_rng(seed + k).permutation(n) for k in range(b)])
    kernel = data.draw(st.sampled_from(sorted(KERNELS)), label="kernel")
    # One permutation per chunk, or the default chunking.
    elements = data.draw(st.sampled_from([1, ustats._SWEEP_ELEMENTS]), label="elements")
    with mock.patch.multiple(ustats, _SORT_MIN_N=KERNELS[kernel], _SWEEP_ELEMENTS=elements):
        swept = np.array(kappa_trio(ustats.permutation_bundles(sample, perms)))
    assert swept.shape == (3, b)
    tables = pairwise_tables(sample)
    bound = 1e-12 * statistic_scale(sample)
    for k, perm in enumerate(perms):
        permuted = PairedSample(xs, ys[perm])
        for oracle in (bundle_for_permutation(tables, perm), compute_ustats_bruteforce(permuted)):
            assert np.abs(swept[:, k] - kappa_trio(oracle)).max() <= bound, (k, oracle)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_permutation_sweep_fields(rng, monkeypatch, kernel):
    # Every field of every row, on a size that spans several chunks and pads.
    monkeypatch.setattr(ustats, "_SORT_MIN_N", KERNELS[kernel])
    monkeypatch.setattr(ustats, "_SWEEP_ELEMENTS", 1000)
    sample = random_paired_sample(rng, 40, ties=True)
    perms = np.array([np.arange(40)] + [rng.permutation(40) for _ in range(30)])
    swept = ustats.permutation_bundles(sample, perms)
    tables = pairwise_tables(sample)
    assert swept.n == 40
    for k, perm in enumerate(perms):
        single = bundle_for_permutation(tables, perm)
        for field in FIELDS:
            value = np.broadcast_to(getattr(swept, field), len(perms))[k]
            assert rel_err(value, getattr(single, field)) <= 1e-13, (k, field)


def test_permutation_sweep_needs_three_observations():
    sample = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    for cut in KERNELS.values():
        with mock.patch.object(ustats, "_SORT_MIN_N", cut), pytest.raises(SampleTooSmall):
            ustats.permutation_bundles(sample, np.array([[0, 1]]))
