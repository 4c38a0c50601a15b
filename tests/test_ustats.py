"""Distinct-tuple and with-replacement pairwise means.

The fast O(n^2) reduction is checked against the literal enumeration
over index tuples, and the with-replacement means against their exact
combinatorial identities to the distinct-tuple ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappacov import (
    PairedSample,
    SampleTooSmall,
    bundle_for_permutation,
    compute_ustats,
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
