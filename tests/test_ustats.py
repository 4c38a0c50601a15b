"""Distinct-tuple and with-replacement pairwise means.

The sweep, with either of its kernels, is checked against the literal
enumeration over index tuples, the plug-in variance's sorted row sums
against loops over index pairs, the shared merge sort level by level
against the rows it started from, and the with-replacement means against
their exact combinatorial identities to the distinct-tuple ones.
"""

import json
import math
import os
import subprocess
import sys
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

# Sizes at, next to and between the powers of two the sort kernel pads to.
SWEEP_SIZES = (3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)
# _SORT_MIN_N values forcing the sort kernel and the table gather.
KERNELS = {"sort": 0, "gather": 10**9}


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


@pytest.mark.parametrize("scale", [1, 100])
@pytest.mark.parametrize("ties", [False, True])
def test_sorted_row_sums_match_loops(rng, ties, scale):
    # The five row sums of the plug-in variance, all from sorts, against
    # loops over index pairs, at sizes next to the powers of two the
    # merge levels pad to, on unit-scale and on scaled samples.
    for n in (*SWEEP_SIZES, 64, *rng.integers(8, 64, size=4)):
        base = random_paired_sample(rng, int(n), ties=ties)
        sample = PairedSample(scale * base.xs, scale * base.ys)
        row_x, row_y = ustats._sorted_row_sums(sample.xs), ustats._sorted_row_sums(sample.ys)
        sums = {
            "a": row_x,
            "b": row_y,
            "pair_rows": ustats._pair_row_sums(sample),
            "cond_x": ustats._sorted_row_sums(sample.xs, row_y),
            "cond_y": ustats._sorted_row_sums(sample.ys, row_x),
        }
        x, y = sample.xs.tolist(), sample.ys.tolist()
        dx = [[abs(p - q) for q in x] for p in x]
        dy = [[abs(p - q) for q in y] for p in y]
        a = [math.fsum(row) for row in dx]
        b = [math.fsum(row) for row in dy]
        loops = {
            "a": a,
            "b": b,
            "pair_rows": [math.fsum(map(float.__mul__, rx, ry)) for rx, ry in zip(dx, dy)],
            "cond_x": [math.fsum(map(float.__mul__, row, b)) for row in dx],
            "cond_y": [math.fsum(map(float.__mul__, row, a)) for row in dy],
        }
        for field, want in loops.items():
            assert np.abs(sums[field] - want).max() <= 1e-12 * max(want), (n, field)


def test_differences_rows(rng):
    values = rng.normal(size=7)
    full = ustats.differences(values)
    assert full.shape == (7, 7)
    assert np.array_equal(full, [[abs(a - b) for b in values] for a in values])


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
    dx, dy = pairwise_tables(sample)
    assert np.array_equal(dx, [[abs(p - q) for q in sample.xs] for p in sample.xs])
    assert np.array_equal(dy, [[abs(p - q) for q in sample.ys] for p in sample.ys])
    with pytest.raises(SampleTooSmall):
        pairwise_tables(PairedSample(sample.xs[:2], sample.ys[:2]))


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fast_route_is_exact_property(data):
    # Each kernel of the sweep, forced, on tied and untied columns and at
    # offsets near 1e9, which cancel if the kernel does not center.
    n = data.draw(st.integers(3, 12), label="n")
    values = data.draw(
        st.sampled_from([st.floats(-50, 50), st.integers(0, 2).map(float)]), label="values"
    )
    offset = data.draw(st.sampled_from([0.0, 1e9, -1e9]), label="offset")
    xs = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="xs")) + offset
    ys = np.array(data.draw(st.lists(values, min_size=n, max_size=n), label="ys")) - offset
    sample = PairedSample(xs, ys)
    slow = compute_ustats_bruteforce(sample)
    bound = 1e-12 * statistic_scale(slow)
    fast = {}
    for kernel, cut in KERNELS.items():
        with mock.patch.object(ustats, "_SORT_MIN_N", cut):
            fast[kernel] = compute_ustats(sample)
        for field in FIELDS:
            a, b = getattr(fast[kernel], field), getattr(slow, field)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b)), (kernel, field)
        assert np.abs(np.subtract(kappa_trio(fast[kernel]), kappa_trio(slow))).max() <= bound
    # Both kernels take the row sums from the same sorts, so the means a
    # permutation leaves alone agree to the last bit.
    for field in ("u1", "u2", "v1", "v2"):
        assert getattr(fast["sort"], field) == getattr(fast["gather"], field), field


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_merge_levels_property(data):
    # Every level of the one merge sort, read against the rows it started
    # from: stable sorted runs, moved arrays still paired with w, the
    # left-run mask, and each right-run entry's count of left-run values.
    rows = data.draw(st.integers(1, 3), label="rows")
    width = 1 << data.draw(st.integers(0, 6), label="log2 width")
    values = data.draw(
        st.sampled_from([st.floats(-50, 50), st.integers(0, 2).map(float)]), label="values"
    )
    entries = data.draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    w0 = np.array(entries).reshape(rows, width)
    scaled0 = 0.5 * w0 - 3.0
    column0 = np.tile(np.arange(width), (rows, 1))
    levels = list(ustats._merge_levels(w0, column0, scaled0))
    assert [level[0] for level in levels] == [1 << k for k in range(width.bit_length() - 1)]
    for half, w, (column, scaled), left, count in levels:
        assert np.array_equal(np.take_along_axis(w0, column, axis=1), w)
        assert np.array_equal(np.take_along_axis(scaled0, column, axis=1), scaled)
        assert np.array_equal(left, column % (2 * half) < half)
        for r in range(rows):
            for start in range(0, width, 2 * half):
                run = range(start, start + 2 * half)
                assert sorted(column[r, run]) == list(run)
                keys = list(zip(w[r, run], column[r, run]))
                assert keys == sorted(keys), (half, r, start)
                left_values = w0[r, start : start + half]
                for j in run:
                    if not left[r, j]:
                        assert count[r, j] == np.sum(left_values <= w[r, j]), (half, r, j)


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


def _row_bits(bundle, count):
    """The bits of every field of each of ``count`` swept rows, one row each."""
    fields = [np.broadcast_to(np.asarray(getattr(bundle, field), dtype=float), count) for field in FIELDS]
    return np.stack(fields, axis=1).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_rows_are_the_same_in_any_composition(data):
    # A row's bundle depends on its permutation alone: swept alone, in one
    # block, in a block split mid-chunk or shifted down by a few rows, each
    # kernel with one row per chunk, the default chunks, or three rows per
    # chunk each wider than 8192 entries, past which a reduction over a
    # whole chunk can split a row where its neighbours end.  The identity
    # block is row 0.
    kernel = data.draw(st.sampled_from(sorted(KERNELS)), label="kernel")
    layout = data.draw(st.sampled_from(("one row", "default", "wide")), label="layout")
    if layout == "wide":
        n = 100 if kernel == "gather" else 8200
        elements = 3 * (n * n if kernel == "gather" else 4 << (n - 1).bit_length())
    else:
        n = data.draw(st.sampled_from((3, 7, 20, 33, 107, 108, 150)), label="n")
        elements = 1 if layout == "one row" else ustats._SWEEP_ELEMENTS
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    sample = random_paired_sample(rng, n, ties=data.draw(st.booleans(), label="ties"))
    count = data.draw(st.integers(2, 12), label="rows")
    perms = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(count - 1)])
    split = data.draw(st.integers(1, count - 1), label="split")
    shift = data.draw(st.integers(1, min(3, count - 1)), label="shift")
    with mock.patch.multiple(ustats, _SORT_MIN_N=KERNELS[kernel], _SWEEP_ELEMENTS=elements):
        observed, bundle = ustats._sweep(*ustats._unit(sample))
        whole = _row_bits(bundle(perms), count)
        alone = [_row_bits(bundle(perm[None]), 1) for perm in perms]
        halves = [_row_bits(bundle(block), len(block)) for block in (perms[:split], perms[split:])]
        shifted = _row_bits(ustats.permutation_bundles(sample, perms[shift:]), count - shift)
    assert np.array_equal(np.concatenate(alone), whole)
    assert np.array_equal(np.concatenate(halves), whole)
    assert np.array_equal(shifted, whole[shift:])
    assert np.array_equal(_row_bits(observed, 1)[0], whole[0])


_THREADED_SWEEP = (
    "import json, sys\n"
    "import numpy as np\n"
    "from kappacov import FamilySpec, SeedSpec, rho_estimates, sample_family, ustats\n"
    "n = int(sys.argv[1])\n"
    "sample = sample_family(FamilySpec('normal', 0.5), n, SeedSpec(n))\n"
    "perms = np.array([np.random.default_rng(k).permutation(n) for k in range(3)])\n"
    "bundles = (ustats.compute_ustats(sample), ustats.permutation_bundles(sample, perms))\n"
    "bits = [[float(v).hex() for v in np.atleast_1d(getattr(b, f))] for b in bundles for f in sys.argv[2:]]\n"
    "rho = rho_estimates(sample)\n"
    "print(json.dumps(bits + [rho.rho_hat.hex(), rho.rho_tilde.hex()]))\n"
)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
def test_sweep_bits_do_not_depend_on_blas_threads():
    # From n = 11664 on, OpenBLAS splits a long vector product over its
    # threads; neither the sweep nor rho's self-bundles make one, so the
    # observed bundle, the permuted ones and rho keep their bits at one BLAS
    # thread and at two.
    import kappacov

    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(kappacov.__file__))
        child = subprocess.run(
            [sys.executable, "-c", _THREADED_SWEEP, "12000", *FIELDS],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        outputs.append(json.loads(child.stdout.splitlines()[-1]))
    assert outputs[0] == outputs[1]


def test_permutation_sweep_needs_three_observations():
    sample = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    for cut in KERNELS.values():
        with mock.patch.object(ustats, "_SORT_MIN_N", cut), pytest.raises(SampleTooSmall):
            ustats.permutation_bundles(sample, np.array([[0, 1]]))
