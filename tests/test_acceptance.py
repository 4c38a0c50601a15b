"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in the captured output of a failure).  Criterion 5 runs the full
1000-replicate protocol by default; set ``KAPPACOV_ACCEPTANCE_FAST=1``
to use the 250-replicate mode with its wider tolerance.
"""

import math
import os
import time

import numpy as np
import scipy.stats as sps

from kappacov import (
    FAMILIES,
    DiscreteMarginal,
    FamilySpec,
    SeedSpec,
    compute_ustats,
    discretize_marginal,
    kappa_bvn,
    kappa_gbed,
    kappa_hat,
    kappa_tilde,
    kernel_eigenvalues,
    marginal_quantile,
    normality_diagnostic,
    power_study,
    sample_family,
    timing_benchmark,
)
from kappacov.closedform import (
    kappa_bvn_second_derivative,
    kappa_gbed_derivative,
    kappa_quadrature_oracle,
)
from kappacov.estimators import (
    kappa_hat_direct,
    kappa_tilde_direct,
    kappa_trio,
    statistic_scale,
)
from kappacov.spectral import dense_kernel_eigenvalues, null_limit_model
from kappacov.ustats import compute_ustats_bruteforce
from conftest import THETA_RANGE, rel_err

FAST_MODE = os.environ.get("KAPPACOV_ACCEPTANCE_FAST", "") not in ("", "0")


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_estimator_relations():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for index in range(200):
        family = FAMILIES[index % len(FAMILIES)]
        lo, hi = THETA_RANGE[family]
        theta = float(rng.uniform(lo, hi))
        n = int(rng.integers(3, 61))
        sample = sample_family(FamilySpec(family, theta), n, SeedSpec(int(rng.integers(1 << 62))))
        bundle = compute_ustats(sample)
        floor = statistic_scale(bundle)
        worst = max(
            worst,
            rel_err(kappa_tilde(bundle), kappa_tilde_direct(sample), floor),
            rel_err(kappa_hat(bundle), kappa_hat_direct(sample), floor),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(
        "criterion 1, exact estimator relations",
        ok,
        f"max rel err {worst:.3e} over 200 samples, {elapsed:.1f}s",
    )


def test_criterion_2_pairwise_mean_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for index in range(50):
        family = FAMILIES[index % len(FAMILIES)]
        lo, hi = THETA_RANGE[family]
        theta = float(rng.uniform(lo, hi))
        n = int(rng.integers(3, 31))
        sample = sample_family(FamilySpec(family, theta), n, SeedSpec(int(rng.integers(1 << 62))))
        fast = compute_ustats(sample)
        slow = compute_ustats_bruteforce(sample)
        for field in ("u1", "u2", "u12", "u3", "v1", "v2", "v12", "v3"):
            worst = max(worst, rel_err(getattr(fast, field), getattr(slow, field)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(
        "criterion 2, brute-force oracle for the pairwise means",
        ok,
        f"max rel err {worst:.3e} over 50 samples, {elapsed:.1f}s",
    )


def test_criterion_3_spectral_solver():
    start = time.perf_counter()
    uniform = discretize_marginal(lambda u: u, 1000)
    spectrum = kernel_eigenvalues(uniform, 999)
    top_err = max(
        rel_err(float(spectrum.lambdas[k - 1]), 1.0 / (k * math.pi) ** 2) for k in range(1, 11)
    )
    trace_err = rel_err(spectrum.total, 1.0 / 6.0)

    rng = np.random.default_rng(33)
    pair_err = 0.0
    for t in (60, 120, 200):
        points = np.sort(rng.normal(size=t) * rng.uniform(0.5, 2.0))
        probs = rng.dirichlet(np.full(t, 1.5))
        marginal = DiscreteMarginal(points, probs / probs.sum())
        fast = kernel_eigenvalues(marginal, 20)
        dense = dense_kernel_eigenvalues(marginal, 20)
        m = min(20, fast.k, dense.k)
        pair_err = max(
            pair_err,
            float(np.max(np.abs(fast.lambdas[:m] / dense.lambdas[:m] - 1.0))),
        )
    elapsed = time.perf_counter() - start
    ok = top_err <= 0.01 and trace_err <= 0.005 and pair_err <= 1e-8 and elapsed < 30.0
    _verdict(
        "criterion 3, kernel spectrum",
        ok,
        f"uniform top-10 err {top_err:.2e}, trace err {trace_err:.2e}, "
        f"tridiagonal-vs-dense err {pair_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_null_distribution_agreement():
    start = time.perf_counter()
    n, replicates = 500, 1000
    spec = FamilySpec("normal", 0.0)
    scaled_tilde = np.empty(replicates)
    scaled_hat = np.empty(replicates)
    for r in range(replicates):
        sample = sample_family(spec, n, SeedSpec(404, r))
        _, tilde, hat = kappa_trio(compute_ustats(sample))
        scaled_tilde[r] = n * tilde
        scaled_hat[r] = n * hat
    marginal = discretize_marginal(lambda u: marginal_quantile(spec, "x", u), 1000)
    lam = kernel_eigenvalues(marginal, 100)
    centered = null_limit_model(lam, lam, k=100, r=100_000, seed=SeedSpec(405), centered=True)
    uncentered = null_limit_model(lam, lam, k=100, r=100_000, seed=SeedSpec(406), centered=False)
    ks_tilde = float(sps.ks_2samp(scaled_tilde, centered.draws).statistic)
    ks_hat = float(sps.ks_2samp(scaled_hat, uncentered.draws).statistic)
    elapsed = time.perf_counter() - start
    ok = ks_tilde <= 0.06 and ks_hat <= 0.06
    _verdict(
        "criterion 4, simulated null vs weighted chi-square limit",
        ok,
        f"KS(centered) {ks_tilde:.4f}, KS(uncentered) {ks_hat:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_rejection_rate_table():
    start = time.perf_counter()
    replicates, tolerance = (250, 0.09) if FAST_MODE else (1000, 0.05)
    grid = [
        FamilySpec("normal", 0.0),
        FamilySpec("normal", 0.25),
        FamilySpec("normal", 0.5),
        FamilySpec("chisquare", 0.5),
    ]
    report = power_study(
        grid, n=100, replicates=replicates, alpha=0.05, method="permutation",
        b_or_r=199, seed=SeedSpec(2027), threads=0,
    )
    targets = [
        ("normal", 0.0, "star", 0.06),
        ("normal", 0.25, "star", 0.66),
        ("normal", 0.5, "star", 1.00),
        ("chisquare", 0.5, "star", 0.64),
        ("chisquare", 0.5, "tilde", 0.56),
    ]
    ok = True
    details = []
    for family, theta, estimator, target in targets:
        power = report.power_for(family, theta, estimator).power
        good = abs(power - target) <= tolerance
        ok = ok and good
        details.append(f"{family} theta={theta} {estimator}: {power:.3f} vs {target:.2f}")
        print(f"  table cell {details[-1]}{'' if good else '  <-- out of band'}", flush=True)
    elapsed = time.perf_counter() - start
    mode = "fast" if FAST_MODE else "full"
    _verdict(
        "criterion 5, rejection-rate table",
        ok,
        f"{mode} mode, {replicates} replicates, tolerance {tolerance}, {elapsed:.0f}s",
    )


def test_criterion_6_closed_forms_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
        worst = max(
            worst,
            rel_err(kappa_bvn(theta), kappa_quadrature_oracle(FamilySpec("normal", theta))),
            rel_err(kappa_gbed(theta), kappa_quadrature_oracle(FamilySpec("exponential", theta))),
        )
    zero_exact = kappa_bvn(0.0) == 0.0 and kappa_gbed(0.0) == 0.0
    grid = np.linspace(-0.999, 0.999, 101)
    convex = all(kappa_bvn_second_derivative(float(t)) >= 0.0 for t in grid)
    increasing = all(kappa_gbed_derivative(float(t)) > 0.0 for t in np.linspace(0.001, 1.0, 101))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and zero_exact and convex and increasing and elapsed < 60.0
    _verdict(
        "criterion 6, closed forms vs quadrature oracle",
        ok,
        f"max rel err {worst:.2e}, zero-at-zero {zero_exact}, convex {convex}, "
        f"increasing {increasing}, {elapsed:.1f}s",
    )


def test_criterion_7_standardized_estimates_are_normal():
    start = time.perf_counter()
    report = normality_diagnostic(
        FamilySpec("normal", 0.5), n_grid=(400,), replicates=1000, seed=SeedSpec(707)
    )
    ok = True
    details = []
    for estimator in ("star", "tilde", "hat"):
        row = report.row_for(estimator, 400)
        good = abs(row.mean) <= 0.12 and 0.8 <= row.variance <= 1.2
        ok = ok and good
        details.append(f"{estimator}: mean {row.mean:+.3f}, var {row.variance:.3f}")
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 7, standardized sampling distribution",
        ok,
        "; ".join(details) + f", {elapsed:.0f}s",
    )


def test_criterion_8_vstat_bias_decays():
    start = time.perf_counter()
    theta, replicates = 0.5, 2000
    kappa0 = kappa_gbed(theta)
    spec = FamilySpec("exponential", theta)
    biases = {}
    for n in (10, 500):
        total = 0.0
        for r in range(replicates):
            sample = sample_family(spec, n, SeedSpec(808 + n, r))
            total += kappa_hat(compute_ustats(sample))
        biases[n] = total / replicates - kappa0
    elapsed = time.perf_counter() - start
    ok = biases[10] > 0.0 and abs(biases[500]) < abs(biases[10]) / 3.0
    _verdict(
        "criterion 8, plug-in bias shrinks with n",
        ok,
        f"bias(n=10) {biases[10]:+.5f}, bias(n=500) {biases[500]:+.6f}, {elapsed:.0f}s",
    )


def test_criterion_9_estimator_cost_scales_quadratically():
    base = timing_benchmark(("star",), n=100, evals=100, repetitions=5, seed=SeedSpec(909))[0]
    double = timing_benchmark(("star",), n=200, evals=100, repetitions=5, seed=SeedSpec(909))[0]
    ratio = double.mean_seconds / base.mean_seconds
    ok = base.mean_seconds < 1.0 and 2.5 <= ratio <= 6.0
    _verdict(
        "criterion 9, quadratic runtime scaling",
        ok,
        f"100 evals at n=100 take {base.mean_seconds:.4f}s, n=200/n=100 ratio {ratio:.2f}",
    )
