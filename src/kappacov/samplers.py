"""Dependent bivariate samplers for the six built-in families.

Each family is parameterized by a single association value theta and
fixes its marginals:

normal
    Means zero, scales sigma1/sigma2, correlation theta.
uniform
    Both coordinates Uniform(0,1).  theta = 1 gives ys == xs and
    theta = -1 gives ys == 1 - xs exactly; otherwise the second
    coordinate folds a Beta(alpha, 1) draw around the first, with the
    shape alpha = ((49 + theta) / (1 + theta))**0.5 / 2 - 5/2 tuned so
    the pair's correlation is theta.
exponential
    Standard exponential marginals with joint survival
    exp(-x - y - theta*x*y), theta in [0, 1].  The second coordinate is
    drawn from the exact conditional density, which given X = x is the
    mixture ((a - theta)/a) * Exp(a) + (theta/a) * Gamma(2, a) with
    a = 1 + theta*x.
laplace
    sqrt(W) times a correlated standard normal pair, W ~ Exp(1).  The
    marginals are Laplace with scale 1/sqrt(2) (unit variance).
logistic
    Logits of a correlated uniform pair.
chisquare
    Squares of a correlated standard normal pair; one degree of
    freedom each, correlation theta**2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .core import FamilySpec, PairedSample, SeedSpec
from .errors import DomainError, NOnPositive

__all__ = ["sample_family", "marginal_quantile"]

_LAPLACE_SCALE = 1.0 / math.sqrt(2.0)


def _correlated_uniforms(
    theta: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    xs = rng.random(n)
    if theta == 1.0:
        return xs, xs.copy()
    if theta == -1.0:
        return xs, 1.0 - xs
    alpha = 0.5 * (math.sqrt((49.0 + theta) / (1.0 + theta)) - 5.0)
    w = rng.random(n) ** (1.0 / alpha)
    fold = rng.random(n) < 0.5
    ys = np.where(fold, np.abs(w - xs), 1.0 - np.abs(1.0 - w - xs))
    return xs, ys


def _interior_uniforms(
    theta: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    # Redraw the measure-zero boundary hits so logits stay finite.
    xs, ys = _correlated_uniforms(theta, n, rng)
    bad = (xs <= 0.0) | (xs >= 1.0) | (ys <= 0.0) | (ys >= 1.0)
    while bad.any():
        redo_x, redo_y = _correlated_uniforms(theta, int(bad.sum()), rng)
        xs[bad] = redo_x
        ys[bad] = redo_y
        bad = (xs <= 0.0) | (xs >= 1.0) | (ys <= 0.0) | (ys >= 1.0)
    return xs, ys


def _correlated_normals(
    theta: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return z1, theta * z1 + math.sqrt(1.0 - theta * theta) * z2


def _draw(spec: FamilySpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    theta = spec.theta
    if spec.family == "normal":
        z1, z2 = _correlated_normals(theta, n, rng)
        return spec.sigma1 * z1, spec.sigma2 * z2
    if spec.family == "uniform":
        return _correlated_uniforms(theta, n, rng)
    if spec.family == "exponential":
        xs = rng.standard_exponential(n)
        a = 1.0 + theta * xs
        u = rng.random(n)
        first = rng.standard_exponential(n)
        second = rng.standard_exponential(n)
        # Mixture weights (a - theta)/a for Exp(a), theta/a for Gamma(2, a).
        ys = (first + np.where(u * a >= a - theta, second, 0.0)) / a
        return xs, ys
    if spec.family == "laplace":
        z1, z2 = _correlated_normals(theta, n, rng)
        root_w = np.sqrt(rng.standard_exponential(n))
        return root_w * z1, root_w * z2
    if spec.family == "logistic":
        us, vs = _interior_uniforms(theta, n, rng)
        return np.log(us) - np.log1p(-us), np.log(vs) - np.log1p(-vs)
    if spec.family == "chisquare":
        z1, z2 = _correlated_normals(theta, n, rng)
        return z1 * z1, z2 * z2
    raise AssertionError(f"unreachable family {spec.family!r}")


def sample_family(spec: FamilySpec, n: int, seed: SeedSpec) -> PairedSample:
    """n i.i.d. pairs from the given family, deterministic under seed."""
    n = int(n)
    if n < 1:
        raise NOnPositive(f"sample size must be positive, got {n}")
    xs, ys = _draw(spec, n, seed.generator())
    return PairedSample(xs, ys)


def marginal_quantile(spec: FamilySpec, coordinate: str, u: float) -> float:
    """Inverse CDF of one coordinate's marginal at level u in (0, 1)."""
    if coordinate not in ("x", "y"):
        raise DomainError(f"coordinate must be 'x' or 'y', got {coordinate!r}")
    u = float(u)
    if not (0.0 < u < 1.0):
        raise DomainError(f"quantile level must lie strictly in (0, 1), got {u!r}")
    family = spec.family
    if family == "normal":
        scale = spec.sigma1 if coordinate == "x" else spec.sigma2
        return scale * float(special.ndtri(u))
    if family == "uniform":
        return u
    if family == "exponential":
        return -math.log1p(-u)
    if family == "laplace":
        if u < 0.5:
            return _LAPLACE_SCALE * math.log(2.0 * u)
        return -_LAPLACE_SCALE * math.log(2.0 * (1.0 - u))
    if family == "logistic":
        return math.log(u) - math.log1p(-u)
    if family == "chisquare":
        z = float(special.ndtri(0.5 * (1.0 + u)))
        return z * z
    raise AssertionError(f"unreachable family {family!r}")
