"""Shared helpers for the test suite."""

import numpy as np
import pytest

from kappacov import FAMILIES, FamilySpec, PairedSample
from kappacov.core import FAMILY_THETA_RANGES

# Dependence parameter range per family, the one FamilySpec validates against.
THETA_RANGE = FAMILY_THETA_RANGES


def random_spec(rng: np.random.Generator) -> FamilySpec:
    """A uniformly chosen family with an interior dependence parameter."""
    family = FAMILIES[rng.integers(len(FAMILIES))]
    lo, hi = THETA_RANGE[family]
    theta = float(rng.uniform(lo + 0.05, hi - 0.05))
    return FamilySpec(family, theta)


def random_paired_sample(rng: np.random.Generator, n: int, ties: bool = False) -> PairedSample:
    """Raw arrays, optionally rounded to force ties in both coordinates."""
    xs = rng.normal(size=n) * rng.uniform(0.5, 3.0)
    ys = rng.normal(size=n) + 0.5 * xs
    if ties:
        xs = np.round(xs, 1)
        ys = np.round(ys, 1)
    return PairedSample(xs, ys)


def rel_err(a: float, b: float, floor: float = 0.0) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
