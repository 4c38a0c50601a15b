"""Squared-distance covariance estimation and independence testing.

The central quantity is a nonnegative covariance between two real
random variables that is zero exactly when they are independent; it
equals the integrated squared gap between the joint distribution
function and the product of its marginals.  The package provides three
sample estimators from one pairwise engine and their plug-in variance,
closed-form population curves for the normal and exponential families
with a quadrature cross-check, the kernel eigenvalue machinery behind
the weighted chi-square null limit, samplers for six dependent
bivariate families, permutation and asymptotic independence tests,
and the power, normality, and timing studies built on them, all behind
a ``kappacov`` command-line interface.

This namespace exports what those workflows use.  The test oracles
(brute-force and direct sums, the dense eigensolver, quadrature, the
simulated null limit) and the engine's internals stay importable from
their own modules.

The namespace is lazy (PEP 562): ``import kappacov`` loads none of the
modules, hence not numpy, and a name loads its module when it is first
used.  So ``kappacov.cli.run`` can set the BLAS thread count before
numpy starts.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, grouped by the module that defines it.
_EXPORTS = {
    "core": ("FAMILIES", "FamilySpec", "PairedSample", "SeedSpec", "load_sample", "write_sample"),
    "errors": (
        "AllValuesEqual",
        "DegenerateGrid",
        "DegenerateMarginal",
        "DomainError",
        "EmptySpectrum",
        "InvalidSample",
        "KappaCovError",
        "NonMonotoneQuantile",
        "NOnPositive",
        "ParseError",
        "SampleIOError",
        "SampleTooSmall",
        "ThetaOutOfRange",
        "TooFewRows",
        "UnknownEstimator",
        "UnsupportedFamily",
    ),
    "ustats": ("UStatBundle", "compute_ustats"),
    "estimators": (
        "KappaEstimates",
        "RhoEstimates",
        "delta1_plugin",
        "estimate",
        "kappa_hat",
        "kappa_star",
        "kappa_tilde",
        "rho_estimates",
    ),
    "closedform": ("kappa_bvn", "kappa_gbed", "population_kappa"),
    "spectral": (
        "DiscreteMarginal",
        "EigenSpectrum",
        "discretize_marginal",
        "empirical_marginal",
        "kernel_eigenvalues",
        "null_tail",
    ),
    "samplers": ("marginal_quantile", "sample_family"),
    "inference": (
        "NormalityReport",
        "NormalityRow",
        "PowerCell",
        "PowerReport",
        "TestResult",
        "TimingReport",
        "independence_test",
        "normality_diagnostic",
        "power_study",
        "timing_benchmark",
    ),
    "cli": ("run",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import an exported name's module, or a submodule, on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
