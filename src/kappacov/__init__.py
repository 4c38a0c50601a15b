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
"""

from .core import (
    FAMILIES,
    FamilySpec,
    PairedSample,
    SeedSpec,
    load_sample,
    write_sample,
)
from .errors import (
    AllValuesEqual,
    DegenerateGrid,
    DegenerateMarginal,
    DomainError,
    EmptySpectrum,
    InvalidSample,
    KappaCovError,
    NonMonotoneQuantile,
    NOnPositive,
    ParseError,
    SampleIOError,
    SampleTooSmall,
    ThetaOutOfRange,
    TooFewRows,
    UnknownEstimator,
    UnsupportedFamily,
)
from .ustats import UStatBundle, compute_ustats
from .estimators import (
    KappaEstimates,
    RhoEstimates,
    delta1_plugin,
    estimate,
    kappa_hat,
    kappa_star,
    kappa_tilde,
    rho_estimates,
)
from .closedform import kappa_bvn, kappa_gbed, population_kappa
from .spectral import (
    DiscreteMarginal,
    EigenSpectrum,
    discretize_marginal,
    empirical_marginal,
    kernel_eigenvalues,
    null_tail,
)
from .samplers import marginal_quantile, sample_family
from .inference import (
    NormalityReport,
    NormalityRow,
    PowerCell,
    PowerReport,
    TestResult,
    TimingReport,
    independence_test,
    normality_diagnostic,
    power_study,
    timing_benchmark,
)
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FAMILIES",
    "FamilySpec",
    "PairedSample",
    "SeedSpec",
    "load_sample",
    "write_sample",
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
    "UStatBundle",
    "compute_ustats",
    "KappaEstimates",
    "RhoEstimates",
    "delta1_plugin",
    "estimate",
    "kappa_hat",
    "kappa_star",
    "kappa_tilde",
    "rho_estimates",
    "kappa_bvn",
    "kappa_gbed",
    "population_kappa",
    "DiscreteMarginal",
    "EigenSpectrum",
    "discretize_marginal",
    "empirical_marginal",
    "kernel_eigenvalues",
    "null_tail",
    "marginal_quantile",
    "sample_family",
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
    "run",
]
