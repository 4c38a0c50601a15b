"""Sample container, family descriptors, deterministic seeding, and CSV I/O.

All estimators operate on a :class:`PairedSample` of two equal-length
float vectors.  All randomness flows through :class:`SeedSpec`, which
derives decorrelated generator streams from a single master seed, so any
replicate of any experiment can be reproduced in isolation and results
do not depend on how work is scheduled across workers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidSample,
    ParseError,
    SampleIOError,
    ThetaOutOfRange,
    TooFewRows,
    UnsupportedFamily,
)

__all__ = [
    "SeedSpec",
    "substream",
    "PairedSample",
    "FamilySpec",
    "FAMILIES",
    "FAMILY_THETA_RANGES",
    "load_sample",
    "write_sample",
]


@dataclass(frozen=True)
class SeedSpec:
    """Address of one reproducible random stream.

    ``master_seed`` selects the experiment and ``stream_index`` selects
    one of the decorrelated substreams within it.  Streams with distinct
    indices are statistically independent, so parallel replicates can
    each own an index and aggregate results are invariant to worker
    count and scheduling order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise DomainError(f"{name} must be nonnegative, got {value}")
            object.__setattr__(self, name, int(value))

    def with_stream(self, stream_index: int) -> "SeedSpec":
        """Same master seed, different substream."""
        return SeedSpec(self.master_seed, stream_index)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return substream(self.master_seed, self.stream_index)


def substream(master_seed: int, stream_index: int) -> np.random.Generator:
    """Return the generator for one derived stream of a master seed.

    The mapping ``(master_seed, stream_index) -> stream`` is pure:
    repeated calls give generators that produce identical sequences.
    """
    spec = SeedSpec(master_seed, stream_index)
    seq = np.random.SeedSequence(spec.master_seed, spawn_key=(spec.stream_index,))
    return np.random.default_rng(seq)


@dataclass(frozen=True, eq=False)
class PairedSample:
    """Immutable pair of equal-length one-dimensional float vectors.

    Both arrays are copied on construction, coerced to float64, and
    marked read-only.  All entries must be finite.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        for name in ("xs", "ys"):
            try:
                arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            except (TypeError, ValueError) as exc:
                raise InvalidSample(f"{name} is not numeric: {exc}") from exc
            if arr.ndim != 1:
                raise InvalidSample(f"{name} must be one-dimensional, got shape {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidSample(f"{name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.xs.shape[0] != self.ys.shape[0]:
            raise InvalidSample(
                f"xs and ys must have equal length, got {self.xs.shape[0]} and {self.ys.shape[0]}"
            )
        if self.xs.shape[0] < 2:
            raise InvalidSample("sample must contain at least two pairs")

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    def swapped(self) -> "PairedSample":
        """The same sample with the coordinate roles exchanged."""
        return PairedSample(self.ys, self.xs)


FAMILY_THETA_RANGES: dict[str, tuple[float, float]] = {
    "normal": (-1.0, 1.0),
    "uniform": (-1.0, 1.0),
    "exponential": (0.0, 1.0),
    "laplace": (-1.0, 1.0),
    "logistic": (-1.0, 1.0),
    "chisquare": (-1.0, 1.0),
}

FAMILIES: tuple[str, ...] = tuple(FAMILY_THETA_RANGES)


@dataclass(frozen=True)
class FamilySpec:
    """One bivariate family together with its dependence parameter.

    ``theta`` ranges over ``[-1, 1]`` except for the exponential family,
    where it ranges over ``[0, 1]``.  The marginal scales ``sigma1`` and
    ``sigma2`` are meaningful for the normal family only; every other
    family has fixed standard marginals.
    """

    family: str
    theta: float
    sigma1: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILY_THETA_RANGES:
            raise UnsupportedFamily(
                f"unknown family {self.family!r}; choose one of {', '.join(FAMILIES)}"
            )
        theta = float(self.theta)
        lo, hi = FAMILY_THETA_RANGES[self.family]
        if not (lo <= theta <= hi):
            raise ThetaOutOfRange(
                f"family {self.family!r} requires theta in [{lo:g}, {hi:g}], got {self.theta!r}"
            )
        object.__setattr__(self, "theta", theta)
        s1, s2 = float(self.sigma1), float(self.sigma2)
        if self.family == "normal":
            if not (math.isfinite(s1) and s1 > 0 and math.isfinite(s2) and s2 > 0):
                raise DomainError("sigma1 and sigma2 must be positive and finite")
        elif (s1, s2) != (1.0, 1.0):
            raise DomainError("sigma1 and sigma2 apply to the normal family only")
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "sigma2", s2)


def _parse_field(text: str, row: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"row {row}: not a number: {text!r}", row=row) from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}: non-finite value: {text!r}", row=row)
    return value


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_sample(path) -> PairedSample:
    """Read a two-column CSV of paired observations.

    The first physical row is treated as a header when it has two fields
    and either of them does not parse as a number.  Data rows are
    numbered from 1 with the header excluded; that number is attached to
    any :class:`ParseError`.  NaN and infinity tokens are rejected.

    Raises
    ------
    SampleIOError
        The file cannot be opened or read.
    ParseError
        A row has the wrong number of fields or a non-numeric or
        non-finite field.
    TooFewRows
        Fewer than two data rows are present.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8") as handle:
            raw = list(csv.reader(handle))
    except OSError as exc:
        raise SampleIOError(f"cannot read {path}: {exc}") from exc

    rows = [row for row in raw if row and any(field.strip() for field in row)]
    if rows and len(rows[0]) == 2 and not all(_looks_numeric(f) for f in rows[0]):
        rows = rows[1:]

    xs: list[float] = []
    ys: list[float] = []
    for index, row in enumerate(rows, start=1):
        if len(row) != 2:
            raise ParseError(
                f"row {index}: expected 2 fields, got {len(row)}", row=index
            )
        xs.append(_parse_field(row[0], index))
        ys.append(_parse_field(row[1], index))

    if len(xs) < 2:
        raise TooFewRows(f"need at least 2 data rows, found {len(xs)}")
    return PairedSample(np.asarray(xs), np.asarray(ys))


def write_sample(path, sample: PairedSample) -> None:
    """Write a sample as CSV with 17 significant digits per value.

    Seventeen significant digits are enough to reproduce any float64
    exactly, so ``load_sample(write_sample(...))`` round-trips bit for
    bit.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            for x, y in zip(sample.xs, sample.ys):
                writer.writerow([format(x, ".17g"), format(y, ".17g")])
    except OSError as exc:
        raise SampleIOError(f"cannot write {path}: {exc}") from exc
