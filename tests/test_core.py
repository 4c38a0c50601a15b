"""Core types, seeding, and CSV handling."""

import numpy as np
import pytest

from kappacov import (
    DomainError,
    FamilySpec,
    InvalidSample,
    PairedSample,
    ParseError,
    SampleIOError,
    SeedSpec,
    ThetaOutOfRange,
    TooFewRows,
    UnsupportedFamily,
    load_sample,
    write_sample,
)
from kappacov.core import substream


def test_seedspec_generator_is_reproducible():
    a = SeedSpec(42).generator().random(8)
    b = SeedSpec(42).generator().random(8)
    assert np.array_equal(a, b)


def test_seedspec_streams_are_distinct():
    base = SeedSpec(42).generator().random(8)
    other = SeedSpec(42).with_stream(1).generator().random(8)
    assert not np.array_equal(base, other)
    assert SeedSpec(42, 3).with_stream(7) == SeedSpec(42, 7)


def test_substream_matches_seedspec():
    a = substream(123, 4).random(6)
    b = SeedSpec(123, 4).generator().random(6)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("master,stream", [(-1, 0), (0, -2), (1.5, 0), ("7", 0)])
def test_seedspec_rejects_bad_fields(master, stream):
    with pytest.raises(DomainError):
        SeedSpec(master, stream)


def test_paired_sample_basics():
    sample = PairedSample(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    assert sample.n == 3
    flipped = sample.swapped()
    assert np.array_equal(flipped.xs, sample.ys)
    assert np.array_equal(flipped.ys, sample.xs)


def test_paired_sample_rejects_singletons():
    with pytest.raises(InvalidSample):
        PairedSample(np.array([1.0]), np.array([2.0]))


def test_paired_sample_rejects_length_mismatch():
    with pytest.raises(InvalidSample):
        PairedSample(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_paired_sample_rejects_nonfinite():
    with pytest.raises(InvalidSample):
        PairedSample(np.array([1.0, np.nan, 2.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidSample):
        PairedSample(np.array([1.0, 2.0]), np.array([np.inf, 0.0]))


def test_paired_sample_rejects_wrong_shape_and_type():
    with pytest.raises(InvalidSample):
        PairedSample(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(InvalidSample):
        PairedSample(np.array(["a", "b"]), np.array([1.0, 2.0]))


def test_family_spec_accepts_full_theta_ranges():
    for family in ("normal", "uniform", "laplace", "logistic", "chisquare"):
        FamilySpec(family, -1.0)
        FamilySpec(family, 1.0)
    FamilySpec("exponential", 0.0)
    FamilySpec("exponential", 1.0)


def test_family_spec_rejects_out_of_range_theta():
    with pytest.raises(ThetaOutOfRange):
        FamilySpec("normal", 1.0001)
    with pytest.raises(ThetaOutOfRange):
        FamilySpec("exponential", -0.0001)
    with pytest.raises(ThetaOutOfRange):
        FamilySpec("exponential", 1.5)
    with pytest.raises(ThetaOutOfRange):
        FamilySpec("uniform", float("nan"))


def test_family_spec_rejects_unknown_family():
    with pytest.raises(UnsupportedFamily):
        FamilySpec("cauchy", 0.3)


def test_family_spec_sigma_rules():
    spec = FamilySpec("normal", 0.5, sigma1=2.0, sigma2=0.5)
    assert spec.sigma1 == 2.0 and spec.sigma2 == 0.5
    with pytest.raises(DomainError):
        FamilySpec("normal", 0.5, sigma1=0.0)
    with pytest.raises(DomainError):
        FamilySpec("normal", 0.5, sigma2=-1.0)
    with pytest.raises(DomainError):
        FamilySpec("uniform", 0.5, sigma1=2.0)


def test_write_then_load_round_trips_bit_for_bit(tmp_path, rng):
    sample = PairedSample(rng.normal(size=25), rng.normal(size=25) * 1e-7)
    path = tmp_path / "sample.csv"
    write_sample(path, sample)
    loaded = load_sample(path)
    assert np.array_equal(loaded.xs, sample.xs)
    assert np.array_equal(loaded.ys, sample.ys)


def test_load_sample_without_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("1.5,2.5\n3.25,4.75\n")
    sample = load_sample(path)
    assert sample.n == 2
    assert sample.xs[1] == 3.25


def test_load_sample_with_byte_order_mark(tmp_path):
    # Spreadsheet exports often begin with a BOM; it must not turn the
    # first data row into a header.
    bare = tmp_path / "bom.csv"
    bare.write_text("\ufeff1,2\n3,4\n5,6\n7,8\n", encoding="utf-8")
    sample = load_sample(bare)
    assert sample.n == 4
    assert sample.xs[0] == 1.0
    headed = tmp_path / "bom_header.csv"
    headed.write_text("\ufeffx,y\n1,2\n3,4\n", encoding="utf-8")
    assert np.array_equal(load_sample(headed).xs, [1.0, 3.0])


def test_load_sample_skips_blank_lines(tmp_path):
    path = tmp_path / "blanks.csv"
    path.write_text("x,y\n\n1,2\n\n3,4\n")
    assert load_sample(path).n == 2


def test_load_sample_reports_bad_row_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\noops,4\n")
    with pytest.raises(ParseError) as excinfo:
        load_sample(path)
    assert excinfo.value.row == 2


def test_load_sample_rejects_nonfinite_tokens(tmp_path):
    path = tmp_path / "naninf.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(ParseError):
        load_sample(path)


def test_load_sample_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("1,2\n3,4,5\n")
    with pytest.raises(ParseError) as excinfo:
        load_sample(path)
    assert excinfo.value.row == 2


def test_load_sample_too_few_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(TooFewRows):
        load_sample(path)


def test_load_sample_missing_file(tmp_path):
    with pytest.raises(SampleIOError):
        load_sample(tmp_path / "absent.csv")


def test_write_sample_unwritable_path(tmp_path):
    sample = PairedSample(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(SampleIOError):
        write_sample(tmp_path / "no" / "such" / "dir.csv", sample)
