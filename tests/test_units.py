"""Tests for repro.units parsing and formatting."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.units import GiB, GB, KiB, MiB, parse_bandwidth, parse_size


class TestParseSize:
    def test_plain_int(self):
        assert parse_size(4096) == 4096

    def test_plain_string(self):
        assert parse_size("512") == 512

    def test_binary_units(self):
        assert parse_size("2KiB") == 2 * KiB
        assert parse_size("3MiB") == 3 * MiB
        assert parse_size("1GiB") == GiB

    def test_decimal_units(self):
        assert parse_size("40GB") == 40 * GB
        assert parse_size("8kb") == 8000

    def test_short_suffixes_are_binary(self):
        assert parse_size("4K") == 4 * KiB
        assert parse_size("2m") == 2 * MiB

    def test_fractional(self):
        assert parse_size("1.5KiB") == 1536

    def test_whitespace(self):
        assert parse_size(" 2 MiB ") == 2 * MiB

    def test_bad_suffix(self):
        with pytest.raises(ValueError):
            parse_size("5parsecs")

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_size("MiB5")


class TestParseBandwidth:
    def test_gb_per_s(self):
        assert parse_bandwidth("30GB/s") == pytest.approx(30.0)  # bytes/ns

    def test_mb_per_ms(self):
        assert parse_bandwidth("1MB/ms") == pytest.approx(1.0)

    def test_float_passthrough(self):
        assert parse_bandwidth(2.5) == 2.5

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            parse_bandwidth("30GB/fortnight")


@given(st.integers(min_value=0, max_value=10**15))
def test_parse_size_roundtrips_plain_ints(n):
    assert parse_size(str(n)) == n


@given(
    st.floats(min_value=0.001, max_value=999.0),
    st.sampled_from(["KiB", "MiB", "GiB", "KB", "MB", "GB"]),
)
def test_parse_size_matches_multiplication(value, suffix):
    mult = getattr(units, suffix)
    assert parse_size(f"{value}{suffix}") == int(value * mult)
