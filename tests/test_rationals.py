"""Wire-format rational parsing and formatting."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conecalc.errors import InputError
from conecalc.rationals import (
    format_rational,
    parse_bool,
    parse_coords,
    parse_int,
    parse_rational,
)


def test_parse_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(5) == 5
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_normalizes():
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational("-0") == 0


@pytest.mark.parametrize(
    "bad",
    ["1/0", "0.5", "1e3", "", "one", None, 1.5, True, [1], "1/2/3"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_format_canonical():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(0) == "0"


@given(st.fractions())
def test_round_trip(value):
    # denominator always positive, gcd cleared, integers printed bare
    text = format_rational(value)
    assert parse_rational(text) == value
    if value.denominator == 1:
        assert "/" not in text
    else:
        assert text.split("/")[1].lstrip("-") == text.split("/")[1]


def test_strict_int_and_bool():
    assert parse_int(-3) == -3
    assert parse_bool(False) is False
    for bad in (2.9, 3.0, True, "2", None, Fraction(2)):
        with pytest.raises(InputError):
            parse_int(bad)
    for bad in ("false", 0, 1, None):
        with pytest.raises(InputError):
            parse_bool(bad)


def test_strict_coordinate_list():
    assert parse_coords(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
    assert parse_coords([]) == ()
    for bad in ("110", ("1", "0"), {"a": 1}, None, 5):
        with pytest.raises(InputError, match="malformed coordinate list"):
            parse_coords(bad)
    with pytest.raises(InputError, match="malformed rational"):
        parse_coords(["1", 0.5])
