"""Wire-format rational parsing and formatting."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conecalc.errors import InputError
from conecalc.rationals import (
    format_linear,
    format_rational,
    parse_bool,
    parse_coords,
    parse_int,
    parse_rational,
    parse_records,
)
from conecalc.rationals import MAX_RATIONAL_BITS


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


@pytest.mark.parametrize(
    "text",
    ["1_0", "1/0_2", "\u0661", "\u0663/\u0664", "\uff13", "3/\u0664", "+-1", "1/-2", "1 / 2"],
    ids=["underscore", "underscore-denominator", "arabic-indic", "arabic-indic-fraction",
         "fullwidth", "mixed-scripts", "two-signs", "signed-denominator", "spaced-slash"],
)
def test_parse_reads_ascii_digits_only(text):
    with pytest.raises(InputError, match="malformed rational"):
        parse_rational(text)


def test_parse_keeps_sign_and_surrounding_whitespace():
    assert parse_rational(" +3/4\n") == Fraction(3, 4)
    assert parse_rational("\t-12") == -12
    assert parse_rational("007/014") == Fraction(1, 2)


def test_parse_bounds_numerator_and_denominator_bits():
    bits = MAX_RATIONAL_BITS
    for value in (2 ** (bits - 1), -(2**bits - 1), Fraction(1, 2**bits - 1)):
        assert parse_rational(value) == value
        assert parse_rational(format_rational(value)) == value
    message = (
        f"rational has {bits + 1} bits in numerator or denominator; "
        f"at most {bits} are allowed"
    )
    for value in (2**bits, -(2**bits), f"1/{2 ** bits}", f"{2 ** bits}/3", Fraction(2**bits, 3)):
        with pytest.raises(InputError) as err:
            parse_rational(value)
        assert str(err.value) == message
    # no echo: an int this long is too long for repr() on Python 3.11 and later
    with pytest.raises(InputError, match="^rational has 16610 bits"):
        parse_rational(10**5000)


def test_format_canonical():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(0) == "0"


def test_format_linear():
    # zero terms vanish, '1' marks a constant, unit coefficients print bare
    terms = [(Fraction(-1, 2), "a"), (0, "b"), (1, "c"), (-1, "d"), (3, "1")]
    assert format_linear(terms) == "-1/2*a + c - d + 3"
    assert format_linear([(-2, "1"), (-1, "xi")]) == "-2 - xi"
    assert format_linear([(0, "xi"), (0, "1")]) == format_linear([]) == "0"


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


# the wire format: a sign, ASCII digits, then optionally '/' and ASCII digits
_WIRE = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"[0-9]{1,30}", fullmatch=True),
    st.one_of(st.just(""), st.from_regex(r"/[0-9]{1,30}", fullmatch=True)),
)


@given(_WIRE)
@example("-0/5")
@example("+007/0012")
@example("-000")
@example("3/0")
def test_parse_rational_equals_fraction_on_the_wire_format(text):
    if "/" in text and int(text.split("/")[1]) == 0:
        with pytest.raises(InputError, match="^malformed rational: "):
            parse_rational(text)
        return
    value = parse_rational(text, max_bits=None)
    assert value == Fraction(text) and type(value) is Fraction


def test_strict_coordinate_list():
    assert parse_coords(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
    assert parse_coords([]) == ()
    for bad in ("110", ("1", "0"), {"a": 1}, None, 5):
        with pytest.raises(InputError, match="malformed coordinate list"):
            parse_coords(bad)
    with pytest.raises(InputError, match="malformed rational"):
        parse_coords(["1", 0.5])


def test_strict_record_list():
    records = [{"gen": ["1"]}]
    assert parse_records(records) is records
    assert parse_records([]) == []
    for bad in ("", {}, "[]", ({},), None, 0):
        with pytest.raises(InputError, match="malformed record list"):
            parse_records(bad)



@pytest.mark.parametrize(
    "parse, short, kind",
    [
        (parse_rational, "0.5", "rational"),
        (parse_int, "2", "integer"),
        (parse_bool, 1, "boolean"),
        (parse_records, "", "record list"),
        (parse_coords, "110", "coordinate list"),
    ],
)
def test_error_echo_is_bounded(parse, short, kind):
    """A bad value is echoed by its repr, cut to 40 characters and '...'."""
    with pytest.raises(InputError) as err:
        parse(short)
    assert str(err.value) == f"malformed {kind}: {short!r}"
    long = "7" * 200_000
    with pytest.raises(InputError) as err:
        parse(long if parse is not parse_rational else [0] * 200_000)
    echo = str(err.value).split(": ", 1)[1]
    assert len(echo) == 43 and echo.endswith("...")


def test_error_echo_cut_starts_past_40_characters():
    # a 38-character string has a 40-character repr
    for text, echo in (("x" * 38, repr("x" * 38)), ("x" * 39, repr("x" * 39)[:40] + "...")):
        with pytest.raises(InputError) as err:
            parse_rational(text)
        assert str(err.value) == f"malformed rational: {echo}"
