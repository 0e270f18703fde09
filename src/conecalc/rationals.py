"""Exact rational parsing and canonical formatting.

Rationals cross the JSON boundary as strings "p/q" with q > 0 and
gcd(p, q) = 1, or a bare "p" when the value is an integer. Plain ints are
accepted on input for convenience; floats never are. Integers, booleans
and coordinate lists are read strictly: a JSON integer where an int is due,
a JSON bool where a flag is due, a JSON list where coordinates are due, and
nothing that merely converts to one.
"""

from fractions import Fraction

from .errors import InputError


def parse_rational(value):
    if isinstance(value, bool):
        raise InputError(f"malformed rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        # the wire format is p/q; reject decimal or scientific notation even
        # though Fraction would happily parse it
        if "." in text or "e" in text.lower():
            raise InputError(f"malformed rational: {value!r}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed rational: {value!r}") from None
    raise InputError(f"malformed rational: {value!r}")


def parse_int(value):
    # bool is a subclass of int; a float or "2" only converts to one
    if type(value) is not int:
        raise InputError(f"malformed integer: {value!r}")
    return value


def parse_bool(value):
    if type(value) is not bool:
        raise InputError(f"malformed boolean: {value!r}")
    return value


def parse_coords(value):
    # a string iterates too, so "110" would otherwise read as (1, 1, 0)
    if not isinstance(value, list):
        raise InputError(f"malformed coordinate list: {value!r}")
    return tuple(parse_rational(x) for x in value)


def format_rational(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
