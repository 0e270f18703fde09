"""Exact rational parsing and canonical formatting.

Rationals cross the JSON boundary as strings "p/q" with q > 0 and
gcd(p, q) = 1, or a bare "p" when the value is an integer. Plain ints are
accepted on input for convenience; floats never are, here or by the two
bundle constructors (`SpacePreset`, `RationalCone`, `Pairing` and
`decompose`'s coordinates still coerce them). Integers, booleans, coordinate
lists and record lists are read strictly: a JSON integer where an int is
due, a JSON bool where a flag is due, a JSON list where coordinates or
records are due, and nothing that merely converts to one. An integer, and a
rational's numerator and denominator, have at most ``MAX_RATIONAL_BITS``
bits, so whatever is computed from a workspace still prints; the certificate
reader lifts the bound, so that every certificate this package writes reads
back. A value past it is not echoed; its error names the reader's ``field``.
"""

import re
from fractions import Fraction

from .errors import InputError

_RATIONAL_TEXT = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")
MAX_RATIONAL_BITS = 1024


def as_fraction(value):
    """``Fraction(value)``, without rebuilding a value that already is one."""
    return value if type(value) is Fraction else Fraction(value)


def _cut(text):
    """``text`` for an error message, cut to 40 characters plus '...' so
    that one bad field cannot echo input of any size."""
    return text if len(text) <= 40 else text[:40] + "..."


def _echo(value):
    """``repr(value)``, cut by ``_cut``."""
    return _cut(repr(value))


def parse_rational(value, max_bits=MAX_RATIONAL_BITS, field=None):
    if isinstance(value, bool):
        raise InputError(f"malformed rational: {_echo(value)}")
    if isinstance(value, (int, Fraction)):
        value = as_fraction(value)
    elif isinstance(value, str):
        # the wire format is a sign and ASCII digits, then '/' and ASCII
        # digits; Fraction would also read decimals, exponents, underscores
        # and other scripts' digits
        match = _RATIONAL_TEXT.fullmatch(value.strip())
        if match is None:
            raise InputError(f"malformed rational: {_echo(value)}")
        num, den = match.groups()
        try:
            # a numerator past the interpreter's int-to-text digit limit is a ValueError
            value = Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"malformed rational: {_echo(value)}") from None
    else:
        raise InputError(f"malformed rational: {_echo(value)}")
    if max_bits is not None:
        # the size alone: an int this long may be too long for repr()
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > max_bits:
            raise InputError(
                f"rational has {bits} bits in numerator or denominator; "
                f"at most {max_bits} are allowed",
                field=field,
            )
    return value


def parse_int(value, max_bits=MAX_RATIONAL_BITS, field=None):
    # bool is a subclass of int; a float or "2" only converts to one
    if type(value) is not int:
        raise InputError(f"malformed integer: {_echo(value)}")
    if max_bits is not None and value.bit_length() > max_bits:
        raise InputError(
            f"integer has {value.bit_length()} bits; at most {max_bits} are allowed",
            field=field,
        )
    return value


def parse_bool(value):
    if type(value) is not bool:
        raise InputError(f"malformed boolean: {_echo(value)}")
    return value


def parse_records(value):
    # a string or an object iterates too, so "" or {} would otherwise read as []
    if not isinstance(value, list):
        raise InputError(f"malformed record list: {_echo(value)}")
    return value


def parse_coords(value, max_bits=MAX_RATIONAL_BITS, field=None):
    # a string iterates too, so "110" would otherwise read as (1, 1, 0)
    if not isinstance(value, list):
        raise InputError(f"malformed coordinate list: {_echo(value)}")
    if field is None:
        return tuple(parse_rational(x, max_bits) for x in value)
    return tuple(parse_rational(x, max_bits, f"{field}[{i}]") for i, x in enumerate(value))


def format_rational(value):
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_linear(terms):
    """A sum of ``(coefficient, label)`` terms as text, 'xi - 1/2*F': zero
    terms are skipped, the label '1' marks a constant, and an empty sum
    reads '0'."""
    parts = []
    for coef, label in terms:
        if coef == 0:
            continue
        if label == "1":
            parts.append(format_rational(coef))
        elif coef == 1:
            parts.append(label)
        elif coef == -1:
            parts.append(f"-{label}")
        else:
            parts.append(f"{format_rational(coef)}*{label}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
