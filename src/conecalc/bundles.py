"""Numerical vector-bundle data on curves and surfaces.

Bundles live here as pure numerical records: rank, degree, and the
rank/degree ladder of Harder-Narasimhan quotients. Nothing touches sheaves;
ladders are caller-supplied input and only their shape is validated.
"""

from fractions import Fraction
from itertools import chain

from .errors import InputError
from .rationals import (
    MAX_RATIONAL_BITS, _echo, format_rational, parse_bool, parse_coords, parse_int, parse_rational,
)
from .record import Record


def validate_hn(rank, degree, quotients):
    """Check a quotient ladder and return the list of violations (empty = ok).

    The ladder lists (rank, degree) of the quotients, minimal slope first,
    so slopes must be strictly increasing along the list.
    """
    problems = []
    quotients = list(quotients)
    if not quotients:
        return ["empty quotient ladder"]
    if any(r <= 0 for r, _ in quotients):
        problems.append("zero-rank quotient")
        return problems
    if sum(r for r, _ in quotients) != rank:
        problems.append("rank sum mismatch")
    if sum(d for _, d in quotients) != degree:
        problems.append("degree sum mismatch")
    # d/r < d2/r2 exactly when d*r2 < d2*r, the ranks being positive
    if any(d2 * r <= d * r2 for (r, d), (r2, d2) in zip(quotients, quotients[1:])):
        problems.append("slopes not strictly increasing")
    return problems


class HNCurveBundle(Record):
    """A bundle on a curve: rank, degree, and its quotient ladder.

    ``quotients[0]`` is the minimal-slope quotient of the filtration and the
    last entry is the maximal-slope piece (the deepest subbundle, which is
    itself semistable). A one-entry ladder means the bundle is semistable;
    omitting ``quotients`` defaults to that. Every number is an ``int``: a
    bool, a float or a string raises `InputError`.
    """

    __slots__ = ("rank", "degree", "quotients", "name")

    def __init__(self, rank, degree, quotients=None, name="E"):
        quotients = ((rank, degree),) if quotients is None else tuple(map(tuple, quotients))
        numbers = (rank, degree, *chain.from_iterable(quotients))
        if set(map(type, numbers)) != {int}:
            bad = next(x for x in numbers if type(x) is not int)
            raise InputError(f"malformed integer: {_echo(bad)}")
        if rank < 1:
            raise InputError("bundle rank must be positive")
        problems = validate_hn(rank, degree, quotients)
        if problems:
            raise InputError(
                "invalid quotient ladder: " + "; ".join(problems), reasons=problems
            )
        super().__init__(rank, degree, quotients, name)

    @classmethod
    def _trusted(cls, rank, degree, quotients):
        """A bundle of numbers taken from a valid one, not checked again."""
        bundle = object.__new__(cls)
        Record.__init__(bundle, rank, degree, quotients, "E")
        return bundle

    @property
    def semistable(self):
        return len(self.quotients) == 1

    def to_json(self):
        return {
            "name": self.name,
            "rank": self.rank,
            "degree": self.degree,
            "hn": [[r, d] for r, d in self.quotients],
        }

    @classmethod
    def from_json(cls, obj, max_bits=MAX_RATIONAL_BITS):
        """The bundle of a JSON record; ``max_bits`` bounds each integer, and
        ``None`` lifts the bound, as the certificate reader does."""
        if not isinstance(obj, dict):
            raise InputError("bundle record must be a JSON object")
        try:
            rank = parse_int(obj["rank"], max_bits, "rank")
            degree = parse_int(obj["degree"], max_bits, "degree")
        except KeyError:
            raise InputError("bundle record needs integer rank and degree") from None
        quotients = obj.get("hn")
        if quotients is not None:
            # an object or a string unpacks like a pair, a key or character at a time
            if not isinstance(quotients, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in quotients
            ):
                raise InputError("hn must be a list of [rank, degree] pairs")
            if max_bits is not None:
                # unbounded, the constructor's own type check reads the ladder
                quotients = tuple(
                    (parse_int(r, max_bits, f"hn[{i}][0]"), parse_int(d, max_bits, f"hn[{i}][1]"))
                    for i, (r, d) in enumerate(quotients)
                )
        name = obj.get("name", "E")
        if not isinstance(name, str):
            raise InputError("bundle name must be a JSON string")
        return cls(rank, degree, quotients, name)


def slope(bundle):
    return Fraction(bundle.degree, bundle.rank)


def mu_min(bundle):
    r, d = bundle.quotients[0]
    return Fraction(d, r)


def mu_max(bundle):
    r, d = bundle.quotients[-1]
    return Fraction(d, r)


def sub_bundle_after_step(bundle, j):
    """Drop the first j quotients of the ladder and return the subbundle left.

    Valid for 1 <= j <= len(ladder) - 1; the last possible result is the
    deepest (semistable) piece of the filtration.
    """
    k = len(bundle.quotients)
    if not 1 <= j <= k - 1:
        raise InputError(f"filtration step {j} out of range 1..{k - 1}")
    rest = bundle.quotients[j:]
    rank = sum(r for r, _ in rest)
    degree = sum(d for _, d in rest)
    return HNCurveBundle(rank, degree, rest, name=bundle.name)


class SurfaceBundleData(Record):
    """Numerical data of a bundle on a surface.

    ``c1`` holds coordinates in the base's Neron-Severi basis; c1^2 and
    c2(End) are taken on the space preset (``SpacePreset.c2_end``).
    ``semistable`` is an asserted input flag, never computed. Each field is
    read as `from_json` reads it, unbounded: a float, or a bool for a number, raises.
    """

    __slots__ = ("rank", "c1", "c2", "semistable")

    def __init__(self, rank, c1, c2, semistable):
        values = parse_int(rank, None), tuple(parse_rational(x, None) for x in c1)
        values += parse_rational(c2, None), parse_bool(semistable)
        if rank < 2:
            raise InputError("surface bundle rank must be at least 2")
        super().__init__(*values)

    def to_json(self):
        return {
            "rank": self.rank,
            "c1": [format_rational(x) for x in self.c1],
            "c2": format_rational(self.c2),
            "semistable": self.semistable,
        }

    @classmethod
    def from_json(cls, obj):
        try:
            rank = parse_int(obj["rank"], field="rank")
            c1 = parse_coords(obj["c1"], field="c1")
            c2 = parse_rational(obj["c2"], field="c2")
        except (KeyError, TypeError, ValueError):
            raise InputError("surface bundle record needs rank, c1, c2") from None
        return cls(rank, c1, c2, obj.get("semistable", False))
