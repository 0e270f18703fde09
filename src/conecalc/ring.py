"""Graded numerical intersection rings with rewrite-rule normal forms.

A ring is specified by generator names with integer codimensions, a finite
ordered list of rewrite rules (monomial -> same-degree linear combination),
and one top-degree monomial whose evaluation is normalized to 1. Monomials
are exponent tuples aligned with the generator list. A ring query takes a
``NumClass`` of that ring or an expression string, nothing else; a class
carries its own degree, so a zero class keeps it.

Every rule strictly decreases the lexicographic order on exponent tuples
(generators are listed fibre class first, base pullbacks next, point-fibre
class last), so reduction terminates no matter the order rules are applied
in; confluence on the published monomial sets is asserted by test.
"""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import add, ge, sub

from .errors import InputError, InternalError
from .presets import (
    FIBRE_PRODUCT_OVER_CURVE, NumClass, SpacePreset, _require_c2_end_zero, format_monomial,
)
from .rationals import _echo
from .record import Record


def _clean(poly):
    return {m: c for m, c in poly.items() if c != 0}


def _exact(value):
    # an int where the value is integral: int arithmetic is far cheaper
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _pmul(a, b):
    # a monomial's first term is stored as it is, so ints stay ints
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono, c = tuple(map(add, m1, m2)), c1 * c2
            out[mono] = out[mono] + c if mono in out else c
    return _clean(out)


class IntersectionRing(Record):
    """Numerical ring of a preset space; all queries are pure and exact.
    Frozen like a record, but equal only to itself; its memos fill in place."""

    __slots__ = ("gens", "gen_degrees", "dim", "top_monomial", "rules", "_basis_cache", "_forms")
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    def __init__(self, gens, gen_degrees, dim, rules, top_monomial):
        rules = tuple(
            (tuple(lhs), tuple((tuple(m), _exact(c)) for m, c in rhs.items() if c != 0))
            for lhs, rhs in rules
        )
        degrees = tuple(int(d) for d in gen_degrees)
        super().__init__(tuple(gens), degrees, int(dim), tuple(top_monomial), rules, {}, {})
        for lhs, rhs in self.rules:
            want = self.monomial_degree(lhs)
            if any(self.monomial_degree(m) != want for m, _ in rhs):
                raise InternalError("rewrite rule does not preserve degree")
        if self.monomial_degree(self.top_monomial) != self.dim:
            raise InternalError("top monomial degree differs from the dimension")
        if any(all(map(ge, self.top_monomial, lhs)) for lhs, _ in self.rules):
            raise InternalError("top monomial is reducible")
        if any(sum(lhs) == 1 for lhs, _ in self.rules):
            raise InternalError("a generator is reducible")

    def __reduce__(self):
        rules = [(lhs, dict(rhs)) for lhs, rhs in self.rules]
        return IntersectionRing, (self.gens, self.gen_degrees, self.dim, rules, self.top_monomial)

    def monomial_degree(self, mono):
        return sum(e * d for e, d in zip(mono, self.gen_degrees))

    def _reduce(self, poly):
        """Sum each term's coefficient times its monomial's normal form, read
        from ``_forms``: this ring's private memo, filled lazily and only ever
        gaining keys. A form is an immutable tuple of (monomial, coefficient)
        pairs, rewritten once from 1 by the first listed rule matching each
        monomial; ints times int rules stay ints. Callers hand over homogeneous
        polynomials of degree at most ``dim`` alone (a class above it is zero
        without rewriting), so the memo holds at most the monomials of those
        degrees. The pop guard is an internal assertion that no input reaches.
        """
        forms = self._forms
        result = {}
        for mono, coeff in poly.items():
            form = forms.get(mono)
            if form is None:
                form = forms[mono] = self._rewrite(mono)
            for m, c in form:
                c *= coeff
                result[m] = result[m] + c if m in result else c
        return _clean(result)

    def _rewrite(self, mono):
        form = {}
        stack = [(mono, 1)]
        guard = 0
        while stack:
            guard += 1
            if guard > 1_000_000:
                raise InternalError("rewrite did not terminate")
            mono, coeff = stack.pop()
            rule = next((rule for rule in self.rules if all(map(ge, mono, rule[0]))), None)
            if rule is None:
                form[mono] = form[mono] + coeff if mono in form else coeff
                continue
            lhs, rhs = rule
            rest = tuple(map(sub, mono, lhs))
            for rmono, rcoeff in rhs:
                stack.append((tuple(map(add, rest, rmono)), coeff * rcoeff))
        # terms that cancel stay, as zeros, so a sum's type is as if rewritten
        return tuple(form.items())

    def normal_form(self, expr):
        """Reduce to the unique irreducible representative, as a NumClass.

        ``expr`` is a NumClass of this ring or an expression string; any
        other input is an InputError. It must be homogeneous as written
        (rules preserve degree, so distinct degrees could never recombine); a
        mixed input raises. The degrees written are the ones that count: a
        class's own degree and those of its terms, so a zero class keeps its
        degree; a string's terms as written, before anything cancels (see
        ``parse_expression``), and the literal zero has degree 0. A
        homogeneous input of degree above ``dim`` is the zero class of that
        degree, found without rewriting.
        """
        if isinstance(expr, str):
            parsed = parse_expression(self, expr)
            low, high = parsed.degrees
            if low != high:
                raise _mixed((low, high))
            return NumClass(self.gens, low, dict(parsed))
        if not isinstance(expr, NumClass):
            raise InputError(f"cannot interpret {type(expr).__name__} as a ring element")
        if expr.gens != self.gens:
            raise InputError("class belongs to a ring with different generators")
        width = len(self.gens)
        degrees = {expr.degree}
        for mono, coeff in expr.coeffs.items():
            if type(coeff) is not Fraction or not coeff:
                raise InputError(f"class coefficient {coeff!r} is not a nonzero Fraction")
            if type(mono) is not tuple or len(mono) != width or any(
                type(e) is not int or e < 0 for e in mono
            ):
                raise InputError(f"class monomial {mono!r} is not {width} int exponents >= 0")
            degrees.add(self.monomial_degree(mono))
        if len(degrees) > 1:
            raise _mixed(sorted(degrees))
        if expr.degree > self.dim:
            return NumClass(self.gens, expr.degree, {})
        return NumClass(self.gens, expr.degree, self._reduce(expr.coeffs))

    def degree_eval(self, expr):
        """Evaluate a top-degree class or expression string against the
        normalized top monomial."""
        cls = self.normal_form(expr)
        if cls.is_zero:
            return Fraction(0)
        if cls.degree != self.dim:
            raise InputError(
                f"degree mismatch: degree {cls.degree} class in a "
                f"{self.dim}-dimensional ring"
            )
        return self._top_coefficient(cls.coeffs)

    def _top_coefficient(self, coeffs):
        """The top monomial's coefficient in a reduced top-degree polynomial."""
        for mono in coeffs:
            if mono != self.top_monomial:
                # every preset has a one-element top-degree basis
                raise InternalError(
                    "irreducible top-degree monomial besides the top monomial: "
                    + format_monomial(self.gens, mono)
                )
        return coeffs.get(self.top_monomial, 0)

    def basis(self, k):
        """Irreducible monomials of degree k, descending lex. Frozen order:
        this list defines coordinates and serialization for degree k. Exponents
        go left to right, each from its largest value down, below its
        generator's pure-power rule; a mixed left side is tested once, at its
        last exponent, and a prefix stops when later generators cannot fill k."""
        if not 0 <= k <= self.dim:
            raise InputError(f"degree {k} out of range 0..{self.dim}")
        if k not in self._basis_cache:
            degrees, last = self.gen_degrees, len(self.gens) - 1
            caps = [k] * (last + 1)  # no exponent of degree k passes k
            mixed = [[] for _ in caps]
            for lhs, _ in self.rules:
                support = [i for i, e in enumerate(lhs) if e]
                if len(support) == 1:
                    caps[support[0]] = min(caps[support[0]], lhs[support[0]] - 1)
                else:
                    mixed[support[-1]].append(lhs)
            carry = [0] * (last + 1)  # the most degree generators after i hold
            for i in range(last, 0, -1):
                carry[i - 1] = carry[i] + caps[i] * degrees[i]
            found = []

            def walk(prefix, idx, remaining):
                for e in range(min(remaining // degrees[idx], caps[idx]), -1, -1):
                    rest = remaining - e * degrees[idx]
                    if rest > carry[idx]:
                        break  # a smaller e leaves even more
                    mono = prefix + (e,)
                    if any(all(map(ge, mono, lhs)) for lhs in mixed[idx]):
                        continue
                    if idx == last:
                        found.append(mono)
                    else:
                        walk(mono, idx + 1, rest)

            walk((), 0, k)
            self._basis_cache[k] = tuple(found)
        return self._basis_cache[k]

    def basis_labels(self, k):
        return tuple(format_monomial(self.gens, m) for m in self.basis(k))

    def class_from_coordinates(self, k, coords):
        basis = self.basis(k)
        if len(coords) != len(basis):
            raise InputError(
                f"expected {len(basis)} coordinates for degree {k}, got {len(coords)}"
            )
        poly = {m: Fraction(c) for m, c in zip(basis, coords) if Fraction(c) != 0}
        return NumClass(self.gens, k, poly)


# ---------------------------------------------------------------------------
# expression parsing
#
# The parser computes with values (low, high, part, den): the lowest and
# highest degree of the terms as written, and, when the value is homogeneous
# of degree at most the ring dimension (low == high <= dim), its homogeneous
# part in normal form; otherwise part is None. The literal zero is None, for
# it has every degree. Normal form respects products, so each product is
# reduced as soon as it is built and every part stays within the basis of its
# degree. A value that is mixed, or lies above the dimension where every class
# is zero, needs no part at all, so it is never expanded.
#
# A part maps monomials to ints over one positive int den, and gcd(den, *ints)
# is 1 (content and primitive part, as in fraction-free algebra). A sum scales
# both sides to the lcm of their dens, a product multiplies them, and the
# result's Fractions are built once, at the end.

# Parser limits; an input past one is an InputError. Coefficients stay short
# enough to print: Python 3.11 and later refuse to turn an int of more than
# 4300 digits (about 14 000 bits) into text.
MAX_EXPRESSION_CHARS = 10_000
MAX_EXPONENT_DIGITS = 100
MAX_NESTING = 100
MAX_COEFFICIENT_BITS = 1024
MAX_PRODUCT_PAIRS = 20_000

_DIGITS = "0123456789"
# one token per match, whitespace skipped: \s is str.isspace and \w is
# str.isalnum or '_'; a \w run that starts with neither a letter nor '_', and
# any other character, is refused by _tokenize
_TOKEN = re.compile(r"[-+*^()]|[0-9]+(?:/[0-9]+)?|\w+|\S")
_STARTS = frozenset("+-*^()_" + _DIGITS)
_OPERATORS = frozenset("+-*^)")  # operator tokens that cannot start a value


class ParsedPoly(dict):
    """A parsed expression: in ``degrees`` the lowest and highest degree of
    its terms as written, and as a dict its homogeneous part in normal form,
    which is empty unless the two degrees agree and are at most the ring
    dimension."""

    __slots__ = ("degrees",)

    def __init__(self, part, degrees):
        super().__init__(part)
        self.degrees = degrees


def _mixed(degrees):
    return InputError(
        "degree mismatch: expression mixes degrees " + ", ".join(str(d) for d in degrees)
    )


def _coefficient_too_large():
    return InputError(f"coefficient with more than {MAX_COEFFICIENT_BITS} bits in expression")


def _tokenize(text):
    tokens = _TOKEN.findall(text)
    for tok in tokens:
        if tok[0] not in _STARTS and not tok[0].isalpha():
            raise InputError(f"unexpected character {tok[0]!r} in expression")
    return tokens


def _lowest(part, den):
    """``part`` over ``den`` with the gcd of ``den`` and every int divided out."""
    if den != 1:
        g = gcd(den, *part.values())
        if g != 1:
            return {m: c // g for m, c in part.items()}, den // g
    return part, den


def parse_expression(ring, text):
    """Parse '2*xi^3*zeta - 1/2*F' style input into a ``ParsedPoly``.

    Grammar: sums and differences of terms; a term is '*'-joined factors;
    a factor is a rational literal, a generator, or a parenthesized
    expression, optionally raised to a nonnegative integer power. Numbers
    are ASCII digits; an exponent has at most ``MAX_EXPONENT_DIGITS``
    digits and parentheses nest at most ``MAX_NESTING`` deep.

    Degrees are those written: a sum spans the degrees of its terms even
    where they cancel (``1 + xi^9 - 1`` mixes degrees 0 and 9, ``xi - xi``
    has degree 1), and ``a^n`` spans n times those of ``a``, found at once
    when ``a`` is mixed or ``a^n`` lies above the dimension. Products reduce
    to normal form as they are built; past ``MAX_PRODUCT_PAIRS`` monomial
    pairs multiplied in one expression, it is refused.
    """
    if len(text) > MAX_EXPRESSION_CHARS:
        raise InputError(
            f"expression has {len(text)} characters; at most {MAX_EXPRESSION_CHARS} are allowed"
        )
    tokens = _tokenize(text)
    tokens.append(None)  # the end; no parse step moves past it
    pos = 0
    depth = 0
    pairs = 0
    dim = ring.dim
    width = len(ring.gens)
    one = (0, 0, {(0,) * width: 1}, 1)

    def checked(low, high, part, den):
        # a common den can pass the limit while each coefficient in lowest
        # terms, c/g over den/g with g = gcd(c, den), stays within
        if max(map(int.bit_length, (den, *part.values()))) > MAX_COEFFICIENT_BITS:
            for c in part.values():
                g = gcd(c, den)
                if max((c // g).bit_length(), (den // g).bit_length()) > MAX_COEFFICIENT_BITS:
                    raise _coefficient_too_large()
        return low, high, part, den

    def negated(a):
        if a is None or a[2] is None:
            return a
        return a[0], a[1], {m: -c for m, c in a[2].items()}, a[3]

    def plus(a, b):
        if a is None or b is None:
            return b if a is None else a
        low, high = min(a[0], b[0]), max(a[1], b[1])
        if low != high or low > dim:
            return low, high, None, 1
        den = lcm(a[3], b[3])
        scale = den // b[3]
        part = dict(a[2]) if den == a[3] else {m: c * (den // a[3]) for m, c in a[2].items()}
        for mono, coeff in b[2].items():
            coeff *= scale
            part[mono] = part[mono] + coeff if mono in part else coeff
        return checked(low, high, *_lowest(_clean(part), den))

    def times(a, b):
        nonlocal pairs
        if a is None or b is None:
            return None
        low, high = a[0] + b[0], a[1] + b[1]
        if low != high or low > dim:
            return low, high, None, 1
        pairs += len(a[2]) * len(b[2])
        if pairs > MAX_PRODUCT_PAIRS:
            raise InputError(
                f"expression needs more than {MAX_PRODUCT_PAIRS} monomial products "
                "below the ring dimension"
            )
        part, den = _pmul(a[2], b[2]), a[3] * b[3]
        # a constant times a normal form is one
        if a[0] and b[0]:
            part = ring._reduce(part)
            if any(type(c) is not int for c in part.values()):
                # an L2 or mu rule may be a Fraction: scale back to ints
                scale = lcm(*(c.denominator for c in part.values() if type(c) is not int))
                part = {
                    m: c * scale if type(c) is int else c.numerator * (scale // c.denominator)
                    for m, c in part.items()
                }
                den *= scale
        return checked(low, high, *_lowest(part, den))

    def power(a, n):
        if n == 0:
            return one
        if a is None:
            return None
        low, high = n * a[0], n * a[1]
        if low != high or low > dim:
            return low, high, None, 1
        if not a[2]:
            return low, high, {}, 1
        if low == 0:
            # a constant in lowest terms: its power's size is known beforehand
            ((mono, coeff),) = a[2].items()
            if n * (max(coeff.bit_length(), a[3].bit_length()) - 1) >= MAX_COEFFICIENT_BITS:
                raise _coefficient_too_large()
            return 0, 0, {mono: coeff**n}, a[3] ** n
        # n <= dim here: square and multiply
        result = None
        while True:
            if n & 1:
                result = a if result is None else times(result, a)
            n >>= 1
            if not n:
                return result
            a = times(a, a)

    def parse_sum():
        nonlocal pos
        sign = tokens[pos]
        if sign == "+" or sign == "-":
            pos += 1
        total = parse_term()
        if sign == "-":
            total = negated(total)
        while True:
            sign = tokens[pos]
            if sign != "+" and sign != "-":
                return total
            pos += 1
            term = parse_term()
            total = plus(total, negated(term) if sign == "-" else term)

    def parse_term():
        nonlocal pos
        value = parse_factor()
        while tokens[pos] == "*":
            pos += 1
            value = times(value, parse_factor())
        return value

    def parse_factor():
        nonlocal pos
        base = parse_atom()
        if tokens[pos] != "^":
            return base
        tok = tokens[pos + 1]
        if tok is None or not tok.isdigit():
            raise InputError("exponent must be a nonnegative integer")
        if len(tok) > MAX_EXPONENT_DIGITS:
            raise InputError(
                f"exponent {tok[:20]}... has {len(tok)} digits; "
                f"at most {MAX_EXPONENT_DIGITS} are allowed"
            )
        pos += 2
        return power(base, int(tok))

    def parse_atom():
        nonlocal depth, pos
        tok = tokens[pos]
        if tok is None:
            raise InputError("expression ended unexpectedly")
        pos += 1
        if tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise InputError(f"parentheses nest more than {MAX_NESTING} deep")
            inner = parse_sum()
            if tokens[pos] != ")":
                raise InputError("missing closing parenthesis")
            pos += 1
            depth -= 1
            return inner
        if tok[0] in _DIGITS:
            num, _, den = tok.partition("/")
            try:
                num, den = int(num), int(den or 1)
            except ValueError:  # more digits than int() reads
                den = 0
            if not den:
                raise InputError(f"malformed rational: {_echo(tok)}")
            if not num:
                return None
            g = gcd(num, den)
            return checked(0, 0, {(0,) * width: num // g}, den // g)
        if tok in ring.gens:
            i = ring.gens.index(tok)
            d = ring.gen_degrees[i]
            mono = tuple(int(j == i) for j in range(width))
            return d, d, {mono: 1} if d <= dim else None, 1
        if tok in _OPERATORS:
            raise InputError(f"expected a generator, a number or '(', found {tok!r}")
        raise InputError(f"unknown generator {_echo(tok)}; ring has {', '.join(ring.gens)}")

    try:
        value = parse_sum()
    finally:
        # parse_atom reaches parse_sum through a cell: break the closures' cycle
        parse_sum = None
    if tokens[pos] is not None:
        raise InputError(f"unexpected token {_echo(tokens[pos])}")
    if value is None:
        return ParsedPoly({}, (0, 0))
    low, high, part, den = value
    return ParsedPoly({m: Fraction(c, den) for m, c in part.items()} if part else {}, (low, high))


# ---------------------------------------------------------------------------
# ring builders


def build_curve_bundle_ring(rank, degree):
    """Ring of a projectivized bundle over a curve, basis powers of (xi, f)."""
    preset = SpacePreset.curve(rank, degree)
    r, d = preset.rank, preset.degree
    gens = ("xi", "f")
    rules = [
        ((r, 0), {(r - 1, 1): Fraction(d)}),
        ((0, 2), {}),
    ]
    return IntersectionRing(gens, (1, 1), r, rules, (r - 1, 1))


def build_fibre_product_ring(m, n, d, d2):
    """Ring of a fibre product of two projectivized bundles over a curve.

    Generators (xi, zeta, F), all codimension 1; the two bundle relations
    rewrite xi^m and zeta^n, and the fibre class squares to zero. The top
    monomial xi^(m-1)*zeta^(n-1)*F (a point of the product fibre) maps to 1.
    """
    preset = SpacePreset.fibre_product(m, n, d, d2)
    m, n, d, d2 = preset.rank, preset.rank2, preset.degree, preset.degree2
    gens = ("xi", "zeta", "F")
    rules = [
        ((m, 0, 0), {(m - 1, 0, 1): Fraction(d)}),
        ((0, n, 0), {(0, n - 1, 1): Fraction(d2)}),
        ((0, 0, 2), {}),
    ]
    return IntersectionRing(gens, (1, 1, 1), m + n - 1, rules, (m - 1, n - 1, 1))


def _surface_xi_ring(rank, base_names, gram, c1_coords, c2):
    """Low-level builder for the xi-basis ring over a surface.

    No preset validation happens here: the Chern data may be arbitrary
    rationals, which the lambda-vanishing check depends on.
    """
    nb = len(base_names)
    gens = ("xi",) + tuple(base_names) + ("F",)
    width = len(gens)
    degrees = (1,) + (1,) * nb + (2,)

    def unit(i, e=1):
        mono = [0] * width
        mono[i] = e
        return tuple(mono)

    F = width - 1
    rules = []
    # bundle relation: xi^r = xi^(r-1)*pullback(c1) - c2*xi^(r-2)*F
    rhs = {}
    for j, cj in enumerate(c1_coords):
        if cj:
            mono = [0] * width
            mono[0] = rank - 1
            mono[1 + j] = 1
            rhs[tuple(mono)] = Fraction(cj)
    if c2:
        mono = [0] * width
        mono[0] = rank - 2
        mono[F] = 1
        rhs[tuple(mono)] = rhs.get(tuple(mono), Fraction(0)) - Fraction(c2)
    rules.append((unit(0, rank), rhs))
    # base surface products land on the point-fibre class
    for i in range(nb):
        for j in range(i, nb):
            mono = [0] * width
            mono[1 + i] += 1
            mono[1 + j] += 1
            rules.append((tuple(mono), {unit(F): Fraction(gram[i][j])}))
    for i in range(nb):
        mono = [0] * width
        mono[1 + i] = 1
        mono[F] = 1
        rules.append((tuple(mono), {}))
    rules.append((unit(F, 2), {}))
    top = [0] * width
    top[0] = rank - 1
    top[F] = 1
    return IntersectionRing(gens, degrees, rank + 1, rules, tuple(top))


def build_xi_ring_surface(preset):
    """Xi-basis presentation over a surface; the oracle for the lambda basis."""
    names = preset.surface().divisors
    return _surface_xi_ring(preset.rank, names, preset.base_gram, preset.c1_coords, preset.c2)


def build_lambda_ring_surface(preset):
    """Lambda-basis ring over a surface; valid only when c2(End) vanishes.

    Generators (lambda, base pullbacks, F) with lambda^rank = 0, base products
    landing on F through the base intersection form, and lambda^(rank-1)*F the
    top monomial. The rules are written out here, apart from the xi-basis
    builder, so that the xi basis stays an independent check on them.
    """
    names = preset.surface().divisors
    _require_c2_end_zero(preset)
    r, gram = preset.rank, preset.base_gram
    width = len(names) + 2
    unit = [tuple(int(j == i) for j in range(width)) for i in range(width)]
    base, F = unit[1:-1], unit[-1]

    def times(a, b):
        return tuple(x + y for x, y in zip(a, b))

    rules = [((r,) + (0,) * (width - 1), {})]
    rules += [
        (times(base[i], base[j]), {F: gram[i][j]})
        for i in range(len(base))
        for j in range(i, len(base))
    ]
    rules += [(times(b, F), {}) for b in base]
    rules.append((times(F, F), {}))
    gens = ("lambda",) + names + ("F",)
    degrees = (1,) * (width - 1) + (2,)
    return IntersectionRing(gens, degrees, r + 1, rules, (r - 1,) + F[1:])


def verify_lambda_vanishing(rank, c1_squared, c2):
    """Symbolically expand (xi - pullback(c1)/rank)^rank and test for zero.

    Works over a synthetic base class A with A^2 = c1_squared (any rational,
    positivity not required) and c1 = A. The expansion vanishes exactly when
    2*rank*c2 = (rank-1)*c1_squared.
    """
    rank = int(rank)
    if rank < 2:
        raise InputError("rank must be at least 2")
    c1_squared, c2 = Fraction(c1_squared), Fraction(c2)
    ring = _surface_xi_ring(rank, ("piA",), ((c1_squared,),), (Fraction(1),), c2)
    lam = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1, rank)}
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(rank):
        power = _pmul(power, lam)
    return ring.normal_form(NumClass(ring.gens, rank, power)).is_zero


def build_ring(preset):
    """The intersection ring of a preset; the lambda basis over a surface."""
    if preset.is_surface:
        return build_lambda_ring_surface(preset)
    if preset.kind == FIBRE_PRODUCT_OVER_CURVE:
        return build_fibre_product_ring(preset.rank, preset.rank2, preset.degree, preset.degree2)
    return build_curve_bundle_ring(preset.rank, preset.degree)
