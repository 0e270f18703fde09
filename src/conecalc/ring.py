"""Graded numerical intersection rings with rewrite-rule normal forms.

A ring is specified by generator names with integer codimensions, a finite
ordered list of rewrite rules (monomial -> same-degree linear combination),
and one top-degree monomial whose evaluation is normalized to 1. Monomials
are exponent tuples aligned with the generator list.

Every rule strictly decreases the lexicographic order on exponent tuples
(generators are listed fibre class first, base pullbacks next, point-fibre
class last), so reduction terminates no matter the order rules are applied
in; confluence on the published monomial sets is asserted by test.

The four space presets differ only through one record each in the kind
table ``_KINDS``: their fields and JSON form, ring builder, and for surface
bases the base parameter, divisor names, Gram form and c1 coordinates.
"""

from fractions import Fraction
from operator import add
from types import SimpleNamespace

from .errors import InputError, InternalError
from .rationals import format_rational, parse_coords, parse_int, parse_rational, parse_records
from .record import Record


def format_monomial(gens, mono):
    parts = []
    for name, exp in zip(gens, mono):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


def parse_monomial(gens, text):
    if not isinstance(text, str):
        raise InputError(f"malformed monomial: {text!r}")
    exps = [0] * len(gens)
    text = text.strip()
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        name, caret, power = factor.strip().partition("^")
        if name not in gens:
            raise InputError(f"unknown generator {name!r}; ring has {', '.join(gens)}")
        exp = 1
        if caret:
            # the expression parser's rule: 1 to MAX_EXPONENT_DIGITS ASCII digits
            if not 0 < len(power) <= MAX_EXPONENT_DIGITS or any(c not in _DIGITS for c in power):
                raise InputError(f"bad exponent in {factor!r}")
            exp = int(power)
            if exp < 1:
                raise InputError(f"bad exponent in {factor!r}")
        exps[gens.index(name)] += exp
    return tuple(exps)


class NumClass(Record):
    """A homogeneous class: exact rational coefficients over monomials.

    ``coeffs`` maps exponent tuples to nonzero Fractions; zero classes have
    an empty map but keep their degree. Instances are value objects; the
    coefficient map is never mutated after construction.
    """

    __slots__ = ("gens", "degree", "coeffs")

    def __init__(self, gens, degree, coeffs):
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self):
        return not self.coeffs

    def terms(self):
        # descending lex = published display order
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def coordinates(self, basis):
        vec = []
        seen = set(self.coeffs)
        for mono in basis:
            vec.append(self.coeffs.get(mono, Fraction(0)))
            seen.discard(mono)
        if seen:
            extra = ", ".join(format_monomial(self.gens, m) for m in sorted(seen))
            raise InternalError(f"class has terms outside the basis: {extra}")
        return tuple(vec)

    def to_json(self):
        return {
            "degree": self.degree,
            "terms": [
                {
                    "monomial": format_monomial(self.gens, mono),
                    "coeff": format_rational(coeff),
                }
                for mono, coeff in self.terms()
            ],
        }

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            name = format_monomial(self.gens, mono)
            if name == "1":
                parts.append(format_rational(coeff))
            elif coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{format_rational(coeff)}*{name}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _clean(poly):
    return {m: c for m, c in poly.items() if c != 0}


def _pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return _clean(out)


class IntersectionRing:
    """Numerical ring of a preset space; all queries are pure and exact."""

    def __init__(self, preset, gens, gen_degrees, dim, rules, top_monomial):
        self.preset = preset
        self.gens = tuple(gens)
        self.gen_degrees = tuple(int(d) for d in gen_degrees)
        self.dim = int(dim)
        self.top_monomial = tuple(top_monomial)
        self.rules = tuple(
            (tuple(lhs), {tuple(m): Fraction(c) for m, c in rhs.items() if c != 0})
            for lhs, rhs in rules
        )
        # each left side's nonzero (position, exponent) pairs, in rule order
        self._rule_keys = tuple(
            tuple((p, e) for p, e in enumerate(lhs) if e) for lhs, _ in self.rules
        )
        for lhs, rhs in self.rules:
            want = self.monomial_degree(lhs)
            if any(self.monomial_degree(m) != want for m in rhs):
                raise InternalError("rewrite rule does not preserve degree")
        if self.monomial_degree(self.top_monomial) != self.dim:
            raise InternalError("top monomial degree differs from the dimension")
        if self._matching_rules(self.top_monomial):
            raise InternalError("top monomial is reducible")
        self._basis_cache = {}

    def monomial_degree(self, mono):
        return sum(e * d for e, d in zip(mono, self.gen_degrees))

    def _matching_rules(self, mono):
        return [
            i for i, key in enumerate(self._rule_keys) if all(mono[p] >= e for p, e in key)
        ]

    def _reduce(self, poly, pick=None):
        """Rewrite until irreducible. ``pick(mono, rule_indices)`` overrides
        the deterministic first-listed-rule choice; used to test confluence.

        ``normal_form`` is the only caller, and it hands over homogeneous
        polynomials of degree at most ``dim`` alone: a class above the
        dimension is zero without rewriting. The pop guard is an internal
        assertion that no input reaches.
        """
        result = {}
        stack = [(m, c) for m, c in poly.items() if c != 0]
        guard = 0
        while stack:
            guard += 1
            if guard > 1_000_000:
                raise InternalError("rewrite did not terminate")
            mono, coeff = stack.pop()
            hits = self._matching_rules(mono)
            if not hits:
                result[mono] = result.get(mono, Fraction(0)) + coeff
                continue
            index = hits[0] if pick is None else pick(mono, hits)
            lhs, rhs = self.rules[index]
            rest = tuple(e - l for e, l in zip(mono, lhs))
            for rmono, rcoeff in rhs.items():
                stack.append((tuple(a + b for a, b in zip(rest, rmono)), coeff * rcoeff))
        return _clean(result)

    def _as_poly(self, expr):
        """(polynomial, its degree if known, and the (lowest, highest) degree
        of a part above the dimension left unexpanded, or None)."""
        if isinstance(expr, NumClass):
            if expr.gens != self.gens:
                raise InputError("class belongs to a ring with different generators")
            return dict(expr.coeffs), expr.degree, None
        if isinstance(expr, str):
            poly = parse_expression(self, expr)
            return poly, None, poly.above
        if isinstance(expr, dict):
            width = len(self.gens)
            poly = {}
            for mono, coeff in expr.items():
                mono = tuple(int(e) for e in mono)
                if len(mono) != width or any(e < 0 for e in mono):
                    raise InputError(f"bad monomial exponents {mono}")
                coeff = Fraction(coeff)
                if coeff:
                    poly[mono] = poly.get(mono, Fraction(0)) + coeff
            return poly, None, None
        raise InputError(f"cannot interpret {type(expr).__name__} as a ring element")

    def normal_form(self, expr, degree=None, _pick=None):
        """Reduce to the unique irreducible representative, as a NumClass.

        ``expr`` is an expression string, a {monomial: coeff} dict or a
        NumClass. It must be homogeneous as written (rules preserve degree,
        so distinct degrees could never recombine); a mixed input raises.
        For a string, the degrees of its part above the dimension count as
        the parser recorded them (see ``parse_expression``). A zero input
        takes ``degree`` (default 0). A homogeneous input of degree above
        ``dim`` is the zero class of that degree, found without rewriting.
        """
        poly, known, above = self._as_poly(expr)
        degrees = {self.monomial_degree(m) for m in poly}
        if above is not None:
            degrees.update(above)
        if len(degrees) > 1:
            raise InputError(
                "degree mismatch: expression mixes degrees "
                + ", ".join(str(d) for d in sorted(degrees))
            )
        if known is None:
            known = degrees.pop() if degrees else (degree if degree is not None else 0)
        if known > self.dim:
            return NumClass(self.gens, known, {})
        reduced = self._reduce(poly, pick=_pick)
        return NumClass(self.gens, known, reduced)

    def degree_eval(self, expr):
        """Evaluate a top-degree class against the normalized top monomial."""
        cls = self.normal_form(expr)
        if cls.is_zero:
            return Fraction(0)
        if cls.degree != self.dim:
            raise InputError(
                f"degree mismatch: degree {cls.degree} class in a "
                f"{self.dim}-dimensional ring"
            )
        value = Fraction(0)
        for mono, coeff in cls.coeffs.items():
            if mono == self.top_monomial:
                value = coeff
            else:
                # every preset has a one-element top-degree basis
                raise InternalError(
                    "irreducible top-degree monomial besides the top monomial: "
                    + format_monomial(self.gens, mono)
                )
        return value

    def basis(self, k):
        """Irreducible monomials of degree k, descending lex. Frozen order:
        this list defines coordinates and serialization for degree k."""
        if not 0 <= k <= self.dim:
            raise InputError(f"degree {k} out of range 0..{self.dim}")
        if k not in self._basis_cache:
            found = []

            def walk(prefix, remaining):
                idx = len(prefix)
                if idx == len(self.gens):
                    if remaining == 0:
                        mono = tuple(prefix)
                        if not self._matching_rules(mono):
                            found.append(mono)
                    return
                step = self.gen_degrees[idx]
                for e in range(remaining // step, -1, -1):
                    walk(prefix + [e], remaining - e * step)

            walk([], k)
            # the descending loop above already emits descending lex order
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

    def class_from_json(self, obj):
        try:
            degree = parse_int(obj["degree"])
            terms = [(term["monomial"], term["coeff"]) for term in parse_records(obj["terms"])]
        except (KeyError, TypeError, ValueError):
            raise InputError("class record needs degree and terms") from None
        basis = set(self.basis(degree))
        poly = {}
        for text, raw in terms:
            mono = parse_monomial(self.gens, text)
            if mono not in basis:
                raise InputError(f"monomial {text!r} is not in the degree-{degree} basis")
            coeff = parse_rational(raw)
            if coeff:
                poly[mono] = poly.get(mono, Fraction(0)) + coeff
        return NumClass(self.gens, degree, _clean(poly))


# ---------------------------------------------------------------------------
# expression parsing
#
# The parser computes with graded values (parts, above). ``parts`` maps each
# degree up to the ring dimension to its exact homogeneous part, a nonempty
# {monomial: coeff} dict. ``above`` is the (lowest, highest) degree of the
# part past the dimension, or None when there is none. Every class of degree
# above the dimension is zero, so that part is never expanded: products drop
# each monomial pair whose degree passes the ceiling and keep only its degree,
# which is all normal_form needs to tell a homogeneous input from a mixed one.

# Parser limits; an input past one is an InputError. Coefficients stay short
# enough to print: Python 3.11 and later refuse to turn an int of more than
# 4300 digits (about 14 000 bits) into text, and reduction still multiplies
# by the ring's own coefficients.
MAX_EXPRESSION_CHARS = 10_000
MAX_EXPONENT_DIGITS = 100
MAX_NESTING = 100
MAX_COEFFICIENT_BITS = 1024
MAX_PRODUCT_PAIRS = 20_000

_DIGITS = "0123456789"


class CeilingPoly(dict):
    """Polynomial parsed under a ring's degree ceiling: the exact monomials of
    degree at most ``dim``, and in ``above`` the (lowest, highest) degree of
    the part past it, or None when there is none."""

    __slots__ = ("above",)

    def __init__(self, above):
        super().__init__()
        self.above = above


def _coefficient_too_large():
    return InputError(f"coefficient with more than {MAX_COEFFICIENT_BITS} bits in expression")


def _bits(coeff):
    return max(coeff.numerator.bit_length(), coeff.denominator.bit_length())


def _settled(parts, above):
    """A graded value, checked and trimmed. A part above the dimension that
    spans two degrees keeps the value mixed through every later sum, product
    and power, save a product with zero or a zeroth power, which read no
    parts; so its parts are dropped."""
    if above is not None and above[0] < above[1]:
        return {}, above
    if any(_bits(c) > MAX_COEFFICIENT_BITS for part in parts.values() for c in part.values()):
        raise _coefficient_too_large()
    return parts, above


def _degrees(value):
    """Degrees present in a graded value, the ends of its part above the
    dimension included; empty for zero."""
    parts, above = value
    return list(parts) + list(above or ())


def _graded_sum(a, b):
    parts = dict(a[0])
    for d, part in b[0].items():
        total = dict(parts.get(d, ()))
        for mono, coeff in part.items():
            total[mono] = total.get(mono, Fraction(0)) + coeff
        total = _clean(total)
        if total:
            parts[d] = total
        else:
            parts.pop(d, None)
    if a[1] is None or b[1] is None:
        above = a[1] or b[1]
    else:
        above = (min(a[1][0], b[1][0]), max(a[1][1], b[1][1]))
    return _settled(parts, above)


def _graded_negate(value):
    parts, above = value
    return {d: {m: -c for m, c in part.items()} for d, part in parts.items()}, above


class _Ceiling:
    """Products and powers of graded values under one ring's dimension.

    One instance serves one expression: ``pairs`` counts the monomial pairs
    it has multiplied, and past ``MAX_PRODUCT_PAIRS`` the expression is
    refused, so the work of a parse stays bounded whatever the ring size.
    """

    def __init__(self, dim):
        self.dim = dim
        self.pairs = 0

    def product(self, a, b):
        """Pairs of degree above the dimension only widen ``above``."""
        dim = self.dim
        jobs = [
            (d1 + d2, p1, p2)
            for d1, p1 in a[0].items()
            for d2, p2 in b[0].items()
            if d1 + d2 <= dim
        ]
        self.pairs += sum(len(p1) * len(p2) for _, p1, p2 in jobs)
        if self.pairs > MAX_PRODUCT_PAIRS:
            raise InputError(
                f"expression needs more than {MAX_PRODUCT_PAIRS} monomial products "
                "below the ring dimension"
            )
        parts = {}
        for d, p1, p2 in jobs:
            out = parts.setdefault(d, {})
            for m1, c1 in p1.items():
                for m2, c2 in p2.items():
                    mono = tuple(map(add, m1, m2))
                    out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        parts = {d: part for d, part in ((d, _clean(p)) for d, p in parts.items()) if part}
        # the lowest and highest degree of a product are sums of the factors'
        # (polynomials over a field have no zero divisors), and an end of a
        # factor's part above dim can only pair past dim
        passing = [x + y for x in _degrees(a) for y in _degrees(b) if x + y > dim]
        return _settled(parts, (min(passing), max(passing)) if passing else None)

    def power(self, value, n):
        """``value ** n`` for n >= 1, by repeated squaring; all above the
        dimension at once when even the lowest degree passes it."""
        degrees = _degrees(value)
        if degrees and n * min(degrees) > self.dim:
            return {}, (n * min(degrees), n * max(degrees))
        if degrees == [0]:
            # a constant: one Fraction power, whose size is known beforehand
            ((mono, coeff),) = value[0][0].items()
            if n * (_bits(coeff) - 1) >= MAX_COEFFICIENT_BITS:
                raise _coefficient_too_large()
            return _settled({0: {mono: coeff**n}}, None)
        result = None
        while True:
            if n & 1:
                result = value if result is None else self.product(result, value)
            n >>= 1
            if not n:
                return result
            value = self.product(value, value)


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1] in _DIGITS:
                j += 1
                while j < len(text) and text[j] in _DIGITS:
                    j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise InputError(f"unexpected character {ch!r} in expression")
    return tokens


def parse_expression(ring, text):
    """Parse '2*xi^3*zeta - 1/2*F' style input under the ring's degree ceiling.

    Grammar: sums and differences of terms; a term is '*'-joined factors;
    a factor is a rational literal, a generator, or a parenthesized
    expression, optionally raised to a nonnegative integer power. Numbers
    are ASCII digits; an exponent has at most ``MAX_EXPONENT_DIGITS``
    digits and parentheses nest at most ``MAX_NESTING`` deep.

    Returns a ``CeilingPoly``: the monomials of degree at most ``ring.dim``,
    exact, and in ``above`` the (lowest, highest) degree of the part past
    ``ring.dim``, which is zero in the ring and is not expanded. Products
    and powers never build a monomial above the dimension: ``a^n`` squares
    repeatedly, and lies above the dimension at once when n times the lowest
    degree of ``a`` does. Only a part above the dimension that cancels in the
    full expansion (``xi^9 - xi^9`` on a ring of dimension below 9) goes
    unseen: its degrees stay in ``above``.
    """
    if len(text) > MAX_EXPRESSION_CHARS:
        raise InputError(
            f"expression has {len(text)} characters; at most {MAX_EXPRESSION_CHARS} are allowed"
        )
    tokens = _tokenize(text)
    pos = 0
    depth = 0
    dim = ring.dim
    width = len(ring.gens)
    ceiling = _Ceiling(dim)
    one = ({0: {(0,) * width: Fraction(1)}}, None)

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_sum():
        negate = peek() in ("+", "-") and take() == "-"
        total = parse_term()
        if negate:
            total = _graded_negate(total)
        while peek() in ("+", "-"):
            term = _graded_negate(parse_term()) if take() == "-" else parse_term()
            total = _graded_sum(total, term)
        return total

    def parse_term():
        value = parse_factor()
        while peek() == "*":
            take()
            value = ceiling.product(value, parse_factor())
        return value

    def parse_factor():
        base = parse_atom()
        if peek() != "^":
            return base
        take()
        tok = take()
        if tok is None or not tok.isdigit():
            raise InputError("exponent must be a nonnegative integer")
        if len(tok) > MAX_EXPONENT_DIGITS:
            raise InputError(
                f"exponent {tok[:20]}... has {len(tok)} digits; "
                f"at most {MAX_EXPONENT_DIGITS} are allowed"
            )
        n = int(tok)
        return one if n == 0 else ceiling.power(base, n)

    def parse_atom():
        nonlocal depth
        tok = take()
        if tok is None:
            raise InputError("expression ended unexpectedly")
        if tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise InputError(f"parentheses nest more than {MAX_NESTING} deep")
            inner = parse_sum()
            if take() != ")":
                raise InputError("missing closing parenthesis")
            depth -= 1
            return inner
        if tok[0] in _DIGITS:
            coeff = parse_rational(tok)
            return _settled({0: {(0,) * width: coeff}} if coeff else {}, None)
        if tok in ring.gens:
            i = ring.gens.index(tok)
            mono = tuple(int(j == i) for j in range(width))
            d = ring.gen_degrees[i]
            return ({d: {mono: Fraction(1)}}, None) if d <= dim else ({}, (d, d))
        raise InputError(f"unknown generator {tok!r}; ring has {', '.join(ring.gens)}")

    parts, above = parse_sum()
    if pos != len(tokens):
        raise InputError(f"unexpected token {tokens[pos]!r}")
    poly = CeilingPoly(above)
    for part in parts.values():
        poly.update(part)
    return poly


# ---------------------------------------------------------------------------
# space presets


PROJ_BUNDLE_OVER_CURVE = "proj_bundle_over_curve"
FIBRE_PRODUCT_OVER_CURVE = "fibre_product_over_curve"
PROJ_BUNDLE_OVER_SURFACE_RHO1 = "proj_bundle_over_surface_rho1"
PROJ_BUNDLE_OVER_RULED_SURFACE = "proj_bundle_over_ruled_surface"


class SpacePreset(Record):
    """One of the supported total spaces, pinned down by numerical data.

    Use the classmethod constructors; they validate the preset contracts
    (ranks at least 2, positive L2, and 2r*c2 = (r-1)*c1^2 for surface
    presets, the condition under which the lambda-basis presentation holds).
    Everything else that differs between kinds (JSON form, rank checks,
    ring builder, surface base data) comes from the kind's record in the
    kind table ``_KINDS``.
    """

    __slots__ = ("kind", "rank", "degree", "rank2", "degree2", "L2", "e", "c2", "mu", "c1")

    def __init__(
        self, kind, rank=None, degree=None, rank2=None, degree2=None,
        L2=None, e=None, c2=None, mu=None, c1=None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rank2", rank2)
        object.__setattr__(self, "degree2", degree2)
        object.__setattr__(self, "L2", L2)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "c1", c1)

    def _checked(self):
        spec = _KINDS[self.kind]
        for name in spec.ranks:
            if getattr(self, name) < 2:
                raise InputError(spec.rank_error)
        if spec.gram is not None:
            if spec.positive and getattr(self, spec.param) <= 0:
                raise InputError(f"invalid preset: {spec.param} must be positive")
            _require_c2_end_zero(self)
        return self

    @classmethod
    def curve(cls, rank, degree):
        return cls(PROJ_BUNDLE_OVER_CURVE, rank=int(rank), degree=int(degree))._checked()

    @classmethod
    def fibre_product(cls, m, n, d, d2):
        return cls(
            FIBRE_PRODUCT_OVER_CURVE, rank=int(m), degree=int(d), rank2=int(n), degree2=int(d2)
        )._checked()

    @classmethod
    def surface_rho1(cls, rank, L2, e, c2):
        return cls(
            PROJ_BUNDLE_OVER_SURFACE_RHO1,
            rank=int(rank),
            L2=Fraction(L2),
            e=Fraction(e),
            c2=Fraction(c2),
        )._checked()

    @classmethod
    def ruled_surface(cls, rank, mu, c1, c2):
        return cls(
            PROJ_BUNDLE_OVER_RULED_SURFACE,
            rank=int(rank),
            mu=Fraction(mu),
            c1=_eta_f_coords(c1),
            c2=Fraction(c2),
        )._checked()

    @property
    def is_surface(self):
        return _KINDS[self.kind].gram is not None

    def _surface(self):
        spec = _KINDS[self.kind]
        if spec.gram is None:
            raise InputError(f"{self.kind} has no surface base")
        return spec

    @property
    def base_gram(self):
        """Intersection matrix of the base surface's published divisor basis."""
        spec = self._surface()
        return spec.gram(getattr(self, spec.param))

    @property
    def c1_coords(self):
        return self._surface().c1(self)

    @property
    def c1_squared(self):
        gram = self.base_gram
        coords = self.c1_coords
        return sum(
            coords[i] * gram[i][j] * coords[j]
            for i in range(len(coords))
            for j in range(len(coords))
        )

    @property
    def c2_end(self):
        """Second Chern class of the endomorphism bundle: 2r*c2 - (r-1)*c1^2."""
        return 2 * self.rank * self.c2 - (self.rank - 1) * self.c1_squared

    def to_json(self):
        out = {"kind": self.kind}
        for name, (_, write) in _KINDS[self.kind].fields:
            out[name] = write(getattr(self, name))
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise InputError("preset record must be a JSON object")
        kind = obj.get("kind")
        spec = _KINDS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise InputError(f"unknown preset kind {kind!r}")
        try:
            values = {name: read(obj[name]) for name, (read, _) in spec.fields}
        except KeyError as err:
            raise InputError(f"preset record needs {err.args[0]}") from None
        return cls(kind, **values)._checked()


def _require_c2_end_zero(preset):
    if preset.c2_end != 0:
        raise InputError(
            "invalid preset: 2r*c2 - (r-1)*c1^2 must vanish, got "
            + format_rational(preset.c2_end)
        )


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
    return IntersectionRing(preset, gens, (1, 1), r, rules, (r - 1, 1))


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
    return IntersectionRing(preset, gens, (1, 1, 1), m + n - 1, rules, (m - 1, n - 1, 1))


def _surface_xi_ring(preset, rank, base_names, gram, c1_coords, c2):
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
    return IntersectionRing(preset, gens, degrees, rank + 1, rules, tuple(top))


def build_xi_ring_surface(preset):
    """Xi-basis presentation over a surface; the oracle for the lambda basis."""
    if not preset.is_surface:
        raise InputError("invalid preset: expected a surface-base preset")
    names = _KINDS[preset.kind].divisors
    return _surface_xi_ring(
        preset, preset.rank, names, preset.base_gram, preset.c1_coords, preset.c2
    )


def build_lambda_ring_surface(preset):
    """Lambda-basis ring over a surface; valid only when c2(End) vanishes.

    Generators (lambda, base pullbacks, F) with lambda^rank = 0, base products
    landing on F through the base intersection form, and lambda^(rank-1)*F the
    top monomial. The rules are written out here, apart from the xi-basis
    builder, so that the xi basis stays an independent check on them.
    """
    if not preset.is_surface:
        raise InputError("invalid preset: expected a surface-base preset")
    _require_c2_end_zero(preset)
    r, gram = preset.rank, preset.base_gram
    names = _KINDS[preset.kind].divisors
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
    return IntersectionRing(preset, gens, degrees, r + 1, rules, (r - 1,) + F[1:])


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
    ring = _surface_xi_ring(None, rank, ("piA",), ((c1_squared,),), (Fraction(1),), c2)
    lam = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1, rank)}
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(rank):
        power = _pmul(power, lam)
    return ring.normal_form(power, degree=rank).is_zero


# ---------------------------------------------------------------------------
# the kind table


def _eta_f_coords(value):
    coords = tuple(Fraction(x) for x in value)
    if len(coords) != 2:
        raise InputError("invalid preset: c1 needs coordinates in (eta, f)")
    return coords


def _read_eta_f(value):
    return _eta_f_coords(parse_coords(value))


# (JSON reader, JSON writer) of each field shape
_INT = (parse_int, int)
_RATIONAL = (parse_rational, format_rational)
_ETA_F = (_read_eta_f, lambda c1: [format_rational(x) for x in c1])


class _Kind(SimpleNamespace):
    """What sets one preset kind apart: one record of the kind table.

    ``fields`` pairs each field's name with its JSON (reader, writer), in
    JSON order; the fields named in ``ranks`` must be at least 2, else
    ``rank_error``. ``ring`` builds a preset's intersection ring; it looks
    the builder up when called, so a replaced module attribute is seen. A
    surface kind also has the workspace ``base`` kind it sits over, that
    base's parameter field ``param`` (``positive`` when it must be), the
    base ``divisors`` of its rings, the base ``gram`` form as a function of
    the parameter, a preset's ``c1`` coordinates, ``from_base`` to build a
    preset from workspace data (rank, parameter, c1 coordinates, c2), and
    the base's ``nef_divisors`` in the divisor basis. Only the
    first-principles cones read the last; the closed forms keep their own
    table in the catalog.
    """

    ranks = ("rank",)
    rank_error = "invalid preset: rank must be at least 2"
    base = param = gram = c1 = from_base = nef_divisors = None
    positive = False
    divisors = ()


_KINDS = {
    PROJ_BUNDLE_OVER_CURVE: _Kind(
        fields=(("rank", _INT), ("degree", _INT)),
        ring=lambda p: build_curve_bundle_ring(p.rank, p.degree),
    ),
    FIBRE_PRODUCT_OVER_CURVE: _Kind(
        fields=(("rank", _INT), ("degree", _INT), ("rank2", _INT), ("degree2", _INT)),
        ranks=("rank", "rank2"),
        rank_error="invalid preset: both ranks must be at least 2",
        ring=lambda p: build_fibre_product_ring(p.rank, p.rank2, p.degree, p.degree2),
    ),
    PROJ_BUNDLE_OVER_SURFACE_RHO1: _Kind(
        fields=(("rank", _INT), ("L2", _RATIONAL), ("e", _RATIONAL), ("c2", _RATIONAL)),
        ring=lambda p: build_lambda_ring_surface(p),
        base="surface_rho1",
        param="L2",
        positive=True,
        divisors=("piL",),
        gram=lambda L2: ((L2,),),
        c1=lambda p: (p.e,),
        from_base=lambda rank, L2, c1, c2: SpacePreset.surface_rho1(rank, L2, *c1, c2),
        nef_divisors=lambda p: ((1,),),
    ),
    PROJ_BUNDLE_OVER_RULED_SURFACE: _Kind(
        fields=(("rank", _INT), ("mu", _RATIONAL), ("c1", _ETA_F), ("c2", _RATIONAL)),
        ring=lambda p: build_lambda_ring_surface(p),
        base="ruled_surface",
        param="mu",
        divisors=("piEta", "piF"),
        gram=lambda mu: ((2 * mu, Fraction(1)), (Fraction(1), Fraction(0))),
        c1=lambda p: p.c1,
        from_base=SpacePreset.ruled_surface,
        # eta - mu*f and f
        nef_divisors=lambda p: ((1, -p.mu), (0, 1)),
    ),
}
