"""Space presets and ring classes, apart from the rewriting engine in ``ring``.

The four space presets differ only through one record each in the kind
table ``_KINDS``: their field shapes, and for surface bases the base
parameter, divisor names, Gram form and c1 coordinates.
"""

from fractions import Fraction
from types import SimpleNamespace

from .errors import InputError, InternalError
from .rationals import _cut, format_linear, format_rational
from .record import Record


def format_monomial(gens, mono):
    parts = []
    for name, exp in zip(gens, mono):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts) if parts else "1"


class NumClass(Record):
    """A homogeneous class: exact rational coefficients over monomials.

    ``coeffs`` maps exponent tuples to nonzero Fractions; zero classes have
    an empty map but keep their degree. Instances are value objects; the
    coefficient map is never mutated after construction.
    """

    __slots__ = ("gens", "degree", "coeffs")

    @property
    def is_zero(self):
        return not self.coeffs

    def terms(self):
        # descending lex = published display order
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def coordinates(self, basis):
        extra = set(self.coeffs).difference(basis)
        if extra:
            extra = ", ".join(format_monomial(self.gens, m) for m in sorted(extra))
            raise InternalError(f"class has terms outside the basis: {extra}")
        return tuple(self.coeffs.get(mono, _ZERO) for mono in basis)

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
        return format_linear((c, format_monomial(self.gens, m)) for m, c in self.terms())


# shared by every read that needs them; a Fraction is immutable
_ZERO, _ONE = Fraction(0), Fraction(1)


PROJ_BUNDLE_OVER_CURVE = "proj_bundle_over_curve"
FIBRE_PRODUCT_OVER_CURVE = "fibre_product_over_curve"
PROJ_BUNDLE_OVER_SURFACE_RHO1 = "proj_bundle_over_surface_rho1"
PROJ_BUNDLE_OVER_RULED_SURFACE = "proj_bundle_over_ruled_surface"


class SpacePreset(Record):
    """One of the supported total spaces, pinned down by numerical data.

    The constructor checks the kind, the field shapes, ranks at least 2 and
    a positive L2; the classmethods coerce their arguments and also demand
    2r*c2 = (r-1)*c1^2 of surface presets (the lambda-basis condition).
    Everything else that differs between kinds (JSON form, rank checks,
    surface base data) comes from the kind's record in the kind table
    ``_KINDS``.
    """

    __slots__ = ("kind", "rank", "degree", "rank2", "degree2", "L2", "e", "c2", "mu", "c1")

    def __init__(
        self, kind, rank=None, degree=None, rank2=None, degree2=None,
        L2=None, e=None, c2=None, mu=None, c1=None,
    ):
        super().__init__(kind, rank, degree, rank2, degree2, L2, e, c2, mu, c1)
        spec = _KINDS.get(kind) if type(kind) is str else None
        if spec is None:
            raise InputError(f"invalid preset: unknown kind {kind!r}")
        shapes = dict(spec.fields)
        for name, value in zip(self.__slots__[1:], self._values()[1:]):
            if not (shapes[name][1](value) if name in shapes else value is None):
                raise InputError(f"invalid preset: bad {name} {value!r} for {kind}")
        for name in spec.ranks:
            if getattr(self, name) < 2:
                raise InputError(spec.rank_error)
        if spec.positive and getattr(self, spec.param) <= 0:
            raise InputError(f"invalid preset: {spec.param} must be positive")

    @classmethod
    def curve(cls, rank, degree):
        return cls(PROJ_BUNDLE_OVER_CURVE, rank=int(rank), degree=int(degree))

    @classmethod
    def fibre_product(cls, m, n, d, d2):
        return cls(
            FIBRE_PRODUCT_OVER_CURVE, rank=int(m), degree=int(d), rank2=int(n), degree2=int(d2)
        )

    @classmethod
    def surface_rho1(cls, rank, L2, e, c2):
        return _require_c2_end_zero(cls(
            PROJ_BUNDLE_OVER_SURFACE_RHO1,
            rank=int(rank),
            L2=Fraction(L2),
            e=Fraction(e),
            c2=Fraction(c2),
        ))

    @classmethod
    def ruled_surface(cls, rank, mu, c1, c2):
        return _require_c2_end_zero(cls(
            PROJ_BUNDLE_OVER_RULED_SURFACE,
            rank=int(rank),
            mu=Fraction(mu),
            c1=tuple(Fraction(x) for x in c1),
            c2=Fraction(c2),
        ))

    @property
    def is_surface(self):
        return _KINDS[self.kind].gram is not None

    def surface(self):
        """The kind record of a surface-base preset; any other is refused."""
        spec = _KINDS[self.kind]
        if spec.gram is None:
            raise InputError("invalid preset: expected a surface-base preset")
        return spec

    @property
    def base_gram(self):
        """Intersection matrix of the base surface's published divisor basis."""
        spec = self.surface()
        return spec.gram(getattr(self, spec.param))

    @property
    def c1_coords(self):
        return self.surface().c1(self)

    @property
    def c2_end(self):
        """Second Chern class of the endomorphism bundle: 2r*c2 - (r-1)*c1^2."""
        gram, coords = self.base_gram, self.c1_coords
        n = len(coords)
        c1_squared = sum(coords[i] * gram[i][j] * coords[j] for i in range(n) for j in range(n))
        return 2 * self.rank * self.c2 - (self.rank - 1) * c1_squared

    def to_json(self):
        out = {"kind": self.kind}
        for name, (write, _) in _KINDS[self.kind].fields:
            out[name] = write(getattr(self, name))
        return out


def _require_c2_end_zero(preset):
    """Refuse a preset unless 2r*c2 = (r-1)*c1^2, tested on the numerators and
    denominators of its fields by integer cross-multiplication; the Fraction
    ``c2_end`` is built only for the message."""
    gram, coords = preset.base_gram, preset.c1_coords
    # c1^2 as num/den, one term c1_i*gram_ij*c1_j at a time
    num, den = 0, 1
    for a, row in zip(coords, gram):
        for g, b in zip(row, coords):
            n = a.numerator * g.numerator * b.numerator
            if n:
                d = a.denominator * g.denominator * b.denominator
                num, den = num * d + n * den, den * d
    r, c2 = preset.rank, preset.c2
    if 2 * r * c2.numerator * den != (r - 1) * num * c2.denominator:
        raise InputError(
            "invalid preset: 2r*c2 - (r-1)*c1^2 must vanish, got "
            + _cut(format_rational(preset.c2_end))
        )
    return preset


# ---------------------------------------------------------------------------
# the kind table


def _eta_f_json(c1):
    return [format_rational(x) for x in c1]


# the JSON writer of each field shape, and the test a field value of that shape passes
_INT = (int, lambda v: type(v) is int)
_RATIONAL = (format_rational, lambda v: type(v) in (int, Fraction))
_ETA_F = (_eta_f_json, lambda v: type(v) is tuple and len(v) == 2 and all(map(_RATIONAL[1], v)))


class _Kind(SimpleNamespace):
    """What sets one preset kind apart: one record of the kind table.

    ``fields`` pairs each field's name with its shape (JSON writer, value
    test), in JSON order; the fields named in ``ranks`` must be at least 2,
    else ``rank_error``. A surface kind also has the workspace ``base`` kind
    it sits over, that base's parameter field ``param`` (``positive`` when it
    must be), the base ``divisors`` of its rings, the base ``gram`` form as a
    function of the parameter, a preset's ``c1`` coordinates, ``from_base``
    to build a preset from workspace data (rank, parameter, c1 coordinates,
    c2), and the base's ``nef_divisors`` in the divisor basis. Only the
    first-principles cones read the last; the closed forms keep their own
    table in the catalog.
    """

    ranks = ("rank",)
    rank_error = "invalid preset: rank must be at least 2"
    base = param = gram = c1 = from_base = nef_divisors = None
    positive = False
    divisors = ()


_KINDS = {
    PROJ_BUNDLE_OVER_CURVE: _Kind(fields=(("rank", _INT), ("degree", _INT))),
    FIBRE_PRODUCT_OVER_CURVE: _Kind(
        fields=(("rank", _INT), ("degree", _INT), ("rank2", _INT), ("degree2", _INT)),
        ranks=("rank", "rank2"),
        rank_error="invalid preset: both ranks must be at least 2",
    ),
    PROJ_BUNDLE_OVER_SURFACE_RHO1: _Kind(
        fields=(("rank", _INT), ("L2", _RATIONAL), ("e", _RATIONAL), ("c2", _RATIONAL)),
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
        base="ruled_surface",
        param="mu",
        divisors=("piEta", "piF"),
        gram=lambda mu: ((2 * mu, _ONE), (_ONE, _ZERO)),
        c1=lambda p: p.c1,
        from_base=SpacePreset.ruled_surface,
        # eta - mu*f and f
        nef_divisors=lambda p: ((1, -p.mu), (0, 1)),
    ),
}
