"""Closed-form nef and pseudoeffective cone constructors.

Every cone a preset space admits in closed form is built here, in the
published monomial bases, together with an independent k-homogeneity
verifier that rederives the same cones from first principles (products of
nef divisor generators on one side, pairing duality on the other) and so
serves as the constructors' oracle.
"""

from fractions import Fraction

from . import bundles as bn
from .cones import Pairing, RationalCone
from .errors import InputError, InternalError
from .record import Record
from .ring import (
    FIBRE_PRODUCT_OVER_CURVE,
    PROJ_BUNDLE_OVER_CURVE,
    PROJ_BUNDLE_OVER_RULED_SURFACE,
    PROJ_BUNDLE_OVER_SURFACE_RHO1,
    NumClass,
    SpacePreset,
    _KINDS,
    _pmul,
    build_lambda_ring_surface,
)


class ConeReport(Record):
    """Nef and pseudoeffective cones of one space in one codimension.

    ``basis`` lists the monomial labels the coordinates refer to. The nef
    cone is checked to sit inside the pseudoeffective one at construction;
    ``equal`` records whether the two coincide.
    """

    __slots__ = ("space", "k", "basis", "nef", "psef", "equal")

    def __init__(self, space, k, basis, nef, psef, equal):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "nef", nef)
        object.__setattr__(self, "psef", psef)
        object.__setattr__(self, "equal", equal)

    def to_json(self):
        return {
            "space": self.space.to_json() if self.space else {"kind": "curve_base"},
            "k": self.k,
            "basis": list(self.basis),
            "nef": self.nef.to_json(),
            "psef": self.psef.to_json(),
            "equal": self.equal,
        }


def _report(space, k, basis, nef, psef):
    for g in nef.generators:
        if not psef.contains(g):
            raise InternalError(
                "nef cone escapes the pseudoeffective cone at generator "
                + str(g)
            )
    # nef is inside psef by now, so the cones are equal iff psef is inside nef
    equal = all(nef.contains(g) for g in psef.generators)
    return ConeReport(space, k, tuple(basis), nef, psef, equal)


def _curve_cone(bundles, mu):
    """Cone of the fibre product of curve bundles, in the basis
    (xi_1, ..., xi_n, F): spanned by xi_i - mu(E_i)*F and F.

    With mu = mu_min this is the nef cone, with mu = mu_max the
    pseudoeffective one; each factor adds one ray and F comes last.
    """
    if any(bundle.rank < 2 for bundle in bundles):
        raise InputError("projectivization needs rank at least 2")
    n = len(bundles)
    rows = [tuple(int(j == i) for j in range(n)) + (-mu(b),) for i, b in enumerate(bundles)]
    return RationalCone(n + 1, rows + [(0,) * n + (1,)])


def miyaoka_cones(bundle):
    """Nef and pseudoeffective cones of a projectivized bundle over a curve.

    In the basis (xi, f): the nef cone is spanned by xi - mu_min*f and f,
    the pseudoeffective cone by xi - mu_max*f and f; they agree exactly for
    semistable bundles.
    """
    nef = _curve_cone([bundle], bn.mu_min)
    psef = _curve_cone([bundle], bn.mu_max)
    return _report(SpacePreset.curve(bundle.rank, bundle.degree), 1, ("xi", "f"), nef, psef)


def nef_fibre_product(first, second):
    """Nef cone of the fibre product, basis (xi, zeta, F): each factor
    contributes its minimal-slope ray."""
    return _curve_cone([first, second], bn.mu_min)


def psef_fibre_product(first, second):
    """Pseudoeffective cone of the fibre product, basis (xi, zeta, F).

    The single closed form uses each factor's maximal slope; for semistable
    factors it collapses onto the nef cone, and for unstable ones the first
    two rays are the classes of the destabilizing subbundle loci.
    """
    return _curve_cone([first, second], bn.mu_max)


def fibre_product_cones(first, second):
    """ConeReport of the fibre product, with the two closed forms above."""
    nef = _curve_cone([first, second], bn.mu_min)
    psef = _curve_cone([first, second], bn.mu_max)
    preset = SpacePreset.fibre_product(first.rank, second.rank, first.degree, second.degree)
    return _report(preset, 1, ("xi", "zeta", "F"), nef, psef)


def iterated_fibre_product_cones(tower):
    """Cone reports up a tower of fibre products of semistable bundles.

    Stage s lives on the fibre product of the first s bundles; in the basis
    (xi_1, ..., xi_s, F) its common nef = psef cone is spanned by the classes
    xi_i - mu_i*F together with F, so the stage at list index i carries i + 2
    generators. An empty tower yields the base curve's single-generator
    report; any unstable bundle is rejected.
    """
    tower = list(tower)
    if not tower:
        ample = RationalCone(1, [(1,)])
        return [_report(None, 1, ("pt",), ample, ample)]
    first = tower[0]
    reports = []
    for stage, bundle in enumerate(tower, 1):
        # the rank check runs in _curve_cone, so each bundle is checked in list order
        cone = _curve_cone(tower[:stage], bn.slope)
        if not bundle.semistable:
            raise InputError(
                f"bundle {bundle.name!r} is unstable; the tower construction "
                "requires every bundle to be semistable"
            )
        preset = None
        if stage == 1:
            preset = SpacePreset.curve(first.rank, first.degree)
        elif stage == 2:
            preset = SpacePreset.fibre_product(
                first.rank, bundle.rank, first.degree, bundle.degree
            )
        labels = tuple(f"xi{i + 1}" for i in range(stage)) + ("F",)
        reports.append(_report(preset, 1, labels, cone, cone))
    return reports


def _nef_divisor_generators(preset, ring):
    """Degree-1 generators of the nef cone in the lambda-basis ring: lambda
    and the pullbacks of the base's nef generators."""
    width = len(ring.gens)
    unit = [tuple(int(j == i) for j in range(width)) for i in range(width)]
    rays = _KINDS[preset.kind].nef_divisors(preset)
    return [{unit[0]: Fraction(1)}] + [
        {unit[1 + j]: Fraction(c) for j, c in enumerate(ray) if c} for ray in rays
    ]


def homogeneity_cones(preset, k):
    """First-principles psef and nef cones in codimension k.

    The pseudoeffective side is the nonnegative span of all degree-k
    products of nef divisor generators; the nef side is the dual of the
    complementary-degree pseudoeffective cone under the exact intersection
    pairing. Products are built degree by degree, each reduced degree-d
    product times one divisor giving the degree-(d+1) ones, and a product
    that reduces to zero is pruned with everything that would extend it.
    Returns (psef, nef, basis labels). Built independently of the
    closed-form constructors so it can act as their oracle.
    """
    if not preset.is_surface:
        raise InputError("invalid preset: expected a surface-base preset")
    r = preset.rank
    if not 1 <= k <= r - 1:
        raise InputError(f"k out of range 1..{r - 1}")
    ring = build_lambda_ring_surface(preset)
    divisors = _nef_divisor_generators(preset, ring)
    k2 = (r + 1) - k
    # layers[d]: reduced nonzero degree-d products keyed by their nondecreasing
    # divisor indices, so each multiset is built once; normal forms respect
    # products, so reducing the prefix first gives the same class
    layers = [{(): NumClass(ring.gens, 0, {(0,) * len(ring.gens): Fraction(1)})}]
    for degree in range(1, max(k, k2) + 1):
        layer = {}
        for key, prev in layers[-1].items():
            for i in range(key[-1] if key else 0, len(divisors)):
                product = NumClass(ring.gens, degree, _pmul(prev.coeffs, divisors[i]))
                cls = ring.normal_form(product)
                if not cls.is_zero:
                    layer[key + (i,)] = cls
        layers.append(layer)

    def product_cone(degree):
        basis = ring.basis(degree)
        return RationalCone(len(basis), [c.coordinates(basis) for c in layers[degree].values()])

    psef = product_cone(k)
    psef_complement = product_cone(k2)
    basis_k = ring.basis(k)
    basis_k2 = ring.basis(k2)
    matrix = [
        [
            ring.degree_eval(
                NumClass(ring.gens, ring.dim, {tuple(a + b for a, b in zip(m2, m1)): Fraction(1)})
            )
            for m1 in basis_k
        ]
        for m2 in basis_k2
    ]
    nef = psef_complement.dual(Pairing(matrix))
    return psef, nef, ring.basis_labels(k)


def k_homogeneous_check(preset, k):
    """True when the codimension-k psef and nef cones coincide, derived from
    first principles only."""
    psef, nef, _ = homogeneity_cones(preset, k)
    return psef == nef


# Literal psef generators of each surface kind in codimension k: lambda and
# the pulled-back base rays for k = 1, the monomial basis of homogeneity_cones
# for 1 < k < rank. They are written here, apart from the kind table that
# homogeneity_cones reads, so that either side checks the other.
_CLOSED_FORMS = {
    PROJ_BUNDLE_OVER_SURFACE_RHO1: lambda p, k: (
        ((1, 0), (0, 1)) if k == 1 else ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ),
    # the base rays eta - mu*f and f
    PROJ_BUNDLE_OVER_RULED_SURFACE: lambda p, k: (
        ((1, 0, 0), (0, 1, -p.mu), (0, 0, 1))
        if k == 1
        else ((1, 0, 0, 0), (0, 1, -p.mu, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ),
}


def surface_cone_report(preset, k):
    """Codimension-k report for a surface preset, 1 <= k < rank.

    The psef side is the kind's closed form, checked against the product
    cone of ``homogeneity_cones``; the nef side is that function's pairing
    dual, so the report's equality flag is evidence, not fiat.
    """
    if not preset.is_surface:
        raise InputError("invalid preset: expected a surface-base preset")
    spec = _KINDS[preset.kind]
    if k != 1:
        # the cones depend only on rank and L2/mu; k > 1 reports name the c1 = 0 preset
        zeros = (0,) * len(spec.divisors)
        preset = spec.from_base(preset.rank, getattr(preset, spec.param), zeros, 0)
    psef, nef, labels = homogeneity_cones(preset, k)
    closed = RationalCone(len(labels), _CLOSED_FORMS[preset.kind](preset, k))
    if psef != closed:
        raise InternalError("closed-form cone drifted from the product cone")
    return _report(preset, k, labels, nef, closed)


# the report of each curve-base kind on its factors, and the error for k != 1
_CURVE_SPACES = {
    PROJ_BUNDLE_OVER_CURVE: (miyaoka_cones, "curve spaces only carry k = 1 divisor cones"),
    FIBRE_PRODUCT_OVER_CURVE: (
        fibre_product_cones,
        "fibre product cones are computed for k = 1 only",
    ),
}


def cone_report(preset, k, factors):
    """Codimension-k report of any preset; ``factors`` are the bundles it
    was built from, which the curve-base reports read."""
    if preset.is_surface:
        return surface_cone_report(preset, k)
    report, message = _CURVE_SPACES[preset.kind]
    if k != 1:
        raise InputError(message)
    return report(*factors)
