"""Closed-form nef and pseudoeffective cone constructors.

Every cone a preset space admits in closed form is built here, in the
published monomial bases, together with an independent k-homogeneity
verifier that rederives the same cones from first principles (products of
nef divisor generators on one side, pairing duality on the other) and so
serves as the constructors' oracle.
"""

from functools import lru_cache
from math import gcd, lcm
from operator import add
from types import MappingProxyType

from .cones import Pairing, RationalCone, canonical, primitive
from .errors import InputError, InternalError
from .presets import (
    FIBRE_PRODUCT_OVER_CURVE, PROJ_BUNDLE_OVER_CURVE, PROJ_BUNDLE_OVER_RULED_SURFACE,
    PROJ_BUNDLE_OVER_SURFACE_RHO1, _KINDS, SpacePreset, _require_c2_end_zero,
)
from .record import Record


class ConeReport(Record):
    """Nef and pseudoeffective cones of one space in one codimension.

    ``basis`` lists the monomial labels the coordinates refer to. The nef
    cone is checked to sit inside the pseudoeffective one at construction;
    ``equal`` records whether the two coincide.
    """

    __slots__ = ("space", "k", "basis", "nef", "psef", "equal")

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
    if nef.generators == psef.generators:
        return ConeReport(space, k, tuple(basis), nef, psef, True)
    for g in nef.generators:
        if not psef.contains(g):
            raise InternalError(
                "nef cone escapes the pseudoeffective cone at generator "
                + str(g)
            )
    # nef is inside psef by now, so the cones are equal iff psef is inside nef
    equal = all(nef.contains(g) for g in psef.generators)
    return ConeReport(space, k, tuple(basis), nef, psef, equal)


def _lowest(bundle):
    """(rank, degree) of the minimal-slope quotient: the nef cone's piece."""
    return bundle.quotients[0]


def _highest(bundle):
    """(rank, degree) of the maximal-slope piece: the psef cone's."""
    return bundle.quotients[-1]


def _whole(bundle):
    """(rank, degree) of the bundle itself: a tower stage's piece."""
    return (bundle.rank, bundle.degree)


def _curve_cone(bundles, piece):
    """Cone of the fibre product of curve bundles, in the basis
    (xi_1, ..., xi_n, F): spanned by xi_i - mu_i*F and F, where mu_i is the
    slope of the (rank, degree) pair ``piece(E_i)``.

    With ``_lowest`` this is the nef cone, with ``_highest`` the
    pseudoeffective one. The rank check runs on every call; the cone is
    then looked up by its integer pieces, so it is shared between callers:
    treat it as read-only.
    """
    if any(bundle.rank < 2 for bundle in bundles):
        raise InputError("projectivization needs rank at least 2")
    return _pieces_cone(tuple(map(piece, bundles)))


@lru_cache(maxsize=8)
def _pieces_cone(pieces):
    """The cone of ``_curve_cone`` on one (rank, degree) piece per factor.

    Each factor adds one ray, a primitive integer row, and F comes last. The
    facets are closed-form (Miyaoka; Fulger), in dual-basis order: a_i >= 0
    for each i, then c + sum mu_i*a_i >= 0. Each slope mu_i = d/r (r > 0)
    is taken in lowest terms by integer ``gcd``, with no `Fraction`.
    """
    n = len(pieces)
    slopes = [(d // g, r // g) for r, d in pieces for g in (gcd(r, d),)]
    rows = [
        tuple(den * (j == i) for j in range(n)) + (-num,)
        for i, (num, den) in enumerate(slopes)
    ]
    top = lcm(*(den for _, den in slopes))
    facets = [tuple(int(j == i) for j in range(n + 1)) for i in range(n)]
    facets.append(primitive([top // den * num for num, den in slopes] + [top]))
    return RationalCone(n + 1, rows + [(0,) * n + (1,)], _facets=facets)


def miyaoka_cones(bundle):
    """Nef and pseudoeffective cones of a projectivized bundle over a curve.

    In the basis (xi, f): the nef cone is spanned by xi - mu_min*f and f,
    the pseudoeffective cone by xi - mu_max*f and f; they agree exactly for
    semistable bundles.
    """
    nef = _curve_cone([bundle], _lowest)
    psef = _curve_cone([bundle], _highest)
    return _report(SpacePreset.curve(bundle.rank, bundle.degree), 1, ("xi", "f"), nef, psef)


def nef_fibre_product(first, second):
    """Nef cone of the fibre product, basis (xi, zeta, F): each factor
    contributes its minimal-slope ray."""
    return _curve_cone([first, second], _lowest)


def psef_fibre_product(first, second):
    """Pseudoeffective cone of the fibre product, basis (xi, zeta, F).

    The single closed form uses each factor's maximal slope; for semistable
    factors it collapses onto the nef cone, and for unstable ones the first
    two rays are the classes of the destabilizing subbundle loci.
    """
    return _curve_cone([first, second], _highest)


def fibre_product_cones(first, second):
    """ConeReport of the fibre product, with the two closed forms above."""
    nef = _curve_cone([first, second], _lowest)
    psef = _curve_cone([first, second], _highest)
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
        cone = _curve_cone(tower[:stage], _whole)
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
    and the pullbacks of the base's nef generators, each scaled to a
    primitive integer ray, which spans the same cone."""
    width = len(ring.gens)
    unit = [tuple(int(j == i) for j in range(width)) for i in range(width)]
    rays = preset.surface().nef_divisors(preset)
    return [{unit[0]: 1}] + [
        {unit[1 + j]: c for j, c in enumerate(primitive(ray)) if c} for ray in rays
    ]


def _require_int_k(k):
    # a bool is an int to Python, but not a codimension
    if type(k) is not int:
        raise InputError(f"k must be an integer, got {type(k).__name__}")


def homogeneity_cones(preset, k):
    """First-principles psef and nef cones in codimension k.

    The pseudoeffective side is the nonnegative span of all degree-k
    products of nef divisor generators; the nef side is the dual of the
    complementary-degree pseudoeffective cone under the exact intersection
    pairing. Returns (psef, nef, basis labels). Built independently of the
    closed-form constructors so it can act as their oracle.

    The preset is checked on every call (a surface base, an int k with
    1 <= k < rank, c2(End) = 0). The cones depend only on its kind, rank
    and base parameter (L2 or mu), in two memos of at most 8 entries each:
    the ring and the divisor products of every degree come from one entry
    per (kind, rank, base parameter), shared by every k, and the cones of
    one k from one entry per (kind, rank, base parameter, k). The cones
    returned are shared between callers: treat them as read-only.
    """
    return _checked_cones(preset, k)[:3]


def _checked_cones(preset, k):
    """The ``_derived_cones`` entry of a preset, after the checks that run on
    every call."""
    spec = preset.surface()
    _require_int_k(k)
    r = preset.rank
    if not 1 <= k <= r - 1:
        raise InputError(f"k out of range 1..{r - 1}")
    _require_c2_end_zero(preset)
    return _derived_cones(preset.kind, r, getattr(preset, spec.param), k)


@lru_cache(maxsize=8)
def _product_layers(kind, rank, param):
    """The c1 = 0, c2 = 0 preset of this kind, rank and base parameter, its
    lambda ring, ``layers`` and ``cones``: ``layers[d]`` maps the nondecreasing
    indices of each degree-d product of nef divisor generators that does not
    reduce to zero to its reduced coefficients, for d = 0..rank, and ``cones``
    is a private dict from a degree to its product cone.

    Products are built degree by degree, each reduced degree-d product times
    one divisor giving the degree-(d+1) ones, so each multiset is built once,
    and a product that reduces to zero is pruned with everything that would
    extend it. Nothing here depends on k, so every k of one preset reads one
    entry; it is shared, so its layers are a tuple of read-only mappings, and
    ``cones`` only gains keys, on first use, and holds frozen cones.
    """
    from .ring import _pmul, build_lambda_ring_surface

    spec = _KINDS[kind]
    preset = spec.from_base(rank, param, (0,) * len(spec.divisors), 0)
    ring = build_lambda_ring_surface(preset)
    divisors = _nef_divisor_generators(preset, ring)
    # normal forms respect products, so reducing the prefix first gives the
    # same class. Every product is homogeneous of degree below the dimension,
    # so it goes to the rewriting directly. Coefficients are ints unless the
    # base form is not.
    layers = [MappingProxyType({(): MappingProxyType({(0,) * len(ring.gens): 1})})]
    for _ in range(rank):
        layer = {}
        for key, prev in layers[-1].items():
            for i in range(key[-1] if key else 0, len(divisors)):
                coeffs = ring._reduce(_pmul(prev, divisors[i]))
                if coeffs:
                    layer[key + (i,)] = MappingProxyType(coeffs)
        layers.append(MappingProxyType(layer))
    return preset, ring, tuple(layers), {}


@lru_cache(maxsize=8)
def _derived_cones(kind, rank, param, k):
    """``homogeneity_cones`` of the c1 = 0 preset of this kind, rank and base
    parameter: the degree-k and degree-(rank + 1 - k) layers of its
    ``_product_layers`` entry as product cones, and the pairing dual of the
    second. Returns (psef, nef, basis labels, the c1 = 0 preset)."""
    balanced, ring, layers, cones = _product_layers(kind, rank, param)
    k2 = (rank + 1) - k

    def product_cone(degree):
        if degree not in cones:
            basis = ring.basis(degree)
            rows = [tuple(c.get(m, 0) for m in basis) for c in layers[degree].values()]
            cones[degree] = RationalCone(len(basis), rows)
        return cones[degree]

    psef = product_cone(k)
    psef_complement = product_cone(k2)
    basis_k = ring.basis(k)
    basis_k2 = ring.basis(k2)
    # two basis monomials of complementary degree: their product is reduced as it is
    matrix = [
        [ring._top_coefficient(ring._reduce({tuple(map(add, m2, m1)): 1})) for m1 in basis_k]
        for m2 in basis_k2
    ]
    nef = psef_complement.dual(Pairing(matrix))
    return psef, nef, ring.basis_labels(k), balanced


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
    psef, nef, labels, balanced = _checked_cones(preset, k)
    if k != 1:
        # the cones depend only on rank and L2/mu; k > 1 reports name the c1 = 0 preset
        preset = balanced
    closed = _CLOSED_FORMS[preset.kind](preset, k)
    # identical canonical generators are one cone; only other ones are built
    closed = psef if canonical(closed) == psef.generators else RationalCone(len(labels), closed)
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
    _require_int_k(k)
    if preset.is_surface:
        return surface_cone_report(preset, k)
    report, message = _CURVE_SPACES[preset.kind]
    if k != 1:
        raise InputError(message)
    return report(*factors)
