"""Closed-form nef and pseudoeffective cone constructors.

Every cone a preset space admits in closed form is built here, in the
published monomial bases, together with an independent k-homogeneity
verifier that rederives the same cones from first principles (products of
nef divisor generators on one side, pairing duality on the other) and so
serves as the constructors' oracle.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import bundles as bn
from .cones import Pairing, RationalCone
from .errors import InputError, InternalError
from .ring import (
    PROJ_BUNDLE_OVER_RULED_SURFACE,
    PROJ_BUNDLE_OVER_SURFACE_RHO1,
    SpacePreset,
    _KINDS,
    _pmul,
    build_lambda_ring_surface,
)


@dataclass(frozen=True)
class ConeReport:
    """Nef and pseudoeffective cones of one space in one codimension.

    ``basis`` lists the monomial labels the coordinates refer to. The nef
    cone is checked to sit inside the pseudoeffective one at construction;
    ``equal`` records whether the two coincide.
    """

    space: SpacePreset
    k: int
    basis: tuple
    nef: RationalCone
    psef: RationalCone
    equal: bool

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


def miyaoka_cones(bundle):
    """Nef and pseudoeffective cones of a projectivized bundle over a curve.

    In the basis (xi, f): the nef cone is spanned by xi - mu_min*f and f,
    the pseudoeffective cone by xi - mu_max*f and f; they agree exactly for
    semistable bundles.
    """
    if bundle.rank < 2:
        raise InputError("projectivization needs rank at least 2")
    preset = SpacePreset.curve(bundle.rank, bundle.degree)
    nef = RationalCone(2, [(1, -bn.mu_min(bundle)), (0, 1)])
    psef = RationalCone(2, [(1, -bn.mu_max(bundle)), (0, 1)])
    return _report(preset, 1, ("xi", "f"), nef, psef)


def _check_ranks(first, second):
    if first.rank < 2 or second.rank < 2:
        raise InputError("projectivization needs rank at least 2")


def nef_fibre_product(first, second):
    """Nef cone of the fibre product, basis (xi, zeta, F): each factor
    contributes its minimal-slope ray."""
    _check_ranks(first, second)
    return RationalCone(
        3,
        [(1, 0, -bn.mu_min(first)), (0, 1, -bn.mu_min(second)), (0, 0, 1)],
    )


def psef_fibre_product(first, second):
    """Pseudoeffective cone of the fibre product, basis (xi, zeta, F).

    The single closed form uses each factor's maximal slope; for semistable
    factors it collapses onto the nef cone, and for unstable ones the first
    two rays are the classes of the destabilizing subbundle loci.
    """
    _check_ranks(first, second)
    return RationalCone(
        3,
        [(1, 0, -bn.mu_max(first)), (0, 1, -bn.mu_max(second)), (0, 0, 1)],
    )


def fibre_product_cones(first, second):
    """ConeReport wrapper around the two fibre product closed forms."""
    _check_ranks(first, second)
    return _report(
        SpacePreset.fibre_product(first.rank, second.rank, first.degree, second.degree),
        1,
        ("xi", "zeta", "F"),
        nef_fibre_product(first, second),
        psef_fibre_product(first, second),
    )


def iterated_fibre_product_cones(tower):
    """Cone reports up a tower of fibre products of semistable bundles.

    Stage s lives on the fibre product of the first s bundles; in the basis
    (xi_1, ..., xi_s, F) its common nef = psef cone is spanned by the classes
    xi_i - mu_i*F together with F, so the stage at list index i carries i + 2
    generators. An empty tower yields the base curve's single-generator
    report; any unstable bundle is rejected.
    """
    tower = list(tower)
    for bundle in tower:
        if bundle.rank < 2:
            raise InputError("projectivization needs rank at least 2")
        if not bundle.semistable:
            raise InputError(
                f"bundle {bundle.name!r} is unstable; the tower construction "
                "requires every bundle to be semistable"
            )
    if not tower:
        ample = RationalCone(1, [(1,)])
        return [_report(None, 1, ("pt",), ample, ample)]
    reports = []
    for stage in range(1, len(tower) + 1):
        dim = stage + 1
        gens = []
        for i in range(stage):
            mu = bn.slope(tower[i])
            vec = [Fraction(0)] * dim
            vec[i] = Fraction(1)
            vec[-1] = -mu
            gens.append(tuple(vec))
        gens.append(tuple([Fraction(0)] * (dim - 1) + [Fraction(1)]))
        cone = RationalCone(dim, gens)
        labels = tuple(f"xi{i + 1}" for i in range(stage)) + ("F",)
        preset = None
        if stage == 1:
            preset = SpacePreset.curve(tower[0].rank, tower[0].degree)
        elif stage == 2:
            preset = SpacePreset.fibre_product(
                tower[0].rank, tower[1].rank, tower[0].degree, tower[1].degree
            )
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
    pairing. Returns (psef, nef, basis labels). Built independently of the
    closed-form constructors so it can act as their oracle.
    """
    if not preset.is_surface:
        raise InputError("invalid preset: expected a surface-base preset")
    r = preset.rank
    if not 1 <= k <= r - 1:
        raise InputError(f"k out of range 1..{r - 1}")
    ring = build_lambda_ring_surface(preset)
    divisors = _nef_divisor_generators(preset, ring)
    width = len(ring.gens)

    def product_cone(degree):
        basis = ring.basis(degree)
        vectors = []
        for combo in combinations_with_replacement(range(len(divisors)), degree):
            poly = {(0,) * width: Fraction(1)}
            for i in combo:
                poly = _pmul(poly, divisors[i])
            cls = ring.normal_form(poly, degree=degree)
            if not cls.is_zero:
                vectors.append(cls.coordinates(basis))
        return RationalCone(len(basis), vectors)

    k2 = (r + 1) - k
    psef = product_cone(k)
    psef_complement = product_cone(k2)
    basis_k = ring.basis(k)
    basis_k2 = ring.basis(k2)
    matrix = [
        [ring.degree_eval({tuple(a + b for a, b in zip(m2, m1)): Fraction(1)}) for m1 in basis_k]
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
