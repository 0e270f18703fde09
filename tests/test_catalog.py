"""Closed-form cone constructors and the k-homogeneity oracle."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecalc.bundles import HNCurveBundle
from conecalc.catalog import (
    _nef_divisor_generators,
    fibre_product_cones,
    homogeneity_cones,
    iterated_fibre_product_cones,
    k_homogeneous_check,
    miyaoka_cones,
    nef_fibre_product,
    psef_fibre_product,
    surface_cone_report,
)
from conecalc.cones import Pairing, RationalCone
from conecalc.errors import InputError
from conecalc.ring import SpacePreset, _pmul, build_lambda_ring_surface


def rho1(rank, L2, e=0):
    c2 = Fraction((rank - 1) * e * e, 2 * rank) * Fraction(L2)
    return SpacePreset.surface_rho1(rank, L2, e, c2)


def ruled(rank, mu, c1=(0, 0)):
    mu = Fraction(mu)
    x, y = c1
    c1sq = 2 * mu * x * x + 2 * x * y
    return SpacePreset.ruled_surface(rank, mu, c1, Fraction(rank - 1, 2 * rank) * c1sq)


# --- curve base ------------------------------------------------------------


def test_miyaoka_semistable():
    report = miyaoka_cones(HNCurveBundle(2, 0))
    assert report.basis == ("xi", "f")
    assert report.k == 1
    assert report.equal
    assert report.nef == RationalCone(2, [(1, 0), (0, 1)])

    steep = miyaoka_cones(HNCurveBundle(2, 3))
    assert steep.equal
    assert steep.nef.generators == ((2, -3), (0, 1))


def test_miyaoka_unstable():
    report = miyaoka_cones(HNCurveBundle(2, 0, [(1, -1), (1, 1)]))
    assert not report.equal
    assert report.nef == RationalCone(2, [(1, 1), (0, 1)])
    assert report.psef == RationalCone(2, [(1, -1), (0, 1)])
    for g in report.nef.generators:
        assert report.psef.contains(g)


def test_miyaoka_rejects_lines():
    with pytest.raises(InputError):
        miyaoka_cones(HNCurveBundle(1, 5))


def test_nef_fibre_product_examples():
    both_trivial = nef_fibre_product(HNCurveBundle(2, 0), HNCurveBundle(2, 0))
    assert both_trivial.generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    mixed = nef_fibre_product(
        HNCurveBundle(2, 0, [(1, -1), (1, 1)]), HNCurveBundle(2, 0)
    )
    assert mixed == RationalCone(3, [(1, 0, 1), (0, 1, 0), (0, 0, 1)])

    slopes = nef_fibre_product(HNCurveBundle(3, 2), HNCurveBundle(2, 1))
    assert slopes == RationalCone(3, [(3, 0, -2), (0, 2, -1), (0, 0, 1)])


def test_psef_fibre_product_examples():
    one = psef_fibre_product(
        HNCurveBundle(2, 0, [(1, -1), (1, 1)]), HNCurveBundle(2, 0)
    )
    assert one == RationalCone(3, [(1, 0, -1), (0, 1, 0), (0, 0, 1)])

    unstable = HNCurveBundle(2, 0, [(1, -1), (1, 1)])
    both = psef_fibre_product(unstable, unstable)
    assert both == RationalCone(3, [(1, 0, -1), (0, 1, -1), (0, 0, 1)])

    a, b = HNCurveBundle(3, 2), HNCurveBundle(2, 1)
    assert psef_fibre_product(a, b) == nef_fibre_product(a, b)


def test_fibre_product_report_equal_iff_semistable():
    ss = HNCurveBundle(2, 0)
    un = HNCurveBundle(2, 0, [(1, -1), (1, 1)])
    assert fibre_product_cones(ss, ss).equal
    assert not fibre_product_cones(un, ss).equal
    assert not fibre_product_cones(un, un).equal
    report = fibre_product_cones(un, ss)
    assert report.basis == ("xi", "zeta", "F")
    for g in report.nef.generators:
        assert report.psef.contains(g)


def test_tower_reports():
    tower = [HNCurveBundle(2, 0), HNCurveBundle(2, 3), HNCurveBundle(3, -1)]
    reports = iterated_fibre_product_cones(tower)
    assert len(reports) == 3
    for i, report in enumerate(reports):
        assert report.equal
        assert len(report.nef.generators) == i + 2
        assert report.basis[-1] == "F"
    # single-bundle stage matches the curve-base closed form
    solo = iterated_fibre_product_cones([HNCurveBundle(2, 3)])[0]
    assert solo.nef == miyaoka_cones(HNCurveBundle(2, 3)).nef
    # two-bundle stage matches the fibre product closed form
    pair = iterated_fibre_product_cones(tower[:2])[1]
    assert pair.nef == nef_fibre_product(tower[0], tower[1])


def test_tower_empty_and_unstable():
    base = iterated_fibre_product_cones([])
    assert len(base) == 1 and len(base[0].nef.generators) == 1
    spoiled = [HNCurveBundle(2, 0), HNCurveBundle(2, 0, [(1, -1), (1, 1)])]
    with pytest.raises(InputError) as err:
        iterated_fibre_product_cones(spoiled)
    assert "unstable" in str(err.value)


# --- surface base ----------------------------------------------------------


def test_eff_k_rho1_pairing_matrix():
    """Frozen pairing matrix for rank 3, k = 2, L^2 = 1."""
    ring = build_lambda_ring_surface(rho1(3, 1))
    basis = ring.basis(2)
    matrix = [
        [
            ring.degree_eval({tuple(a + b for a, b in zip(m1, m2)): 1})
            for m2 in basis
        ]
        for m1 in basis
    ]
    assert matrix == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_eff_k_rho1_rank4_antidiagonal():
    L2 = Fraction(3)
    ring = build_lambda_ring_surface(rho1(4, L2))
    rows = ring.basis(3)
    cols = ring.basis(2)
    matrix = [
        [
            ring.degree_eval({tuple(a + b for a, b in zip(m1, m2)): 1})
            for m2 in cols
        ]
        for m1 in rows
    ]
    assert matrix == [[0, 0, 1], [0, L2, 0], [1, 0, 0]]


def test_eff_k_rho1_reports():
    for rank in (3, 4, 5):
        for k in range(2, rank):
            report = surface_cone_report(rho1(rank, 2), k)
            assert report.equal
            assert report.psef == RationalCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(InputError, match=r"k out of range 1\.\.2"):
        surface_cone_report(rho1(3, 1), 0)
    with pytest.raises(InputError, match=r"k out of range 1\.\.2"):
        surface_cone_report(rho1(3, 1), 3)


def test_eff_k_ruled_reports():
    zero = surface_cone_report(ruled(3, 0), 2)
    assert zero.equal
    assert zero.psef == RationalCone(
        4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    one = surface_cone_report(ruled(3, 1), 2)
    assert one.equal
    assert (0, 1, -1, 0) in one.psef.generators
    assert one.basis == ("lambda^2", "lambda*piEta", "lambda*piF", "F")
    negative = surface_cone_report(ruled(4, Fraction(-5, 2)), 3)
    assert negative.equal


def test_k_homogeneous_check_examples():
    assert k_homogeneous_check(rho1(3, 1), 2)
    assert k_homogeneous_check(ruled(4, Fraction(1, 2), (2, 1)), 3)
    assert k_homogeneous_check(rho1(2, 1), 1)


def test_homogeneity_cones_shape():
    psef, nef, labels = homogeneity_cones(rho1(3, 2, 3), 1)
    assert labels == ("lambda", "piL")
    assert psef == nef
    with pytest.raises(InputError):
        homogeneity_cones(rho1(3, 1), 3)
    with pytest.raises(InputError):
        homogeneity_cones(SpacePreset.curve(2, 0), 1)


def test_surface_cone_report_dispatch():
    divisor = surface_cone_report(rho1(3, 2), 1)
    assert divisor.k == 1 and divisor.equal
    assert divisor.basis == ("lambda", "piL")

    ruled_divisor = surface_cone_report(ruled(3, Fraction(3, 2)), 1)
    assert ruled_divisor.equal
    assert ruled_divisor.psef == RationalCone(3, [(1, 0, 0), (0, 2, -3), (0, 0, 1)])

    deep = surface_cone_report(rho1(4, 1), 2)
    assert deep.k == 2 and deep.equal
    assert deep.basis == ("lambda^2", "lambda*piL", "F")


def test_constructors_match_first_principles():
    for rank in (3, 4):
        for k in range(2, rank):
            report = surface_cone_report(rho1(rank, 3), k)
            psef, nef, _ = homogeneity_cones(rho1(rank, 3), k)
            assert report.psef == psef and report.nef == nef
            ruled_report = surface_cone_report(ruled(rank, Fraction(-1, 2)), k)
            psef, nef, _ = homogeneity_cones(ruled(rank, Fraction(-1, 2)), k)
            assert ruled_report.psef == psef and ruled_report.nef == nef


def test_report_json_shape():
    report = fibre_product_cones(HNCurveBundle(2, 0), HNCurveBundle(2, 1))
    payload = report.to_json()
    assert payload["k"] == 1
    assert payload["basis"] == ["xi", "zeta", "F"]
    assert payload["equal"] is True
    restored = RationalCone.from_json(payload["nef"])
    assert restored == report.nef


# --- differential test: degree-by-degree products against a from-scratch build


def _from_scratch_cones(preset, k):
    """Reference cones: every degree-k product multiplied out from 1 and
    reduced once; nef is the pairing dual of the complementary-degree
    cone."""
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

    k2 = preset.rank + 1 - k
    matrix = [
        [ring.degree_eval({tuple(a + b for a, b in zip(m2, m1)): 1}) for m1 in ring.basis(k)]
        for m2 in ring.basis(k2)
    ]
    return product_cone(k), product_cone(k2).dual(Pairing(matrix))


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def balanced_presets_with_k(draw):
    rank = draw(st.integers(2, 6))
    if draw(st.booleans()):
        L2 = draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)))
        preset = rho1(rank, L2, draw(small_rationals))
    else:
        c1 = (draw(small_rationals), draw(small_rationals))
        preset = ruled(rank, draw(small_rationals), c1)
    return preset, draw(st.integers(1, rank - 1))


@settings(max_examples=80, deadline=None)
@given(balanced_presets_with_k())
def test_incremental_products_equal_from_scratch(case):
    preset, k = case
    psef, nef, _ = homogeneity_cones(preset, k)
    want_psef, want_nef = _from_scratch_cones(preset, k)
    for got, want in ((psef, want_psef), (nef, want_nef)):
        assert got.to_json() == want.to_json()
        assert got._facets == want._facets
