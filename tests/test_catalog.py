"""Closed-form cone constructors and the k-homogeneity oracle."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import floor

import pytest
from hypothesis import example, given, settings
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


# --- differential test: one curve rule against the literal closed forms


RANK_ERROR = "projectivization needs rank at least 2"


@st.composite
def hn_bundles(draw):
    """A bundle of rank 1 to 5 with a valid quotient ladder, slopes rising."""
    left = draw(st.integers(1, 5))
    quotients = []
    while left:
        rank = draw(st.integers(1, left))
        left -= rank
        low = -6
        if quotients:
            low = floor(Fraction(quotients[-1][1], quotients[-1][0]) * rank) + 1
        quotients.append((rank, draw(st.integers(low, low + 4))))
    rank = sum(r for r, _ in quotients)
    return HNCurveBundle(rank, sum(d for _, d in quotients), quotients)


semistable = st.builds(HNCurveBundle, st.integers(2, 5), st.integers(-6, 6))


def _slopes(bundle):
    """(mu_min, mu_max, slope) read off the ladder."""
    (r0, d0), (r1, d1) = bundle.quotients[0], bundle.quotients[-1]
    return Fraction(d0, r0), Fraction(d1, r1), Fraction(bundle.degree, bundle.rank)


def _literal_report(space, basis, nef_rows, psef_rows, equal):
    nef, psef = RationalCone(len(basis), nef_rows), RationalCone(len(basis), psef_rows)
    payload = {"space": space, "k": 1, "basis": list(basis), "equal": equal}
    payload.update(nef=nef.to_json(), psef=psef.to_json())
    return payload, nef, psef


def _tower_expected(tower):
    """The error the tower raises first, in list order, or its stage reports."""
    for bundle in tower:
        if bundle.rank < 2:
            return RANK_ERROR
        if not bundle.semistable:
            return "unstable"
    stages = []
    for stage in range(1, len(tower) + 1):
        rows = [
            tuple(int(j == i) for j in range(stage)) + (-_slopes(tower[i])[2],)
            for i in range(stage)
        ]
        rows.append((0,) * stage + (1,))
        first = tower[0]
        space = {"kind": "curve_base"}
        if stage == 1:
            space = SpacePreset.curve(first.rank, first.degree).to_json()
        elif stage == 2:
            second = tower[1]
            space = SpacePreset.fibre_product(
                first.rank, second.rank, first.degree, second.degree
            ).to_json()
        basis = [f"xi{i + 1}" for i in range(stage)] + ["F"]
        stages.append(_literal_report(space, basis, rows, rows, True))
    return stages


LINE = HNCurveBundle(1, 3)
UNSTABLE = HNCurveBundle(2, 0, [(1, -1), (1, 1)])


@settings(max_examples=120, deadline=None)
@given(hn_bundles(), hn_bundles(), st.lists(st.one_of(hn_bundles(), semistable), max_size=4))
# the rank error comes first, per bundle in list order
@example(LINE, UNSTABLE, [LINE, UNSTABLE])
@example(UNSTABLE, LINE, [UNSTABLE, LINE])
def test_curve_cones_match_literal_formulas(first, second, tower):
    lo1, hi1, _ = _slopes(first)
    lo2, hi2, _ = _slopes(second)
    if first.rank < 2:
        with pytest.raises(InputError, match=f"^{RANK_ERROR}$"):
            miyaoka_cones(first)
    else:
        want, nef, psef = _literal_report(
            SpacePreset.curve(first.rank, first.degree).to_json(),
            ("xi", "f"),
            [(1, -lo1), (0, 1)],
            [(1, -hi1), (0, 1)],
            first.semistable,
        )
        report = miyaoka_cones(first)
        assert report.to_json() == want
        assert (report.nef.generators, report.psef.generators) == (nef.generators, psef.generators)

    pair_calls = (fibre_product_cones, nef_fibre_product, psef_fibre_product)
    if first.rank < 2 or second.rank < 2:
        for call in pair_calls:
            with pytest.raises(InputError, match=f"^{RANK_ERROR}$"):
                call(first, second)
    else:
        want, nef, psef = _literal_report(
            SpacePreset.fibre_product(
                first.rank, second.rank, first.degree, second.degree
            ).to_json(),
            ("xi", "zeta", "F"),
            [(1, 0, -lo1), (0, 1, -lo2), (0, 0, 1)],
            [(1, 0, -hi1), (0, 1, -hi2), (0, 0, 1)],
            first.semistable and second.semistable,
        )
        report = fibre_product_cones(first, second)
        assert report.to_json() == want
        assert (report.nef.generators, report.psef.generators) == (nef.generators, psef.generators)
        assert nef_fibre_product(first, second).generators == nef.generators
        assert psef_fibre_product(first, second).generators == psef.generators

    expected = _tower_expected(tower)
    if isinstance(expected, str):
        with pytest.raises(InputError, match=expected):
            iterated_fibre_product_cones(tower)
        return
    reports = iterated_fibre_product_cones(tower)
    if not tower:
        assert [r.to_json()["basis"] for r in reports] == [["pt"]]
        return
    assert len(reports) == len(expected)
    for report, (want, nef, _) in zip(reports, expected):
        assert report.to_json() == want
        assert report.nef.generators == report.psef.generators == nef.generators


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
