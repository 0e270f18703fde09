"""Closed-form cone constructors and the k-homogeneity oracle."""

import copy
import pickle
from fractions import Fraction
from itertools import combinations_with_replacement
from math import floor, lcm
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecalc import bundles as bn
from conecalc.bundles import HNCurveBundle
from conecalc.catalog import (
    _curve_cone,
    _derived_cones,
    _highest,
    _lowest,
    _pieces_cone,
    _product_layers,
    _whole,
    cone_report,
    fibre_product_cones,
    homogeneity_cones,
    iterated_fibre_product_cones,
    k_homogeneous_check,
    miyaoka_cones,
    nef_fibre_product,
    psef_fibre_product,
    surface_cone_report,
)
from conecalc.cones import Pairing, RationalCone, _dd_rays, _dual_basis, primitive
from conecalc.errors import InputError
from conecalc.presets import PROJ_BUNDLE_OVER_SURFACE_RHO1
from conecalc.ring import (
    IntersectionRing, NumClass, SpacePreset, _pmul, build_lambda_ring_surface,
)
from conecalc.zariski import ZariskiCertificate, _divisor, decompose, verify


def rho1(rank, L2, e=0):
    c2 = Fraction((rank - 1) * e * e, 2 * rank) * Fraction(L2)
    return SpacePreset.surface_rho1(rank, L2, e, c2)


def top_monomial_value(ring, m1, m2):
    """degree_eval of the top-degree product of two basis monomials."""
    mono = tuple(a + b for a, b in zip(m1, m2))
    return ring.degree_eval(NumClass(ring.gens, ring.dim, {mono: Fraction(1)}))


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


@st.composite
def curve_factors(draw):
    """1 to 5 bundles of rank at least 2 from a pool of at most three, so
    that slopes repeat; ladders reach down to slope -6."""
    pool = draw(st.lists(hn_bundles().filter(lambda b: b.rank >= 2), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))


# each (rank, degree) selector of _curve_cone with the slope it stands for
SELECTORS = [(_lowest, bn.mu_min), (_highest, bn.mu_max), (_whole, bn.slope)]


@settings(max_examples=150, deadline=None)
@given(
    curve_factors(),
    st.sampled_from(SELECTORS),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6), min_size=6, max_size=6),
)
def test_closed_form_facets_equal_the_computed_ones(bundles, selector, probe):
    piece, mu = selector
    cone = _curve_cone(bundles, piece)
    dim = cone.dim
    # the cone as built from the literal rows xi_i - mu_i*F and F, facets computed
    rows = [tuple(int(j == i) for j in range(dim - 1)) + (-mu(b),) for i, b in enumerate(bundles)]
    computed = RationalCone(dim, rows + [(0,) * (dim - 1) + (1,)])
    assert cone.generators == computed.generators
    assert cone._facets == _dual_basis(cone.generators, dim) == computed._facets
    facets, lineality = _dd_rays(list(cone.generators), dim)
    assert (tuple(facets), lineality, cone._span_normals) == (cone._facets, [], ())
    # so a rejection names the same first facet, with the same value
    vector = probe[:dim]
    assert cone.violated_constraint(vector) == computed.violated_constraint(vector)


def test_rank_check_runs_on_a_warm_memo():
    # the top piece (1, 1) of UNSTABLE is the key the rank-1 line (1, 1) would have
    _pieces_cone.cache_clear()
    psef_fibre_product(UNSTABLE, UNSTABLE)
    with pytest.raises(InputError, match=f"^{RANK_ERROR}$"):
        psef_fibre_product(HNCurveBundle(1, 1), UNSTABLE)
    with pytest.raises(InputError, match=f"^{RANK_ERROR}$"):
        miyaoka_cones(HNCurveBundle(1, 1))


def _fraction_slopes_cone(pieces):
    """`_pieces_cone` as it was with `Fraction` slopes: its oracle."""
    n = len(pieces)
    slopes = [Fraction(d, r) for r, d in pieces]
    rows = [
        tuple(s.denominator * (j == i) for j in range(n)) + (-s.numerator,)
        for i, s in enumerate(slopes)
    ]
    top = lcm(*(s.denominator for s in slopes))
    facets = [tuple(int(j == i) for j in range(n + 1)) for i in range(n)]
    facets.append(primitive([top // s.denominator * s.numerator for s in slopes] + [top]))
    return RationalCone(n + 1, rows + [(0,) * n + (1,)], _facets=facets)


_PIECES = st.one_of(
    st.tuples(st.integers(1, 24), st.integers(-(2**40), 2**40)),
    # zero degrees, and pairs not in lowest terms
    st.sampled_from([(1, 0), (24, 0), (4, 6), (3, -9), (6, 4), (24, -36)]),
    st.builds(
        lambda g, r, d: (g * r, g * d), st.integers(2, 4), st.integers(1, 6), st.integers(-50, 50)
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_PIECES, min_size=1, max_size=5).map(tuple))
def test_integer_slopes_give_the_fraction_slopes_cone(pieces):
    got = _pieces_cone.__wrapped__(pieces)
    want = _fraction_slopes_cone(pieces)
    assert got.generators == want.generators
    assert got._facets == want._facets


def test_decompose_and_verify_build_each_cone_once():
    first = HNCurveBundle(4, 0, [(1, -3), (2, 0), (1, 3)])
    second = HNCurveBundle(3, 1, [(2, 0), (1, 1)])
    _pieces_cone.cache_clear()
    cert = decompose(first, second, (1, 1, 5))
    assert verify(cert, first, second)
    info = _pieces_cone.cache_info()
    # psef on entry; nef and psef of the terminal pair in each verify, whose
    # psef has the input pair's maximal-slope pieces
    assert info.hits + info.misses == 5
    assert info.misses <= 2
    # a shared cone is the same object on every lookup
    assert psef_fibre_product(first, second) is psef_fibre_product(first, second)


# --- surface base ----------------------------------------------------------


def test_eff_k_rho1_pairing_matrix():
    """Frozen pairing matrix for rank 3, k = 2, L^2 = 1."""
    ring = build_lambda_ring_surface(rho1(3, 1))
    basis = ring.basis(2)
    matrix = [[top_monomial_value(ring, m1, m2) for m2 in basis] for m1 in basis]
    assert matrix == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]


def test_eff_k_rho1_rank4_antidiagonal():
    L2 = Fraction(3)
    ring = build_lambda_ring_surface(rho1(4, L2))
    rows = ring.basis(3)
    cols = ring.basis(2)
    matrix = [[top_monomial_value(ring, m1, m2) for m2 in cols] for m1 in rows]
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


def test_one_surface_guard():
    # every surface-only entry point refuses a curve-base preset with one message
    from conecalc.ring import build_xi_ring_surface

    surface_only = (
        build_xi_ring_surface,
        build_lambda_ring_surface,
        lambda p: homogeneity_cones(p, 1),
        lambda p: surface_cone_report(p, 1),
        lambda p: p.base_gram,
        lambda p: p.c2_end,
    )
    message = "^invalid preset: expected a surface-base preset$"
    for preset in (SpacePreset.curve(2, 1), SpacePreset.fibre_product(2, 3, 0, 1)):
        for call in surface_only:
            with pytest.raises(InputError, match=message):
                call(preset)


def test_constructors_match_first_principles():
    for rank in (3, 4):
        for k in range(2, rank):
            report = surface_cone_report(rho1(rank, 3), k)
            psef, nef, _ = homogeneity_cones(rho1(rank, 3), k)
            assert report.psef == psef and report.nef == nef
            ruled_report = surface_cone_report(ruled(rank, Fraction(-1, 2)), k)
            psef, nef, _ = homogeneity_cones(ruled(rank, Fraction(-1, 2)), k)
            assert ruled_report.psef == psef and ruled_report.nef == nef


def test_closed_forms_are_checked_on_every_report(monkeypatch):
    from conecalc import catalog
    from conecalc.errors import InternalError

    preset = ruled(3, Fraction(3, 2))
    psef, nef, _ = homogeneity_cones(preset, 1)
    # the literal generators match the product cone's: the report reuses it
    assert surface_cone_report(preset, 1).psef is psef
    kind = preset.kind
    real = catalog._CLOSED_FORMS[kind]
    # a closed form that spans the same cone with a redundant ray is built
    # and compared by containment, and passes
    redundant = {kind: lambda p, k: real(p, k) + ((1, 1, 0),)}
    monkeypatch.setattr(catalog, "_CLOSED_FORMS", redundant)
    report = surface_cone_report(preset, 1)
    assert report.psef is not psef and report.psef == psef and report.equal
    assert report.psef.generators != psef.generators
    # one that drifts, on a warm memo, is refused
    drifted = {kind: lambda p, k: ((1, 0, 0), (0, 1, -p.mu - 1), (0, 0, 1))}
    monkeypatch.setattr(catalog, "_CLOSED_FORMS", drifted)
    with pytest.raises(InternalError, match="closed-form cone drifted"):
        surface_cone_report(preset, 1)


# --- the memo of the first-principles cones


def _clear_memos():
    _product_layers.cache_clear()
    _derived_cones.cache_clear()


def test_one_derivation_serves_every_entry_point(monkeypatch):
    from conecalc import catalog, ring

    built = []
    real = ring.build_lambda_ring_surface
    monkeypatch.setattr(ring, "build_lambda_ring_surface", lambda p: built.append(p) or real(p))
    cones = []
    real_cone = catalog.RationalCone
    monkeypatch.setattr(catalog, "RationalCone", lambda *a: cones.append(a) or real_cone(*a))
    _clear_memos()
    # c1 != 0: the k > 1 report names the c1 = 0 preset, and shares its entry
    preset = rho1(5, 5, 2)
    for k in range(1, 5):
        homogeneity_cones(preset, k)
        k_homogeneous_check(preset, k)
        surface_cone_report(preset, k)
    # one lambda ring for every k of the preset
    assert len(built) == 1
    # one product cone per degree 1..5, each read by two k; the closed forms
    # match them, so no report builds one
    assert len(cones) == 5
    # per k: one miss, then two hits on the same (kind, rank, L2, k)
    info = _derived_cones.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (8, 4, 8)
    # one miss, then a hit from each later k's derivation
    info = _product_layers.cache_info()
    assert (info.hits, info.misses, info.maxsize) == (3, 1, 8)
    degree_cones = _product_layers(preset.kind, preset.rank, preset.L2)[3]
    assert sorted(degree_cones) == [1, 2, 3, 4, 5]
    for k in range(1, 5):
        assert homogeneity_cones(preset, k)[0] is degree_cones[k]
    # the report names the shared entry's preset, read from the k entry even
    # when the preset's entry is gone
    _product_layers.cache_clear()
    assert surface_cone_report(preset, 2).space is built[0]
    assert len(built) == 1


def test_shared_cones_and_layers_are_read_only():
    # a memoized cone or product layer is handed to every caller, so a write
    # must fail instead of changing the answers of every later caller
    first = HNCurveBundle(2, 0, [(1, -1), (1, 1)])
    second = HNCurveBundle(2, 0, [(2, 0)])
    probe = (1, 0, -100)
    assert not fibre_product_cones(first, second).nef.contains(probe)
    cone = nef_fibre_product(first, second)
    for name in ("dim", "generators", "_facets", "_span_normals", "other"):
        with pytest.raises(AttributeError):
            setattr(cone, name, ())
    for name in ("dim", "generators", "_facets", "_span_normals"):
        with pytest.raises(AttributeError):
            delattr(cone, name)
    assert not fibre_product_cones(first, second).nef.contains(probe)
    cert = decompose(first, second, (1, 1, 0))
    bad = ZariskiCertificate(*cert._values()[:3], _divisor(probe), cert.N, True)
    assert "P not nef" in verify(bad, first, second).reasons
    # copies and pickles rebuild the facets from the generators
    for twin in (copy.copy(cone), pickle.loads(pickle.dumps(cone))):
        assert (twin.dim, twin.generators, twin._facets) == (cone.dim, cone.generators, cone._facets)
    preset = rho1(4, 3)
    homogeneity_cones(preset, 2)
    _, _, layers, cones = _product_layers(preset.kind, preset.rank, preset.L2)
    with pytest.raises(AttributeError):
        layers.append({})
    with pytest.raises(TypeError):
        layers[1][(0,)] = {}
    key, coeffs = next(iter(layers[2].items()))
    with pytest.raises(TypeError):
        coeffs[next(iter(coeffs))] = 0
    with pytest.raises(TypeError):
        del layers[2][key]
    # the per-degree product cones are frozen like every shared cone
    assert set(cones) == {2, 3}
    for cone in cones.values():
        with pytest.raises(AttributeError):
            cone._facets = ()


def test_shared_ring_is_read_only():
    # the ring of a _product_layers entry is handed to every k of its preset,
    # so a write must fail instead of breaking every later derivation
    preset = rho1(3, 2)
    _, ring, _, _ = _product_layers(preset.kind, preset.rank, preset.L2)
    _derived_cones.cache_clear()
    for name in ("dim", "gens", "gen_degrees", "top_monomial", "rules", "_forms", "_basis_cache"):
        with pytest.raises(AttributeError):
            setattr(ring, name, 1)
        with pytest.raises(AttributeError):
            delattr(ring, name)
    with pytest.raises(AttributeError):
        ring.other = 1
    assert ring.dim == 4
    assert k_homogeneous_check(preset, 1)
    # equality stays identity; a copy or a pickle rebuilds an equivalent ring
    for twin in (copy.copy(ring), pickle.loads(pickle.dumps(ring))):
        assert twin != ring and twin == twin
        assert (twin.gens, twin.gen_degrees, twin.dim, twin.rules, twin.top_monomial) == (
            ring.gens, ring.gen_degrees, ring.dim, ring.rules, ring.top_monomial
        )
        assert all(twin.basis(d) == ring.basis(d) for d in range(ring.dim + 1))


def _sweep(preset, ks, cold=False):
    out = {}
    for k in ks:
        if cold:
            _clear_memos()
        psef, nef, labels = homogeneity_cones(preset, k)
        out[k] = (psef.to_json(), nef.to_json(), labels)
    return out


@pytest.mark.parametrize("rank", range(2, 7))
def test_every_k_reads_the_same_cones_in_any_order(rank):
    presets = (
        rho1(rank, 3),
        rho1(rank, Fraction(5, 2), 1),
        ruled(rank, 1),
        ruled(rank, Fraction(1, 3), (1, 2)),
        ruled(rank, Fraction(-5, 2)),
    )
    ks = range(1, rank)
    for preset in presets:
        _clear_memos()
        ascending = _sweep(preset, ks)
        _clear_memos()
        assert _sweep(preset, reversed(ks)) == ascending
        assert _sweep(preset, ks, cold=True) == ascending


def test_presets_apart_only_in_c1_and_c2_share_their_cones():
    for plain, twisted, k in (
        (rho1(3, 2), rho1(3, 2, 3), 1),
        (ruled(4, Fraction(1, 2)), ruled(4, Fraction(1, 2), (2, 1)), 3),
    ):
        psef, nef, labels = homogeneity_cones(plain, k)
        psef2, nef2, labels2 = homogeneity_cones(twisted, k)
        assert labels == labels2
        assert (psef.to_json(), nef.to_json()) == (psef2.to_json(), nef2.to_json())


def test_every_check_runs_on_a_warm_memo():
    good = rho1(3, 2)
    for k in (1, 2):
        homogeneity_cones(good, k)
    # same kind, rank and L2 as the cached entry; 2r*c2 - (r-1)*c1^2 = 6
    bad = SpacePreset(
        PROJ_BUNDLE_OVER_SURFACE_RHO1, rank=3, L2=Fraction(2), e=Fraction(0), c2=Fraction(1)
    )
    # 2r*c2 - (r-1)*c1^2 = 1/2
    half = SpacePreset(
        PROJ_BUNDLE_OVER_SURFACE_RHO1, rank=3, L2=Fraction(2), e=Fraction(0), c2=Fraction(1, 12)
    )
    for call in (homogeneity_cones, k_homogeneous_check, surface_cone_report):
        for k in (1, 2):
            with pytest.raises(InputError, match="must vanish, got 6$"):
                call(bad, k)
            with pytest.raises(InputError, match="must vanish, got 1/2$"):
                call(half, k)
        for k in (0, 3):
            with pytest.raises(InputError, match=r"^k out of range 1\.\.2$"):
                call(good, k)
        with pytest.raises(InputError, match="expected a surface-base preset"):
            call(SpacePreset.curve(3, 0), 1)


@pytest.mark.parametrize("k", [1.5, 2.0, True, Fraction(2), "2"])
def test_k_must_be_an_int(k):
    # a bool is an int to Python, but not a codimension
    message = f"^k must be an integer, got {type(k).__name__}$"
    calls = (homogeneity_cones, k_homogeneous_check, surface_cone_report)
    for call in calls:
        for preset in (rho1(3, 2), ruled(3, Fraction(1, 3))):
            with pytest.raises(InputError, match=message):
                call(preset, k)
    with pytest.raises(InputError, match=message):
        cone_report(rho1(3, 2), k, ())
    curve = HNCurveBundle(2, 1)
    with pytest.raises(InputError, match=message):
        cone_report(SpacePreset.curve(2, 1), k, (curve,))
    with pytest.raises(InputError, match=message):
        cone_report(SpacePreset.fibre_product(2, 2, 1, 1), k, (curve, curve))


def test_report_json_shape():
    report = fibre_product_cones(HNCurveBundle(2, 0), HNCurveBundle(2, 1))
    payload = report.to_json()
    assert payload["k"] == 1
    assert payload["basis"] == ["xi", "zeta", "F"]
    assert payload["equal"] is True
    nef = payload["nef"]
    restored = RationalCone(nef["dim"], [[Fraction(x) for x in g] for g in nef["generators"]])
    assert restored == report.nef


# --- differential test: degree-by-degree products against a from-scratch build


def _from_scratch_cones(preset, k):
    """Reference cones: every degree-k product of the unscaled Fraction
    divisors multiplied out from 1 and reduced once; nef is the pairing dual
    of the complementary-degree cone."""
    ring = build_lambda_ring_surface(preset)
    width = len(ring.gens)
    units = [tuple(int(j == i) for j in range(width)) for i in range(width)]
    divisors = [{units[0]: Fraction(1)}] + [
        {units[1 + j]: Fraction(c) for j, c in enumerate(ray) if c}
        for ray in preset.surface().nef_divisors(preset)
    ]

    def product_cone(degree):
        basis = ring.basis(degree)
        vectors = []
        for combo in combinations_with_replacement(range(len(divisors)), degree):
            poly = {(0,) * width: Fraction(1)}
            for i in combo:
                poly = _pmul(poly, divisors[i])
            cls = ring.normal_form(NumClass(ring.gens, degree, poly))
            if not cls.is_zero:
                vectors.append(cls.coordinates(basis))
        return RationalCone(len(basis), vectors)

    k2 = preset.rank + 1 - k
    matrix = [
        [top_monomial_value(ring, m2, m1) for m1 in ring.basis(k)]
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
# an integral gram runs on ints alone; mu = 1/3 mixes ints and Fractions
@example((ruled(4, 1, (1, 2)), 2))
@example((ruled(4, Fraction(1, 3), (1, 2)), 2))
def test_incremental_products_equal_from_scratch(case):
    preset, k = case
    psef, nef, _ = homogeneity_cones(preset, k)
    want_psef, want_nef = _from_scratch_cones(preset, k)
    for got, want in ((psef, want_psef), (nef, want_nef)):
        assert got.to_json() == want.to_json()
        assert got._facets == want._facets


# --- the memo entries stay as built through a sweep of every entry point


SURFACE_POOL = (rho1(4, 3), rho1(3, Fraction(5, 2), 1), ruled(3, Fraction(1, 3), (1, 2)))
CURVE_POOL = (
    HNCurveBundle(3, 0, [(1, -2), (1, 0), (1, 2)]),
    HNCurveBundle(2, 1),
    HNCurveBundle(2, 0, [(1, -1), (1, 1)]),
)


def _public(value):
    """What a caller reads of a memo entry, in a form pickle compares: a
    cone with its facet table, a ring by its fields, a mapping by its items."""
    if isinstance(value, RationalCone):
        return ("cone", value.dim, value.generators, value._facets, value._span_normals)
    if isinstance(value, IntersectionRing):
        return ("ring", value.gens, value.gen_degrees, value.dim, value.top_monomial, value.rules)
    if isinstance(value, (dict, MappingProxyType)):
        return ("map", [(key, _public(v)) for key, v in sorted(value.items(), key=lambda kv: kv[0])])
    if isinstance(value, (tuple, list)):
        return tuple(map(_public, value))
    return value


def _surface_key(preset):
    return preset.kind, preset.rank, getattr(preset, preset.surface().param)


def _memo_entries():
    """Every entry the pools fill, by direct lookup: (entry, its public part)."""
    entries = []
    for preset in SURFACE_POOL:
        key = _surface_key(preset)
        entries.append(_product_layers(*key)[:3])
        entries += [_derived_cones(*key, k) for k in range(1, preset.rank)]
    for bundle in CURVE_POOL:
        for other in CURVE_POOL:
            for piece in (_lowest, _highest):
                entries.append(_pieces_cone((piece(bundle), piece(other))))
        entries.append(_pieces_cone((_lowest(bundle),)))
    return entries


def _every_entry_point(data):
    """One call of each public catalog, cone, ring and zariski entry point
    on pool inputs, with drawn probes, pairings and classes."""
    preset = data.draw(st.sampled_from(SURFACE_POOL))
    k = data.draw(st.integers(1, preset.rank - 1))
    psef, nef, labels = homogeneity_cones(preset, k)
    k_homogeneous_check(preset, k)
    report = surface_cone_report(preset, k)
    assert cone_report(preset, k, ()) == report
    _, ring, _, _ = _product_layers(*_surface_key(preset))
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=len(labels), max_size=len(labels)))
    cls = ring.class_from_coordinates(k, coords)
    ring.normal_form(cls)
    ring.normal_form(" + ".join(f"({c})*{m}" for c, m in zip(coords, labels)))
    ring.degree_eval(f"lambda^{ring.dim - 2}*F")
    ring.basis_labels(data.draw(st.integers(0, ring.dim)))
    first, second = data.draw(st.sampled_from(CURVE_POOL)), data.draw(st.sampled_from(CURVE_POOL))
    miyaoka_cones(first)
    fibre_product_cones(first, second)
    iterated_fibre_product_cones([b for b in (first, second) if b.semistable])
    weights = data.draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    gens = psef_fibre_product(first, second).generators
    point = tuple(sum(w * g[i] for w, g in zip(weights, gens)) for i in range(3))
    if any(point):
        assert verify(decompose(first, second, point), first, second)
    for cone in (psef, nef, report.nef, report.psef, nef_fibre_product(first, second)):
        probe = data.draw(st.lists(st.integers(-4, 4), min_size=cone.dim, max_size=cone.dim))
        cone.violated_constraint(probe)
        cone.contains([Fraction(x, 2) for x in probe])
        matrix = data.draw(
            st.lists(st.lists(st.integers(-2, 2), min_size=cone.dim, max_size=cone.dim),
                     min_size=cone.dim, max_size=cone.dim)
        )
        cone.dual(Pairing(matrix))
        cone.extremal_rays()
        cone.to_json()
        assert cone == copy.copy(cone) == pickle.loads(pickle.dumps(cone))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memo_entries_survive_every_entry_point(data):
    entries = _memo_entries()
    before = pickle.dumps(_public(entries))
    cones = {p: _product_layers(*_surface_key(p))[3] for p in SURFACE_POOL}
    built = {p: dict(c) for p, c in cones.items()}
    for _ in range(3):
        _every_entry_point(data)
    assert pickle.dumps(_public(entries)) == before
    for preset, degree_cones in cones.items():
        # the private per-degree cones only gain keys ...
        assert all(degree_cones[d] is cone for d, cone in built[preset].items())
        # ... and each is the cone its layer spans, facets included
        _, ring, layers, _ = _product_layers(*_surface_key(preset))
        for degree, cone in degree_cones.items():
            basis = ring.basis(degree)
            rows = [[c.get(m, 0) for m in basis] for c in layers[degree].values()]
            rebuilt = RationalCone(len(basis), rows)
            assert (cone.generators, cone._facets) == (rebuilt.generators, rebuilt._facets)
