"""Intersection rings: published product tables, normal forms, bases."""

import json
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conecalc import ring as ring_module
from conecalc.errors import InputError
from conecalc.ring import (
    IntersectionRing,
    NumClass,
    SpacePreset,
    build_curve_bundle_ring,
    build_fibre_product_ring,
    build_lambda_ring_surface,
    build_xi_ring_surface,
    parse_expression,
    verify_lambda_vanishing,
)


def rho1_preset(rank, L2, e):
    # c2 chosen so c2(End) = 2r*c2 - (r-1)*e^2*L2 vanishes
    c2 = Fraction((rank - 1) * e * e, 2 * rank) * Fraction(L2)
    return SpacePreset.surface_rho1(rank, L2, e, c2)


def ruled_preset(rank, mu, c1):
    mu = Fraction(mu)
    x, y = c1
    c1sq = 2 * mu * x * x + 2 * x * y
    c2 = Fraction(rank - 1, 2 * rank) * c1sq
    return SpacePreset.ruled_surface(rank, mu, c1, c2)


# --- fibre product table -------------------------------------------------


def test_fibre_product_table_grid():
    """All nine printed products, on a grid of ranks and degrees."""
    for m, n, d, d2 in product((2, 3), (2, 3), (-2, 0, 3), (-1, 0, 2)):
        ring = build_fibre_product_ring(m, n, d, d2)
        assert ring.normal_form(f"xi^{m} * F").is_zero
        assert ring.normal_form(f"zeta^{n} * F").is_zero
        assert ring.normal_form(f"xi^{m + 1}").is_zero
        assert ring.normal_form(f"zeta^{n + 1}").is_zero
        assert ring.normal_form("F^2").is_zero
        assert ring.degree_eval(f"zeta^{n} * xi^{m - 1}") == d2
        assert ring.degree_eval(f"zeta^{n - 1} * xi^{m}") == d
        assert ring.normal_form(f"xi^{m} - ({d})*xi^{m - 1}*F").is_zero
        assert ring.normal_form(f"zeta^{n} - ({d2})*zeta^{n - 1}*F").is_zero


def test_fibre_product_examples():
    assert build_fibre_product_ring(2, 2, 0, 1).degree_eval("xi * zeta^2") == 1
    assert build_fibre_product_ring(2, 2, 0, 1).degree_eval("xi * zeta * F") == 1
    assert build_fibre_product_ring(2, 3, 5, 0).degree_eval("xi^2 * zeta^2") == 5
    assert build_fibre_product_ring(3, 2, 2, 0).degree_eval("xi^3 * zeta") == 2


def test_fibre_product_rejects_small_rank():
    with pytest.raises(InputError):
        build_fibre_product_ring(1, 2, 0, 0)


# --- curve ring ----------------------------------------------------------


def test_curve_ring_normal_forms():
    ring = build_curve_bundle_ring(2, 3)
    cls = ring.normal_form("xi^2")
    assert cls.coeffs == {(1, 1): Fraction(3)}
    assert build_curve_bundle_ring(2, 0).normal_form("xi^3").is_zero
    assert ring.normal_form("f^2").is_zero
    assert ring.degree_eval("xi * f") == 1
    assert ring.degree_eval("xi^2") == 3


# --- surface rings -------------------------------------------------------


def test_surface_xi_table():
    r, L2, e = 3, 2, 3
    ring = build_xi_ring_surface(rho1_preset(r, L2, e))
    assert ring.degree_eval(f"xi^{r - 1} * F") == 1
    assert ring.degree_eval(f"xi^{r} * piL") == e * L2
    assert ring.degree_eval(f"xi^{r - 2} * piL * F") == 0
    assert ring.degree_eval(f"xi^{r - 1} * piL^2") == L2


def test_ruled_surface_base_pairing():
    r, mu = 3, Fraction(1, 2)
    ring = build_xi_ring_surface(ruled_preset(r, mu, (2, 1)))
    assert ring.degree_eval(f"xi^{r - 1} * piEta^2") == 2 * mu
    assert ring.degree_eval(f"xi^{r - 1} * piEta * piF") == 1
    assert ring.degree_eval(f"xi^{r - 1} * piF^2") == 0
    assert ring.degree_eval(f"xi^{r - 1} * F") == 1


def test_lambda_ring_basics():
    assert build_lambda_ring_surface(rho1_preset(2, 1, 2)).normal_form(
        "lambda^2"
    ).is_zero
    assert build_lambda_ring_surface(rho1_preset(3, 1, 0)).degree_eval(
        "lambda^2 * F"
    ) == 1
    assert build_lambda_ring_surface(rho1_preset(2, 2, 0)).degree_eval(
        "lambda * piL^2"
    ) == 2


def test_lambda_ring_requires_vanishing_c2_end():
    with pytest.raises(InputError):
        SpacePreset.surface_rho1(2, 1, 2, 0)


def test_preset_json_round_trip():
    presets = [
        SpacePreset.curve(3, -2),
        SpacePreset.fibre_product(2, 4, -1, 3),
        rho1_preset(3, Fraction(5, 3), Fraction(-3, 2)),
        ruled_preset(4, Fraction(-1, 2), (Fraction(3, 2), Fraction(-2, 3))),
    ]
    for preset in presets:
        payload = json.loads(json.dumps(preset.to_json()))
        assert SpacePreset.from_json(payload) == preset
    curve = presets[0].to_json()
    for bad in (
        {**curve, "kind": "proj_bundle_over_threefold"},
        {**curve, "rank": 2.5},
        {**curve, "rank": 3.0},
        {**curve, "rank": "3"},
        {**curve, "rank": True},
        {"kind": curve["kind"], "rank": 3},
        {**presets[3].to_json(), "c1": "12"},
        [curve],
    ):
        with pytest.raises(InputError):
            SpacePreset.from_json(bad)


def _mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_lambda_xi_agreement():
    """Top-degree lambda-basis monomials evaluate like their xi expansions."""
    presets = [
        rho1_preset(3, 2, 3),
        ruled_preset(3, Fraction(1, 2), (2, 1)),
        ruled_preset(4, -1, (3, -2)),
    ]
    for preset in presets:
        lam_ring = build_lambda_ring_surface(preset)
        xi_ring = build_xi_ring_surface(preset)
        r = preset.rank
        # lambda = xi - (1/r) * pullback(c1), written in the xi ring
        lam_poly = parse_expression(
            xi_ring,
            "xi - ("
            + " + ".join(
                f"({Fraction(c, r)})*{n}"
                for c, n in zip(preset.c1_coords, xi_ring.gens[1:-1])
            )
            + ")",
        )
        for mono in lam_ring.basis(lam_ring.dim):
            acc = {(0,) * len(xi_ring.gens): Fraction(1)}
            for _ in range(mono[0]):
                acc = _mul(acc, lam_poly)
            tail = (0,) + mono[1:]
            acc = _mul(acc, {tail: Fraction(1)})
            assert lam_ring.degree_eval({mono: 1}) == xi_ring.degree_eval(acc), (
                preset.kind,
                mono,
            )


# --- lambda-power vanishing ----------------------------------------------


def test_lambda_vanishing_examples():
    assert verify_lambda_vanishing(2, 4, 1) is True
    assert verify_lambda_vanishing(2, 0, 0) is True
    assert verify_lambda_vanishing(3, 3, 2) is False


def test_lambda_vanishing_balanced_family():
    rng = random.Random(7)
    for r in range(2, 7):
        for _ in range(10):
            e = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            L2 = Fraction(rng.randint(1, 9))
            c1sq = e * e * L2
            c2 = Fraction(r - 1, 2 * r) * c1sq
            assert verify_lambda_vanishing(r, c1sq, c2)
            assert not verify_lambda_vanishing(r, c1sq, c2 + Fraction(1, 5))


# --- generic ring mechanics ----------------------------------------------


def test_normal_form_idempotent():
    ring = build_fibre_product_ring(3, 2, 4, -1)
    cls = ring.normal_form("xi^3 * zeta + 2*xi^2*zeta^2")
    again = ring.normal_form(cls)
    assert again.coeffs == cls.coeffs and again.degree == cls.degree


def test_mixed_degree_rejected():
    ring = build_fibre_product_ring(2, 2, 0, 0)
    with pytest.raises(InputError):
        ring.normal_form("xi + F^0")
    with pytest.raises(InputError):
        ring.degree_eval("xi")


def test_confluence_random_rule_choice():
    rng = random.Random(11)
    rings = [
        build_fibre_product_ring(3, 3, 2, -3),
        build_xi_ring_surface(rho1_preset(3, 2, 3)),
        build_lambda_ring_surface(ruled_preset(3, Fraction(-3, 2), (1, 1))),
    ]
    for ring in rings:
        width = len(ring.gens)
        for _ in range(200):
            mono = tuple(rng.randint(0, 3) for _ in range(width))
            if ring.monomial_degree(mono) > ring.dim:
                continue
            expected = ring.normal_form({mono: 1})
            chaotic = ring.normal_form(
                {mono: 1}, _pick=lambda m, hits: rng.choice(hits)
            )
            assert chaotic.coeffs == expected.coeffs


# one ring of each kind, plus an xi-basis ring
RULE_RINGS = (
    build_curve_bundle_ring(4, -3),
    build_fibre_product_ring(3, 2, 2, -1),
    build_lambda_ring_surface(rho1_preset(4, Fraction(3, 2), Fraction(2, 3))),
    build_lambda_ring_surface(ruled_preset(3, Fraction(-1, 3), (1, 2))),
    build_xi_ring_surface(ruled_preset(3, Fraction(1, 2), (1, -1))),
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sparse_rule_matching_equals_dense_scan(data):
    ring = data.draw(st.sampled_from(RULE_RINGS))
    mono = data.draw(st.tuples(*[st.integers(0, 5)] * len(ring.gens)))
    dense = [
        i for i, (lhs, _) in enumerate(ring.rules) if all(e >= l for e, l in zip(mono, lhs))
    ]
    assert ring._matching_rules(mono) == dense


def test_degree_eval_linear():
    ring = build_fibre_product_ring(3, 2, 4, -1)
    rng = random.Random(3)
    top = ring.dim
    for _ in range(25):
        x = {m: rng.randint(-4, 4) for m in ring.basis(top)}
        y = {m: rng.randint(-4, 4) for m in ring.basis(top)}
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combined = {}
        for m, c in x.items():
            combined[m] = combined.get(m, 0) + a * c
        for m, c in y.items():
            combined[m] = combined.get(m, 0) + b * c
        assert ring.degree_eval(combined) == a * ring.degree_eval(
            x
        ) + b * ring.degree_eval(y)


def test_basis_orders_frozen():
    ring = build_fibre_product_ring(2, 2, 0, 0)
    assert ring.basis_labels(1) == ("xi", "zeta", "F")
    lam = build_lambda_ring_surface(rho1_preset(3, 1, 0))
    assert lam.basis_labels(1) == ("lambda", "piL")
    assert lam.basis_labels(2) == ("lambda^2", "lambda*piL", "F")
    ruled = build_lambda_ring_surface(ruled_preset(3, 1, (0, 0)))
    assert ruled.basis_labels(1) == ("lambda", "piEta", "piF")
    assert ruled.basis_labels(2) == (
        "lambda^2",
        "lambda*piEta",
        "lambda*piF",
        "F",
    )


def test_class_json_round_trip():
    ring = build_fibre_product_ring(3, 2, 4, -1)
    cls = ring.normal_form("2*xi*zeta - 1/3*F^0*xi^2 + 5*xi*F")
    back = ring.class_from_json(cls.to_json())
    assert back.coeffs == cls.coeffs and back.degree == cls.degree


def test_class_from_json_reads_degree_strictly():
    ring = build_fibre_product_ring(3, 2, 4, -1)
    with pytest.raises(InputError, match="malformed integer: True"):
        ring.class_from_json({"degree": True, "terms": []})


@pytest.mark.parametrize("terms", ["", {}, "xi"])
def test_class_from_json_reads_the_term_list_strictly(terms):
    ring = build_fibre_product_ring(3, 2, 4, -1)
    with pytest.raises(InputError, match="malformed record list"):
        ring.class_from_json({"degree": 1, "terms": terms})


def test_class_from_json_raises_only_input_errors():
    ring = build_fibre_product_ring(3, 2, 4, -1)
    for terms in (
        [{}],
        [{"monomial": "xi"}],
        [{"coeff": "1"}],
        5,
        ["xi"],
        [{"monomial": 5, "coeff": "1"}],
        [{"monomial": None, "coeff": "1"}],
        [{"monomial": "xi", "coeff": 0.5}],
    ):
        with pytest.raises(InputError):
            ring.class_from_json({"degree": 1, "terms": terms})


@pytest.mark.parametrize(
    "monomial", ["xi^0_1", "xi^\u0661", "xi^+2", "xi^ 2", "xi^", "xi^0", "xi^" + "1" * 101]
)
def test_class_from_json_reads_exponents_as_ascii_digits(monomial):
    # the expression parser's rule: 1 to MAX_EXPONENT_DIGITS ASCII digits
    ring = build_fibre_product_ring(3, 3, 4, -1)
    with pytest.raises(InputError, match="bad exponent"):
        ring.class_from_json({"degree": 2, "terms": [{"monomial": monomial, "coeff": "1"}]})
    for text, degree in (("xi^2", 2), ("xi*zeta^2", 3), ("xi^" + "0" * 99 + "1", 1)):
        cls = ring.class_from_json({"degree": degree, "terms": [{"monomial": text, "coeff": "1"}]})
        assert cls.coeffs == ring.normal_form(text).coeffs


def test_class_from_coordinates_round_trip():
    ring = build_fibre_product_ring(2, 3, 1, 2)
    basis = ring.basis(2)
    coords = tuple(Fraction(i - 2, 3) for i in range(len(basis)))
    cls = ring.class_from_coordinates(2, coords)
    assert cls.coordinates(basis) == coords


def test_parse_expression_errors():
    ring = build_fibre_product_ring(2, 2, 0, 0)
    with pytest.raises(InputError):
        parse_expression(ring, "eta")
    with pytest.raises(InputError):
        parse_expression(ring, "xi^")
    with pytest.raises(InputError):
        parse_expression(ring, "(xi + F")
    with pytest.raises(InputError):
        parse_expression(ring, "xi $ F")


@settings(max_examples=60)
@given(
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(0, 4),
    st.integers(0, 4),
    st.integers(0, 2),
)
def test_normal_form_degree_preserved(m, n, d, d2, a, b, c):
    ring = build_fibre_product_ring(m, n, d, d2)
    mono = (a, b, c)
    deg = a + b + c
    if deg > ring.dim:
        return
    cls = ring.normal_form({mono: 1})
    assert cls.degree == deg
    for out in cls.coeffs:
        assert ring.monomial_degree(out) == deg


# --- degree-ceiling parsing ----------------------------------------------

# one small ring of each kind: the reference below expands in full
CEILING_RINGS = (
    build_curve_bundle_ring(3, -2),
    build_fibre_product_ring(2, 2, 1, -1),
    build_lambda_ring_surface(rho1_preset(3, 2, 1)),
    build_lambda_ring_surface(ruled_preset(2, Fraction(1, 2), (1, 1))),
)


def _expression_trees(ring):
    above = st.sampled_from(range(ring.dim + 1, ring.dim + 4))
    leaves = st.one_of(
        st.sampled_from(ring.gens * 2 + ("0", "1", "1/2", "-3")),
        st.tuples(st.just("^"), st.sampled_from(ring.gens), above),
    )

    def extend(inner):
        power = st.tuples(st.just("^"), inner, st.sampled_from(range(ring.dim + 4)))
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), inner, inner),
            st.tuples(st.just("neg"), inner),
            power,
            power,
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _render(tree):
    if isinstance(tree, str):
        return f"({tree})"
    if tree[0] == "neg":
        return f"(-{_render(tree[1])})"
    if tree[0] == "^":
        return f"({_render(tree[1])}^{tree[2]})"
    return f"({_render(tree[1])} {tree[0]} {_render(tree[2])})"


def _nominal_degree(ring, tree):
    if isinstance(tree, str):
        return ring.gen_degrees[ring.gens.index(tree)] if tree in ring.gens else 0
    if tree[0] == "neg":
        return _nominal_degree(ring, tree[1])
    if tree[0] == "^":
        return _nominal_degree(ring, tree[1]) * tree[2]
    left, right = _nominal_degree(ring, tree[1]), _nominal_degree(ring, tree[2])
    return left + right if tree[0] == "*" else max(left, right)


def _full_expansion(ring, tree):
    """The free-ring expansion, and whether a component above the dimension
    cancelled on the way (in a sum, or between the terms of a product)."""
    width = len(ring.gens)

    def above(poly):
        return {ring.monomial_degree(m) for m in poly} - set(range(ring.dim + 1))

    def times(a, b):
        out = _mul(a, b)
        want = {
            ring.monomial_degree(m1) + ring.monomial_degree(m2) for m1 in a for m2 in b
        } - set(range(ring.dim + 1))
        return out, want != above(out)

    if isinstance(tree, str):
        if tree in ring.gens:
            return {tuple(int(g == tree) for g in ring.gens): Fraction(1)}, False
        value = Fraction(tree)
        return ({(0,) * width: value} if value else {}), False
    if tree[0] == "neg":
        poly, lost = _full_expansion(ring, tree[1])
        return {m: -c for m, c in poly.items()}, lost
    if tree[0] == "^":
        base, lost = _full_expansion(ring, tree[1])
        poly = {(0,) * width: Fraction(1)}
        for _ in range(tree[2]):
            poly, cancelled = times(poly, base)
            lost = lost or cancelled
        return poly, lost
    (a, lost_a), (b, lost_b) = (_full_expansion(ring, t) for t in tree[1:])
    if tree[0] == "*":
        poly, cancelled = times(a, b)
    else:
        sign = 1 if tree[0] == "+" else -1
        poly = dict(a)
        for m, c in b.items():
            poly[m] = poly.get(m, Fraction(0)) + sign * c
        poly = {m: c for m, c in poly.items() if c}
        cancelled = (above(a) | above(b)) != above(poly)
    return poly, lost_a or lost_b or cancelled


REDUCE = IntersectionRing._reduce


def _reduce_below_dimension(self, poly, pick=None):
    assert all(self.monomial_degree(m) <= self.dim for m in poly), "above-dimension rewrite"
    return REDUCE(self, poly, pick)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ceiling_parser_matches_full_expansion(data):
    """Parsing under the degree ceiling gives what the full expansion gives."""
    ring = data.draw(st.sampled_from(CEILING_RINGS))
    tree = data.draw(_expression_trees(ring))
    assume(_nominal_degree(ring, tree) <= 3 * (ring.dim + 3))
    poly, cancelled = _full_expansion(ring, tree)
    # the one documented difference: a part above the dimension that cancels
    # in the full expansion is not seen by the ceiling
    assume(not cancelled)
    degrees = {ring.monomial_degree(m) for m in poly}
    text = _render(tree)
    with mock.patch.object(IntersectionRing, "_reduce", _reduce_below_dimension):
        if len(degrees) > 1:
            with pytest.raises(InputError, match="degree mismatch"):
                ring.normal_form(text)
            return
        got = ring.normal_form(text).to_json()
    want = NumClass(ring.gens, degrees.pop() if degrees else 0, REDUCE(ring, poly))
    assert got == want.to_json(), text


def test_ceiling_edge_cases():
    ring = build_fibre_product_ring(4, 3, 1, 2)  # dimension 6
    one = {"degree": 0, "terms": [{"monomial": "1", "coeff": "1"}]}
    assert ring.normal_form("(xi^9)^0").to_json() == one
    assert ring.normal_form("((1 + xi)^10)^0").to_json() == one
    assert ring.normal_form("0*xi^9").to_json() == {"degree": 0, "terms": []}
    assert ring.normal_form("0*(1 + xi)^10").to_json() == {"degree": 0, "terms": []}
    assert ring.normal_form("xi^9").to_json() == {"degree": 9, "terms": []}
    assert ring.normal_form("1 + xi^9 - 1").to_json() == {"degree": 9, "terms": []}
    assert ring.normal_form("xi^3000000").to_json() == {"degree": 3000000, "terms": []}
    assert ring.degree_eval("(xi + 2*zeta)^1000") == 0
    # a homogeneous dict or class above the dimension is zero without rewriting
    with mock.patch.object(IntersectionRing, "_reduce", _reduce_below_dimension):
        assert ring.normal_form({(5, 4, 0): 3}).to_json() == {"degree": 9, "terms": []}
        assert ring.normal_form(NumClass(ring.gens, 8, {(8, 0, 0): Fraction(1)})).is_zero
    # the documented difference: the full expansion cancels xi^9, the ceiling
    # only records its degree
    assert ring.normal_form("xi^9 - xi^9").to_json() == {"degree": 9, "terms": []}
    with pytest.raises(InputError, match="mixes degrees 1, 9"):
        ring.normal_form("xi + xi^9 - xi^9")
    for text in ("(1 + xi)^10", "xi^7 + xi^8", "(xi + xi^2)^7"):
        with pytest.raises(InputError, match="degree mismatch"):
            ring.normal_form(text)


def test_parser_limits():
    ring = build_fibre_product_ring(4, 3, 1, 2)
    digits = ring_module.MAX_EXPONENT_DIGITS
    assert ring.normal_form("xi^" + "9" * digits).is_zero
    with pytest.raises(InputError, match=f"exponent 9+... has {digits + 1} digits"):
        ring.normal_form("xi^" + "9" * (digits + 1))
    with pytest.raises(InputError, match="exponent 9+... has 5000 digits"):
        ring.normal_form("xi^" + "9" * 5000)
    depth = ring_module.MAX_NESTING
    assert str(ring.normal_form("(" * depth + "xi" + ")" * depth)) == "xi"
    with pytest.raises(InputError, match="nest"):
        ring.normal_form("(" * (depth + 1) + "xi" + ")" * (depth + 1))
    with pytest.raises(InputError, match="nest"):
        ring.normal_form("(" * 3000 + "xi" + ")" * 3000)
    chars = ring_module.MAX_EXPRESSION_CHARS
    assert str(ring.normal_form(" " * (chars - 2) + "xi")) == "xi"
    with pytest.raises(InputError, match="characters"):
        ring.normal_form(" " * (chars - 1) + "xi")
    bits = ring_module.MAX_COEFFICIENT_BITS
    assert ring.normal_form(f"2^{bits - 1}").coeffs
    for text in (f"2^{bits}", f"2^{10 ** 40}", f"{2 ** (bits - 1)}*xi*{2 ** (bits - 1)}"):
        with pytest.raises(InputError, match="coefficient"):
            ring.normal_form(text)
    big = build_fibre_product_ring(24, 24, 1, 2)
    with pytest.raises(InputError, match="monomial products"):
        big.normal_form("(1 + xi + zeta + F)^99")
    # numbers are ASCII digits
    for text in ("xi^\u00b2", "\u0662*xi", "xi^\u0662"):
        with pytest.raises(InputError, match="unexpected character"):
            ring.normal_form(text)
