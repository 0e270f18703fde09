"""Intersection rings: published product tables, normal forms, bases."""

import gc
import json
import random
from fractions import Fraction
from itertools import product
from operator import ge
from unittest import mock

import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize(
    "kind, fields, message",
    [
        ("no_such_kind", {"rank": 3}, "unknown kind 'no_such_kind'"),
        (["x"], {}, r"unknown kind \['x'\]"),
        ("proj_bundle_over_curve", {"rank": 1}, "bad degree None"),
        ("proj_bundle_over_curve", {"rank": 1, "degree": 0}, "rank must be at least 2"),
        ("proj_bundle_over_curve", {"rank": True, "degree": 0}, "bad rank True"),
        ("proj_bundle_over_curve", {"rank": 2, "degree": 0, "L2": 3}, "bad L2 3"),
        ("fibre_product_over_curve", {"rank": 2, "degree": 0, "rank2": 1, "degree2": 0},
         "both ranks must be at least 2"),
        ("proj_bundle_over_surface_rho1", {"rank": 2, "L2": 0, "e": 0, "c2": 0},
         "L2 must be positive"),
        ("proj_bundle_over_surface_rho1", {"rank": 2, "L2": 0.5, "e": 0, "c2": 0}, "bad L2 0.5"),
        ("proj_bundle_over_ruled_surface", {"rank": 2, "mu": 0, "c1": [0, 1], "c2": 0},
         r"bad c1 \[0, 1\]"),
        ("proj_bundle_over_ruled_surface", {"rank": 2, "mu": 0, "c1": (0, 1.5), "c2": 0},
         r"bad c1 \(0, 1.5\)"),
    ],
)
def test_preset_constructor_checks_kind_and_fields(kind, fields, message):
    # c2(End) = 0 is the classmethods' demand alone; tests/test_bundles.py::test_c2_end
    # builds a preset that breaks it
    with pytest.raises(InputError, match=f"^invalid preset: {message}"):
        SpacePreset(kind, **fields)


def test_ruled_preset_needs_two_c1_coordinates():
    with pytest.raises(InputError, match=r"^invalid preset: bad c1 \(Fraction\(0, 1\), "):
        SpacePreset.ruled_surface(2, 0, (0, 1, 2), 0)


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
            lam_class = NumClass(lam_ring.gens, lam_ring.dim, {mono: Fraction(1)})
            xi_class = NumClass(xi_ring.gens, xi_ring.dim, acc)
            assert lam_ring.degree_eval(lam_class) == xi_ring.degree_eval(xi_class), (
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
    # a class's own degree counts: terms of another degree make it mixed
    with pytest.raises(InputError, match="mixes degrees 1, 2"):
        ring.normal_form(NumClass(ring.gens, 2, {(1, 0, 0): Fraction(1)}))
    with pytest.raises(InputError, match="mixes degrees 1, 3"):
        ring.degree_eval(NumClass(ring.gens, 3, {(1, 0, 0): Fraction(1)}))


@pytest.mark.parametrize(
    "expr",
    [{(1.9, 0, 0): 1}, {(1, 0, 0): 0.1}, {(1, 0, 0): 1}, {}, [(1, 0, 0)], 1, None],
    ids=repr,
)
def test_ring_queries_take_only_a_class_or_text(expr):
    # a float exponent or coefficient must not be read as xi or a binary fraction
    ring = build_fibre_product_ring(2, 2, 0, 1)
    with pytest.raises(InputError, match="cannot interpret"):
        ring.normal_form(expr)
    with pytest.raises(InputError, match="cannot interpret"):
        ring.degree_eval(expr)


@pytest.mark.parametrize(
    "coeffs",
    [
        {(1, 0, 0): 0.1},
        {(1, 0, 0): 1},
        {(1, 0, 0): Fraction(0)},
        {(1, 0): Fraction(1)},
        {(1.0, 0, 0): Fraction(1)},
        {(True, 0, 0): Fraction(1)},
        {(-1, 2, 0): Fraction(1)},
        {"xi": Fraction(1)},
    ],
    ids=repr,
)
def test_a_class_is_checked_where_it_enters(coeffs):
    # a float coefficient must not become a binary fraction, nor a short or
    # negative exponent tuple a monomial of another degree
    ring = build_fibre_product_ring(2, 2, 0, 1)
    with pytest.raises(InputError, match="^class (coefficient|monomial) "):
        ring.normal_form(NumClass(ring.gens, 1, coeffs))
    with pytest.raises(InputError, match="^class (coefficient|monomial) "):
        ring.degree_eval(NumClass(ring.gens, 1, coeffs))


def _reduce_any_order(ring, poly, rng):
    """Rewrite a random pending monomial by a random matching rule of
    ``ring.rules`` until none matches; written apart from the ring's own
    first-match reducer."""
    result = {}
    stack = list(poly.items())
    while stack:
        mono, coeff = stack.pop(rng.randrange(len(stack)))
        hits = [(lhs, rhs) for lhs, rhs in ring.rules if all(map(ge, mono, lhs))]
        if not hits:
            result[mono] = result.get(mono, 0) + coeff
            continue
        lhs, rhs = rng.choice(hits)
        rest = tuple(e - l for e, l in zip(mono, lhs))
        for rmono, rcoeff in rhs:
            stack.append((tuple(e + r for e, r in zip(rest, rmono)), coeff * rcoeff))
    return {m: c for m, c in result.items() if c}


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
            cls = NumClass(ring.gens, ring.monomial_degree(mono), {mono: Fraction(1)})
            expected = ring.normal_form(cls)
            assert _reduce_any_order(ring, cls.coeffs, rng) == expected.coeffs


# integral and fractional rule coefficients (L2 = 3/2, mu = 1/3) on each kind
TYPED_RINGS = {
    "curve": build_curve_bundle_ring(3, -2),
    "fibre": build_fibre_product_ring(2, 3, 1, -2),
    "rho1-integral": build_lambda_ring_surface(rho1_preset(3, 3, 1)),
    "rho1-fractional": build_lambda_ring_surface(rho1_preset(3, Fraction(3, 2), 1)),
    "ruled-integral": build_lambda_ring_surface(ruled_preset(3, 1, (1, 1))),
    "ruled-fractional": build_lambda_ring_surface(ruled_preset(3, Fraction(1, 3), (1, 1))),
}


@pytest.mark.parametrize("name", list(TYPED_RINGS))
def test_public_results_are_fractions(name):
    """Rules hold ints where they can; every public coefficient and value
    is still a Fraction, for integral and fractional inputs alike."""
    ring = TYPED_RINGS[name]
    width = len(ring.gens)
    rule_types = {type(c) for _, rhs in ring.rules for _, c in rhs}
    assert rule_types <= {int, Fraction}
    assert (Fraction in rule_types) is name.endswith("fractional")
    for coeff in (Fraction(2), Fraction(-3, 2)):
        for k in range(ring.dim + 1):
            for mono in product(range(k + 1), repeat=width):
                if ring.monomial_degree(mono) != k:
                    continue
                term = NumClass(ring.gens, k, {mono: coeff})
                cls = ring.normal_form(term)
                assert all(type(c) is Fraction for c in cls.coeffs.values()), (mono, cls)
                if k == ring.dim:
                    assert type(ring.degree_eval(term)) is Fraction
        text = f"{coeff}*{ring.gens[0]}^{ring.dim}"
        assert all(type(c) is Fraction for c in ring.normal_form(text).coeffs.values())
        assert type(ring.degree_eval(text)) is Fraction
    with pytest.raises(InputError, match="^class coefficient 1 is not a nonzero Fraction"):
        ring.normal_form(NumClass(ring.gens, 1, {(1,) + (0,) * (width - 1): 1}))


class _FirstMatch:
    """An rng for ``_reduce_any_order`` that pops the last pending monomial
    and takes the first listed rule: one rewrite of the whole polynomial, the
    order the ring's reducer used before it memoized each monomial's form."""

    def randrange(self, n):
        return n - 1

    def choice(self, hits):
        return hits[0]


def _fresh_ring(kind, rank, rank2, degree, param):
    if kind == "curve":
        return build_curve_bundle_ring(rank, degree)
    if kind == "fibre":
        return build_fibre_product_ring(rank, rank2, degree, -param.numerator)
    if kind == "rho1":
        return build_lambda_ring_surface(rho1_preset(rank, abs(param), degree))
    preset = ruled_preset(rank, param, (Fraction(degree, 2), rank2 - 4))
    build = build_xi_ring_surface if kind == "ruled-xi" else build_lambda_ring_surface
    return build(preset)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("curve", "fibre", "rho1", "ruled", "ruled-xi")),
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
    st.lists(st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
# xi^2*piEta rewrites to Fraction(0)*xi*F here: a cancelled term still types a sum
@example("ruled-xi", 2, 3, 1, Fraction(1), [[2, 1, 0, 0], [1, 0, 0, 1]], random.Random(0))
def test_memo_order_does_not_change_forms(kind, rank, rank2, degree, param, exps, rng):
    """Normal forms are the same on a cold ring and on one whose memo was
    filled in another order, and equal one rewrite of the whole polynomial by
    the first matching rule, with the same coefficient types, and by random
    rules: for single monomials and for sums of those of one degree."""
    warm = _fresh_ring(kind, rank, rank2, degree, param)
    width = len(warm.gens)
    monos = list(dict.fromkeys(tuple(e[:width]) for e in exps))
    monos = [m for m in monos if warm.monomial_degree(m) <= warm.dim]
    for mono in rng.sample(monos, len(monos))[::-1]:
        warm._reduce({mono: 1})
    groups = {}
    for i, mono in enumerate(monos):
        groups.setdefault(warm.monomial_degree(mono), {})[mono] = i + 1
    for poly in [{m: 1} for m in monos] + list(groups.values()):
        cold = _fresh_ring(kind, rank, rank2, degree, param)
        for scale in (1, Fraction(-2, 3)):
            scaled = {m: scale * c for m, c in poly.items()}
            want = _reduce_any_order(cold, scaled, _FirstMatch())
            for ring in (cold, warm):
                got = ring._reduce(scaled)
                assert got == want == _reduce_any_order(ring, scaled, rng), poly
                assert [type(got[m]) for m in want] == [type(c) for c in want.values()], poly
        k = warm.monomial_degree(next(iter(poly)))
        texts = [
            json.dumps(ring.normal_form(NumClass(ring.gens, k, scaled)).to_json())
            for ring in (cold, warm)
        ]
        assert texts[0] == texts[1], poly


def test_memo_keys_and_shared_values():
    """After a sweep that includes inputs above the dimension, every memo
    key has degree at most the dimension, and no memo value nor rule right
    side can be assigned into."""
    rings = (
        build_curve_bundle_ring(3, -2),
        build_fibre_product_ring(4, 3, 1, 2),
        build_lambda_ring_surface(rho1_preset(3, Fraction(3, 2), 1)),
        build_lambda_ring_surface(ruled_preset(3, Fraction(1, 3), (1, 1))),
        build_xi_ring_surface(ruled_preset(3, Fraction(1, 2), (1, -1))),
    )
    for ring in rings:
        x, top = ring.gens[0], ring.dim
        for a, b in product(range(top + 1), repeat=2):
            for m1, m2 in product(ring.basis_labels(a), ring.basis_labels(b)):
                ring.normal_form(f"{m1}*{m2}")
        assert ring.normal_form(f"{x}^{top + 3}").is_zero
        with pytest.raises(InputError, match="mixes degrees"):
            ring.normal_form(f"(1 + {x})^{top + 4}")
        power = (top + 3,) + (0,) * (len(ring.gens) - 1)
        assert ring.normal_form(NumClass(ring.gens, top + 3, {power: Fraction(1)})).is_zero
        assert ring.degree_eval(f"{x}^{top}") == ring.degree_eval(f"({x})^{top}")
        assert ring._forms
        assert all(ring.monomial_degree(m) <= top for m in ring._forms)
        shared = [*ring._forms.values(), *(rhs for _, rhs in ring.rules)]
        for value in shared:
            with pytest.raises(TypeError, match="does not support item assignment"):
                value[0] = ((0,) * len(ring.gens), 1)


# one ring of each kind, plus an xi-basis ring
RULE_RINGS = (
    build_curve_bundle_ring(4, -3),
    build_fibre_product_ring(3, 2, 2, -1),
    build_lambda_ring_surface(rho1_preset(4, Fraction(3, 2), Fraction(2, 3))),
    build_lambda_ring_surface(ruled_preset(3, Fraction(-1, 3), (1, 2))),
    build_xi_ring_surface(ruled_preset(3, Fraction(1, 2), (1, -1))),
)


@pytest.mark.parametrize(
    "ring", RULE_RINGS, ids=["curve", "fibre", "rho1-lambda", "ruled-lambda", "ruled-xi"]
)
def test_basis_equals_brute_force(ring):
    """Every exponent tuple of degree k that no rule's left side divides, by
    a dense scan, in descending lex order."""
    for k in range(ring.dim + 1):
        tuples = product(*(range(k // d + 1) for d in ring.gen_degrees))
        expected = sorted(
            (
                mono
                for mono in tuples
                if sum(e * d for e, d in zip(mono, ring.gen_degrees)) == k
                and not any(all(e >= l for e, l in zip(mono, lhs)) for lhs, _ in ring.rules)
            ),
            reverse=True,
        )
        assert ring.basis(k) == tuple(expected), k


def _full_walk_basis(ring, k):
    """The basis as the walk before the staircase enumerated it: every
    exponent of every generator, each full tuple tested against every rule."""
    found = []
    last = len(ring.gens) - 1

    def walk(prefix, remaining):
        idx = len(prefix)
        step = ring.gen_degrees[idx]
        if idx == last:
            if remaining % step == 0:
                mono = tuple(prefix) + (remaining // step,)
                if not any(all(map(ge, mono, lhs)) for lhs, _ in ring.rules):
                    found.append(mono)
            return
        for e in range(remaining // step, -1, -1):
            walk(prefix + [e], remaining - e * step)

    walk([], k)
    return tuple(found)


small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@st.composite
def rings_of_every_kind(draw):
    kind = draw(st.sampled_from(["curve", "fibre", "rho1", "ruled", "ruled-xi"]))
    rank = draw(st.integers(2, 24))
    if kind == "curve":
        return build_curve_bundle_ring(rank, draw(st.integers(-5, 5)))
    if kind == "fibre":
        degrees = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
        return build_fibre_product_ring(rank, draw(st.integers(2, 24)), *degrees)
    if kind == "rho1":
        L2 = draw(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)))
        return build_lambda_ring_surface(rho1_preset(rank, L2, draw(small_fractions)))
    preset = ruled_preset(rank, draw(small_fractions), draw(st.tuples(small_fractions, small_fractions)))
    build = build_lambda_ring_surface if kind == "ruled" else build_xi_ring_surface
    return build(preset)


@settings(max_examples=60, deadline=None)
@given(rings_of_every_kind())
@example(build_lambda_ring_surface(ruled_preset(24, Fraction(7, 3), (0, 0))))
@example(build_xi_ring_surface(ruled_preset(24, Fraction(-1, 2), (1, 2))))
@example(build_fibre_product_ring(24, 24, 3, -2))
def test_staircase_basis_equals_full_walk(ring):
    # the staircase prunes by caps, mixed left sides and leftover degree; the
    # full walk tests every complete exponent tuple against every rule
    for k in range(ring.dim + 1):
        assert ring.basis(k) == _full_walk_basis(ring, k), k


def test_degree_eval_linear():
    ring = build_fibre_product_ring(3, 2, 4, -1)
    rng = random.Random(3)
    top = ring.dim

    def value(coords):
        return ring.degree_eval(ring.class_from_coordinates(top, coords))

    for _ in range(25):
        x = [rng.randint(-4, 4) for _ in ring.basis(top)]
        y = [rng.randint(-4, 4) for _ in ring.basis(top)]
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        combined = [a * p + b * q for p, q in zip(x, y)]
        assert value(combined) == a * value(x) + b * value(y)


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
    assert cls.to_json() == {
        "degree": 2,
        "terms": [
            {"monomial": "xi^2", "coeff": "-1/3"},
            {"monomial": "xi*zeta", "coeff": "2"},
            {"monomial": "xi*F", "coeff": "5"},
        ],
    }


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


@pytest.mark.parametrize(
    "text, token",
    [("xi + -F", "-"), ("xi*-F", "-"), ("^2", "^"), ("xi + )", ")"), ("xi*+F", "+"), ("()", ")"),
     ("xi^2*(*F)", "*")],
)
def test_parser_names_the_operator_where_a_value_is_due(text, token):
    ring = build_fibre_product_ring(2, 2, 0, 0)
    with pytest.raises(InputError) as err:
        parse_expression(ring, text)
    assert str(err.value) == f"expected a generator, a number or '(', found '{token}'"


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
    deg = a + b + c
    if deg > ring.dim:
        return
    cls = ring.normal_form(f"xi^{a} * zeta^{b} * F^{c}")
    assert cls.degree == deg
    for out in cls.coeffs:
        assert ring.monomial_degree(out) == deg


# --- parsing: degrees as written, products reduced as they are built ------

# one small ring of each kind: the reference below expands up to the dimension
CEILING_RINGS = (
    build_curve_bundle_ring(3, -2),
    build_fibre_product_ring(2, 2, 1, -1),
    build_lambda_ring_surface(rho1_preset(3, 2, 1)),
    build_lambda_ring_surface(ruled_preset(2, Fraction(1, 2), (1, 1))),
    # fractional rules: piL^2 = 3/2*F, and piEta^2 = 2/3*F
    build_lambda_ring_surface(rho1_preset(3, Fraction(3, 2), 1)),
    build_lambda_ring_surface(ruled_preset(3, Fraction(1, 3), (1, 1))),
)


def _expression_trees(ring):
    above = st.sampled_from(range(ring.dim + 1, ring.dim + 4))
    leaves = st.one_of(
        st.sampled_from(ring.gens * 2 + ("0", "1", "1/2", "-3", "3/4", "-5/6")),
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


def _written_degrees(ring, tree):
    """The lowest and highest degree of the terms as written, or None for
    the literal zero, which has every degree."""
    if isinstance(tree, str):
        if tree in ring.gens:
            d = ring.gen_degrees[ring.gens.index(tree)]
            return d, d
        return None if tree == "0" else (0, 0)
    if tree[0] == "neg":
        return _written_degrees(ring, tree[1])
    if tree[0] == "^":
        if tree[2] == 0:
            return 0, 0
        inner = _written_degrees(ring, tree[1])
        return inner and (inner[0] * tree[2], inner[1] * tree[2])
    left, right = (_written_degrees(ring, t) for t in tree[1:])
    if tree[0] == "*":
        return left and right and (left[0] + right[0], left[1] + right[1])
    if left is None or right is None:
        return left or right
    return min(left[0], right[0]), max(left[1], right[1])


def _full_expansion(ring, tree):
    """The free-ring expansion, nothing rewritten. Monomials above the
    dimension are dropped as they appear: they are zero in the ring, and
    dropping them commutes with sums and products, since degrees only grow."""
    width = len(ring.gens)

    def times(a, b):
        return {m: c for m, c in _mul(a, b).items() if ring.monomial_degree(m) <= ring.dim}

    if isinstance(tree, str):
        if tree in ring.gens:
            return {tuple(int(g == tree) for g in ring.gens): Fraction(1)}
        value = Fraction(tree)
        return {(0,) * width: value} if value else {}
    if tree[0] == "neg":
        return {m: -c for m, c in _full_expansion(ring, tree[1]).items()}
    if tree[0] == "^":
        base = _full_expansion(ring, tree[1])
        poly = {(0,) * width: Fraction(1)}
        for _ in range(tree[2]):
            poly = times(poly, base)
        return poly
    a, b = (_full_expansion(ring, t) for t in tree[1:])
    if tree[0] == "*":
        return times(a, b)
    sign = 1 if tree[0] == "+" else -1
    poly = dict(a)
    for m, c in b.items():
        poly[m] = poly.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in poly.items() if c}


REDUCE = IntersectionRing._reduce


def _reduce_below_dimension(self, poly):
    assert all(self.monomial_degree(m) <= self.dim for m in poly), "above-dimension rewrite"
    return REDUCE(self, poly)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ceiling_parser_matches_full_expansion(data):
    """Reducing each product as it is built gives what one reduction of the
    full expansion gives, and an input is mixed exactly when the degrees of
    its terms as written are."""
    ring = data.draw(st.sampled_from(CEILING_RINGS))
    tree = data.draw(_expression_trees(ring))
    low, high = _written_degrees(ring, tree) or (0, 0)
    text = _render(tree)
    with mock.patch.object(IntersectionRing, "_reduce", _reduce_below_dimension):
        if low != high:
            with pytest.raises(InputError, match=f"mixes degrees {low}, {high}$"):
                ring.normal_form(text)
            return
        got = ring.normal_form(text).to_json()
    # the reference reduces once, at the end
    want = REDUCE(ring, _full_expansion(ring, tree)) if low <= ring.dim else {}
    assert got == NumClass(ring.gens, low, want).to_json(), text


def test_fractional_rules_give_exact_coefficients():
    """Products that a Fraction rule rewrites, against one reduction of the
    full expansion."""
    rho1 = CEILING_RINGS[4]
    tree = ("^", ("+", ("*", "3/4", "lambda"), ("*", "5/6", "piL")), 4)
    want = NumClass(rho1.gens, 4, REDUCE(rho1, _full_expansion(rho1, tree))).to_json()
    assert want == {"degree": 4, "terms": [{"monomial": "lambda^2*F", "coeff": "225/64"}]}
    assert rho1.normal_form(_render(tree)).to_json() == want
    ruled = CEILING_RINGS[5]
    tree = ("*", ("^", ("+", ("*", "3/4", "piEta"), "piF"), 2), ("*", "-5/6", "lambda"))
    want = NumClass(ruled.gens, 3, REDUCE(ruled, _full_expansion(ruled, tree))).to_json()
    assert ruled.normal_form(_render(tree)).to_json() == want


def test_ceiling_edge_cases():
    ring = build_fibre_product_ring(4, 3, 1, 2)  # dimension 6
    one = {"degree": 0, "terms": [{"monomial": "1", "coeff": "1"}]}
    assert ring.normal_form("(xi^9)^0").to_json() == one
    assert ring.normal_form("((1 + xi)^10)^0").to_json() == one
    # the literal zero has every degree
    assert ring.normal_form("0").to_json() == {"degree": 0, "terms": []}
    assert ring.normal_form("0*xi^9").to_json() == {"degree": 0, "terms": []}
    assert ring.normal_form("0*(1 + xi)^10").to_json() == {"degree": 0, "terms": []}
    assert ring.normal_form("0 + xi").to_json() == ring.normal_form("xi").to_json()
    assert ring.normal_form("xi^9").to_json() == {"degree": 9, "terms": []}
    assert ring.normal_form("xi^3000000").to_json() == {"degree": 3000000, "terms": []}
    assert ring.degree_eval("(xi + 2*zeta)^1000") == 0
    # a homogeneous class above the dimension is zero without rewriting
    with mock.patch.object(IntersectionRing, "_reduce", _reduce_below_dimension):
        above = NumClass(ring.gens, 9, {(5, 4, 0): Fraction(3)})
        assert ring.normal_form(above).to_json() == {"degree": 9, "terms": []}
        assert ring.normal_form(NumClass(ring.gens, 8, {(8, 0, 0): Fraction(1)})).is_zero
    # degrees are those written, whether the terms cancel or not
    assert ring.normal_form("xi - xi").to_json() == {"degree": 1, "terms": []}
    assert ring.normal_form("xi^9 - xi^9").to_json() == {"degree": 9, "terms": []}
    assert ring.normal_form("(xi - xi)^3").to_json() == {"degree": 3, "terms": []}
    for text, degrees in (
        ("1 + xi^9 - 1", "degrees 0, 9"),
        ("(1+xi)^2 - 1 - 2*xi", "degrees 0, 2"),
        ("xi + xi^9 - xi^9", "degrees 1, 9"),
        ("(1 + xi)^10", "degrees 0, 10"),
        ("xi^7 + xi^8", "degrees 7, 8"),
        ("(xi + xi^2)^7", "degrees 7, 14"),
    ):
        with pytest.raises(InputError, match=f"^degree mismatch: expression mixes {degrees}$"):
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


def test_parsing_leaves_no_cycle_for_the_collector():
    # a parse, whether it succeeds or fails, frees everything by reference count
    ring = build_fibre_product_ring(2, 2, 0, 1)
    ring.normal_form("(xi+zeta)^2")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            ring.normal_form("(xi+zeta)^2")
        assert gc.collect() == 0
        for _ in range(100):
            try:
                ring.normal_form("(xi+eta")
            except InputError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()
    chars = ring_module.MAX_EXPRESSION_CHARS
    assert str(ring.normal_form(" " * (chars - 2) + "xi")) == "xi"
    with pytest.raises(InputError, match="characters"):
        ring.normal_form(" " * (chars - 1) + "xi")
    bits = ring_module.MAX_COEFFICIENT_BITS
    assert ring.normal_form(f"2^{bits - 1}").coeffs
    for text in (f"2^{bits}", f"2^{10 ** 40}", f"{2 ** (bits - 1)}*xi*{2 ** (bits - 1)}"):
        with pytest.raises(InputError, match="coefficient"):
            ring.normal_form(text)
    # a common denominator past the limit, while each coefficient in lowest
    # terms stays within it: two odd denominators that differ by 2 are coprime
    p, q = 2**600 + 1, 2**600 - 1
    assert ring.normal_form(f"1/{p}*xi + 1/{q}*zeta").coeffs == {
        (1, 0, 0): Fraction(1, p),
        (0, 1, 0): Fraction(1, q),
    }
    # parts stay within the basis of their degree, so one top-degree power
    # on the largest fibre product answers, and a sum of eight reaches the cap
    big = build_fibre_product_ring(24, 24, 1, 2)
    assert big.degree_eval("(xi + zeta + F)^47") == 435342649721850
    with pytest.raises(InputError, match="monomial products"):
        big.normal_form(" + ".join(["(xi + zeta + F)^47"] * 8))
    # numbers are ASCII digits
    for text in ("xi^\u00b2", "\u0662*xi", "xi^\u0662"):
        with pytest.raises(InputError, match="unexpected character"):
            ring.normal_form(text)


# --- tokenizer: one regex against the character loop it replaced -----------


def _char_loop_tokens(text):
    digits = "0123456789"
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch in digits:
            j = i
            while j < len(text) and text[j] in digits:
                j += 1
            if j < len(text) and text[j] == "/" and j + 1 < len(text) and text[j + 1] in digits:
                j += 1
                while j < len(text) and text[j] in digits:
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


# ASCII letters, digits and operators; Unicode whitespace and letters;
# digits and numerics of other scripts, which no number or name starts with
TOKEN_ALPHABET = (
    "aFix_0129/+-*^() \t\n$.," + "\u00a0\x1c\u2003" + "\u00e9\u03bb" + "\u0662\u00b2\u2167\u00bd"
)


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except InputError as err:
        return str(err)


@settings(max_examples=500)
@given(st.text(st.one_of(st.sampled_from(TOKEN_ALPHABET), st.characters()), max_size=24))
def test_tokenizer_matches_the_character_loop(text):
    assert _outcome(ring_module._tokenize, text) == _outcome(_char_loop_tokens, text)
