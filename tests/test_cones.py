"""Exact polyhedral cones: membership, duality, extremal rays."""

import copy
import pickle
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conecalc.cones import (
    Pairing,
    RationalCone,
    _dd_rays,
    primitive,
)
from conecalc.errors import InputError

OCTANT3 = RationalCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive((-3,)) == (-1,)
    for zero in [(0, 0), (False, False), (Fraction(0), 0), ()]:
        with pytest.raises(InputError):
            primitive(zero)


def test_contains_examples():
    assert OCTANT3.contains((1, 1, 1))
    assert not OCTANT3.contains((-1, 0, 0))
    wedge = RationalCone(2, [(1, 0), (1, 1)])
    assert wedge.contains((2, 1))
    assert not wedge.contains((0, 1))
    assert wedge.contains((0, 0))


def test_contains_dimension_mismatch():
    with pytest.raises(InputError):
        OCTANT3.contains((1, 2))


def test_dual_examples():
    assert OCTANT3.dual() == OCTANT3
    wedge = RationalCone(2, [(1, 0), (1, 1)])
    assert wedge.dual() == RationalCone(2, [(0, 1), (1, -1)])
    swap = Pairing([[0, 1], [1, 0]])
    quadrant = RationalCone(2, [(1, 0), (0, 1)])
    assert quadrant.dual(swap) == quadrant


def test_dual_of_zero_cone_is_whole_space():
    zero = RationalCone(2, [])
    whole = zero.dual()
    for v in [(1, 0), (-1, 0), (0, 1), (0, -1), (3, -7)]:
        assert whole.contains(v)


def test_dual_involutive():
    cones = [
        OCTANT3,
        RationalCone(2, [(1, 0), (1, 1)]),
        RationalCone(3, [(1, 0, -1), (0, 1, 0), (0, 0, 1)]),
        RationalCone(2, [(1, 0), (-1, 0), (0, 1)]),  # half plane
    ]
    for cone in cones:
        assert cone.dual().dual() == cone


def test_equals_examples():
    assert OCTANT3 == RationalCone(3, [(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    half = RationalCone(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert OCTANT3 != half
    assert RationalCone(2, [(1, 0), (0, 1), (1, 1)]) == RationalCone(2, [(1, 0), (0, 1)])
    assert OCTANT3 != RationalCone(2, [(1, 0), (0, 1)])


def test_extremal_rays_examples():
    assert set(RationalCone(2, [(1, 0), (0, 1), (1, 1)]).extremal_rays()) == {
        (1, 0),
        (0, 1),
    }
    assert set(OCTANT3.extremal_rays()) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    cone = RationalCone(3, [(2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 1)])
    assert set(cone.extremal_rays()) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_extremal_rays_irredundant():
    cone = RationalCone(3, [(1, 0, -1), (0, 1, -1), (0, 0, 1), (1, 1, -1)])
    rays = cone.extremal_rays()
    for ray in rays:
        others = [r for r in rays if r != ray]
        smaller = RationalCone(3, others) if others else None
        assert smaller is None or not smaller.contains(ray)
    assert cone == RationalCone(3, rays)


def test_generators_canonical():
    cone = RationalCone(2, [(2, 4), (Fraction(1, 2), 1), (1, 0)])
    # primitive, deduplicated, descending lex
    assert cone.generators == ((1, 2), (1, 0))


def test_violated_constraint_reports_facet():
    kind, normal, value = OCTANT3.violated_constraint((1, -2, 0))
    assert kind == "facet"
    assert value < 0
    assert sum(n * x for n, x in zip(normal, (1, -2, 0))) == value
    assert OCTANT3.violated_constraint((1, 2, 0)) is None


def test_violated_constraint_reports_span():
    plane = RationalCone(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)])
    kind, normal, value = plane.violated_constraint((0, 0, 1))
    assert kind == "span"
    assert value != 0
    assert plane.contains((-5, 2, 0))


def test_zero_generator_rejected():
    with pytest.raises(InputError):
        RationalCone(2, [(0, 0)])


def test_dimension_cap():
    with pytest.raises(InputError):
        RationalCone(7, [(1,) * 7])


def test_json_round_trip():
    cone = RationalCone(3, [(1, 0, -1), (0, 2, 1)])
    assert cone.to_json() == {"dim": 3, "generators": [["1", "0", "-1"], ["0", "2", "1"]]}


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(OCTANT3)


def test_eq_uses_cone_equality():
    assert RationalCone(2, [(1, 0), (0, 1), (1, 1)]) == RationalCone(
        2, [(1, 0), (0, 1)]
    )
    assert RationalCone(2, [(1, 0)]) != RationalCone(2, [(0, 1)])


vectors = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)).filter(
        lambda v: any(v)
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_generators_are_members(gens):
    cone = RationalCone(3, gens)
    for g in gens:
        assert cone.contains(g)
    # sums and positive scalings stay inside
    total = tuple(sum(g[i] for g in gens) for i in range(3))
    assert cone.contains(total)
    assert cone.contains(tuple(Fraction(7, 3) * x for x in gens[0]))


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_dual_pairs_nonnegatively(gens):
    cone = RationalCone(3, gens)
    d = cone.dual()
    for y in d.generators:
        for g in cone.generators:
            assert sum(a * b for a, b in zip(y, g)) >= 0
    assert d.dual() == cone


# --- differential tests: every facet table must equal double description ---

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _dd_table(cone):
    facets, span_normals = _dd_rays(list(cone.generators), cone.dim)
    return tuple(facets), tuple(span_normals)


@st.composite
def square_sets(draw):
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[rationals] * dim).filter(any)
    return dim, draw(st.lists(vec, min_size=dim, max_size=dim))


@settings(max_examples=150, deadline=None)
@given(square_sets())
def test_independent_facets_equal_dd(case):
    dim, gens = case
    expected = _dd_table(RationalCone(dim, gens))
    # at most dim generators span the space only when they are dim independent ones
    assume(expected[1] == ())
    # the simplicial route must not fall back to double description
    with mock.patch("conecalc.cones._dd_rays", side_effect=AssertionError):
        cone = RationalCone(dim, gens)
    assert (cone._facets, cone._span_normals) == expected


@st.composite
def degenerate_sets(draw):
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[rationals] * dim).filter(any)
    base = draw(st.lists(vec, min_size=1, max_size=dim))
    shape = draw(st.sampled_from(["dependent", "duplicate", "extra"]))
    if shape == "dependent":
        weights = draw(st.lists(rationals, min_size=len(base), max_size=len(base)))
        combo = tuple(sum(w * v[i] for w, v in zip(weights, base)) for i in range(dim))
        gens = base + ([combo] if any(combo) else [])
    elif shape == "duplicate":
        gens = base + [tuple(3 * x for x in base[0])]
    else:
        extra = dim + 1 - len(base)
        gens = base + draw(st.lists(vec, min_size=extra, max_size=extra))
    return dim, gens


@settings(max_examples=150, deadline=None)
@given(degenerate_sets())
def test_degenerate_facets_equal_dd(case):
    dim, gens = case
    cone = RationalCone(dim, gens)
    assert (cone._facets, cone._span_normals) == _dd_table(cone)


@st.composite
def cones_with_probe(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=dim + 1))
    probe = draw(st.tuples(*[rationals] * dim))
    if draw(st.booleans()):
        probe = tuple(str(x) for x in probe)
    return RationalCone(dim, gens), probe


@settings(max_examples=150, deadline=None)
@given(cones_with_probe())
def test_violated_value_is_exact_dot(case):
    cone, probe = case
    exact = tuple(Fraction(x) for x in probe)

    def dot(normal):
        return sum(Fraction(n) * x for n, x in zip(normal, exact))

    found = cone.violated_constraint(probe)
    if found is None:
        assert all(dot(n) >= 0 for n in cone._facets)
        assert all(dot(n) == 0 for n in cone._span_normals)
    else:
        kind, normal, value = found
        assert type(value) is Fraction
        assert value == dot(normal)
        assert value < 0 if kind == "facet" else value != 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=6).filter(any))
def test_primitive_agrees_across_input_types(ints):
    expected = primitive([Fraction(x) for x in ints])
    assert primitive(ints) == expected
    assert all(type(x) is int for x in primitive(ints))
    bools = [x > 0 for x in ints]
    if any(bools):
        result = primitive(bools)
        assert result == primitive([int(b) for b in bools])
        assert all(type(x) is int for x in result)


def _scaled_reference(fracs):
    """primitive by the textbook route: scale by the lcm, truncate, divide."""
    scale = lcm(*(x.denominator for x in fracs))
    ints = [int(x * scale) for x in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


# mixed denominators and signs, never all zero
mixed_fractions = st.lists(
    st.fractions(min_value=-7, max_value=7, max_denominator=12), min_size=1, max_size=6
).filter(any)


@settings(max_examples=150, deadline=None)
@given(mixed_fractions)
def test_primitive_of_fractions_matches_scaled_reference(fracs):
    result = primitive(fracs)
    assert result == _scaled_reference(fracs)
    assert all(type(x) is int for x in result)


def test_primitive_of_negative_mixed_denominators():
    fracs = [Fraction(-1, 6), Fraction(-3, 4), Fraction(5, -9), Fraction(0)]
    assert primitive(fracs) == _scaled_reference(fracs) == (-6, -27, -20, 0)


# --- membership: an int probe answers as its Fraction and string forms do ---


@st.composite
def cones_with_int_probe(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * dim).filter(any)
    gens = draw(st.lists(vec, max_size=dim + 2))
    probe = draw(st.one_of(st.just((0,) * dim), st.tuples(*[st.integers(-6, 6)] * dim)))
    return RationalCone(dim, gens), probe


@settings(max_examples=200, deadline=None)
@given(cones_with_int_probe())
def test_int_probe_answers_as_fractions_and_strings(case):
    cone, probe = case
    found = cone.violated_constraint(probe)
    assert found == cone.violated_constraint(tuple(Fraction(x) for x in probe))
    assert found == cone.violated_constraint([str(x) for x in probe])
    assert cone.contains(probe) is (found is None)
    if found is not None:
        assert type(found[2]) is Fraction


@settings(max_examples=60, deadline=None)
@given(cones_with_int_probe(), st.integers(-3, 3).filter(bool))
def test_wrong_length_int_probe_raises_the_same_error(case, change):
    cone, probe = case
    wrong = probe[:change] if change < 0 else probe + (1,) * change
    messages = set()
    for form in (wrong, tuple(Fraction(x) for x in wrong), [str(x) for x in wrong]):
        with pytest.raises(InputError) as err:
            cone.violated_constraint(form)
        messages.add(str(err.value))
    assert messages == {
        f"vector length {len(wrong)} does not match cone dimension {cone.dim}"
    }


# --- differential test: the integer dual against the Fraction dual ---------


def _fraction_dual(cone, pairing):
    """Rows g.M in Fractions, made primitive, then double description."""
    n = cone.dim
    rows = [
        tuple(sum(Fraction(g[i]) * pairing.matrix[i][j] for i in range(n)) for j in range(n))
        for g in cone.generators
    ]
    rays, lineality = _dd_rays([primitive(r) for r in rows if any(r)], n)
    gens = list(rays)
    for l in lineality:
        gens += [l, tuple(-x for x in l)]
    return RationalCone(n, gens)


def _assert_same_cone(got, want):
    assert got.to_json() == want.to_json()
    assert got._facets == want._facets
    assert got._span_normals == want._span_normals


@st.composite
def cones_with_pairing(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-4, 4)] * dim).filter(any)
    gens = draw(st.lists(vec, max_size=5))
    matrix = draw(st.lists(st.tuples(*[rationals] * dim), min_size=dim, max_size=dim))
    return RationalCone(dim, gens), Pairing(matrix)


@settings(max_examples=150, deadline=None)
@given(cones_with_pairing())
def test_integer_dual_equals_fraction_dual(case):
    cone, pairing = case
    _assert_same_cone(cone.dual(pairing), _fraction_dual(cone, pairing))


def _nonsingular(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return True


@settings(max_examples=150, deadline=None)
@given(cones_with_pairing())
def test_dual_of_dual_is_the_cone(case):
    """Arbitrary (not only simplicial) cones: dualising under a nonsingular
    pairing and then under its transpose gives the cone back."""
    cone, pairing = case
    assume(_nonsingular(pairing.matrix))
    transpose = Pairing([list(col) for col in zip(*pairing.matrix)])
    assert cone.dual(pairing).dual(transpose) == cone


def test_integer_dual_on_singular_pairing_and_zero_cone():
    cone = RationalCone(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1)])
    singular = Pairing([["1/2", 1, 0], [-1, "-2", 0], ["3/2", 3, 0]])
    zero = RationalCone(3, [])
    for case, pairing in ((cone, singular), (zero, singular), (zero, Pairing.standard(3))):
        _assert_same_cone(case.dual(pairing), _fraction_dual(case, pairing))
    assert zero.dual(singular).to_json() == zero.dual().to_json()


# --- the simplicial dual against double description on the same rows -------


# st.fractions is slow to draw; 36 pairing entries at dim 6 need a cheap one
cheap_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def _invertible(draw, dim):
    """A lower unitriangular times an upper triangular matrix with a nonzero
    diagonal: nonsingular however many zeros the draws give."""
    lower = [[draw(cheap_rationals) if j < i else int(i == j) for j in range(dim)] for i in range(dim)]
    upper = [
        [draw(cheap_rationals.filter(bool) if i == j else cheap_rationals) if j >= i else 0
         for j in range(dim)]
        for i in range(dim)
    ]
    return [[sum(lower[i][t] * upper[t][j] for t in range(dim)) for j in range(dim)] for i in range(dim)]


@st.composite
def cones_with_any_pairing(draw):
    dim = draw(st.integers(1, 6))
    vec = st.tuples(*[cheap_rationals] * dim).filter(any)
    shape = draw(st.sampled_from(["simplex", "simplex", "extra", "deficient"]))
    if shape == "deficient":
        base = draw(st.lists(vec, min_size=1, max_size=max(1, dim - 1)))
        weights = draw(st.lists(st.integers(0, 3), min_size=len(base), max_size=len(base)))
        combo = tuple(sum(w * v[i] for w, v in zip(weights, base)) for i in range(dim))
        gens = base + ([combo] if any(combo) else [])
    else:
        gens = _invertible(draw, dim)
        if shape == "extra":
            gens.append(draw(vec))
    if draw(st.integers(0, 2)):
        matrix = _invertible(draw, dim)
    else:
        # singular: the last row is a multiple of the sum of the others
        matrix = draw(st.lists(st.lists(cheap_rationals, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
        scale = draw(cheap_rationals)
        matrix[-1] = [scale * sum(row[j] for row in matrix[:-1]) for j in range(dim)]
    return RationalCone(dim, gens), Pairing(matrix)


@settings(max_examples=300, deadline=None)
@given(cones_with_any_pairing())
def test_dual_equals_dd_on_the_same_rows(case):
    cone, pairing = case
    dim = cone.dim
    scale = lcm(*(x.denominator for row in pairing.matrix for x in row))
    matrix = [[x * scale for x in row] for row in pairing.matrix]
    rows = [
        primitive([sum(g[i] * matrix[i][j] for i in range(dim)) for j in range(dim)])
        for g in cone.generators
        if any(sum(g[i] * matrix[i][j] for i in range(dim)) for j in range(dim))
    ]
    rays, lineality = _dd_rays(list(rows), dim)
    want = RationalCone(
        dim, list(rays) + [v for l in lineality for v in (l, tuple(-x for x in l))]
    )
    simplicial = len(rows) == dim and lineality == []
    if simplicial:
        # dim independent rows: the dual basis answers, with no DD pass
        with mock.patch("conecalc.cones._dd_rays", side_effect=AssertionError):
            got = cone.dual(pairing)
    else:
        got = cone.dual(pairing)
    assert got.generators == want.generators
    assert got._facets == want._facets
    assert got._span_normals == want._span_normals
    for twin in (copy.copy(got), pickle.loads(pickle.dumps(got))):
        assert (twin.generators, twin._facets, twin._span_normals) == (
            got.generators, got._facets, got._span_normals
        )


@st.composite
def cone_pairs(draw):
    dim = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=dim + 1))
    shape = draw(st.sampled_from(["random", "redundant", "rescaled"]))
    if shape == "random":
        other = draw(st.lists(vec, min_size=1, max_size=dim + 1))
    elif shape == "redundant":
        # a positive combination of two generators adds nothing to the cone;
        # it is no ray when it cancels, as 2*(3,) + 3*(-2,) does
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        combo = tuple(2 * x + 3 * y for x, y in zip(a, b))
        other = gens + [combo] * any(combo)
    else:
        other = [tuple(draw(st.integers(1, 4)) * x for x in g) for g in reversed(gens)]
    return RationalCone(dim, gens), RationalCone(dim, other)


@settings(max_examples=200, deadline=None)
@given(cone_pairs())
def test_eq_agrees_with_two_way_containment(case):
    a, b = case
    both = all(b.contains(g) for g in a.generators) and all(a.contains(g) for g in b.generators)
    assert (a == b) is both
    assert (b == a) is both
    assert (a != b) is not both


def test_eq_on_different_generator_tuples():
    # equal cones whose canonical generators differ: a redundant ray, and a
    # line spanned two ways
    plain = RationalCone(2, [(1, 0), (0, 1)])
    redundant = RationalCone(2, [(1, 0), (0, 1), (1, 1)])
    assert plain.generators != redundant.generators
    assert plain == redundant and redundant == plain
    line = RationalCone(2, [(1, 1), (-1, -1)])
    assert line == RationalCone(2, [(2, 2), (-1, -1), (3, 3)])
    assert line != RationalCone(2, [(1, 1)])
    assert RationalCone(2, []) != plain
    assert RationalCone(2, []) == RationalCone(2, [])
