"""Exact polyhedral cones: membership, duality, extremal rays."""

from fractions import Fraction
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
    back = RationalCone.from_json(cone.to_json())
    assert back.dim == cone.dim and back.generators == cone.generators
    with pytest.raises(InputError):
        RationalCone.from_json({"generators": [["1"]]})


def test_from_json_reads_dim_strictly():
    with pytest.raises(InputError, match="malformed integer: 2.9"):
        RationalCone.from_json({"dim": 2.9, "generators": [["1", "0"]]})


def test_from_json_reads_generators_as_lists():
    with pytest.raises(InputError, match="malformed coordinate list: '10'"):
        RationalCone.from_json({"dim": 2, "generators": ["10", "01"]})


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
