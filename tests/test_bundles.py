"""Slopes, quotient ladders, surface bundle records."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conecalc.bundles import (
    HNCurveBundle,
    SurfaceBundleData,
    mu_max,
    mu_min,
    slope,
    sub_bundle_after_step,
    validate_hn,
)
from conecalc.errors import InputError
from conecalc.presets import (
    PROJ_BUNDLE_OVER_RULED_SURFACE, PROJ_BUNDLE_OVER_SURFACE_RHO1, SpacePreset,
    _require_c2_end_zero,
)
from conecalc.rationals import MAX_RATIONAL_BITS


def test_slope_examples():
    assert slope(HNCurveBundle(2, 3)) == Fraction(3, 2)
    assert slope(HNCurveBundle(4, 0)) == 0
    assert slope(HNCurveBundle(3, -2)) == Fraction(-2, 3)


def test_mu_min_max():
    b = HNCurveBundle(2, 0, [(1, -1), (1, 1)])
    assert mu_min(b) == -1
    assert mu_max(b) == 1
    s = HNCurveBundle(2, 0)
    assert mu_min(s) == mu_max(s) == 0
    c = HNCurveBundle(3, 2, [(2, -1), (1, 3)])
    assert mu_min(c) == Fraction(-1, 2)
    assert mu_max(c) == 3


def test_validate_hn():
    assert "slopes not strictly increasing" in validate_hn(2, 0, [(1, 1), (1, -1)])
    assert "rank sum mismatch" in validate_hn(2, 0, [(1, 0)])
    assert validate_hn(2, 0, [(1, -1), (1, 1)]) == []
    assert "zero-rank quotient" in validate_hn(2, 0, [(0, 0), (2, 0)])
    # ties rejected: strictness is part of the filtration's definition
    assert "slopes not strictly increasing" in validate_hn(2, 0, [(1, 0), (1, 0)])


def _validate_hn_by_fractions(rank, degree, quotients):
    """validate_hn with the slopes compared as Fractions."""
    if any(r <= 0 for r, _ in quotients):
        return ["zero-rank quotient"]
    problems = []
    if sum(r for r, _ in quotients) != rank:
        problems.append("rank sum mismatch")
    if sum(d for _, d in quotients) != degree:
        problems.append("degree sum mismatch")
    slopes = [Fraction(d, r) for r, d in quotients]
    if any(t <= s for s, t in zip(slopes, slopes[1:])):
        problems.append("slopes not strictly increasing")
    return problems


@given(
    st.lists(st.tuples(st.integers(1, 6), st.integers(-12, 12)), min_size=1, max_size=5),
    st.integers(-1, 1),
    st.integers(-1, 1),
)
# equal slopes written two ways, and a negative ladder
@example([(1, 1), (2, 2)], 0, 0)
@example([(2, -4), (1, -2)], 0, 0)
@example([(3, -7), (1, -2), (2, -1)], 0, 0)
def test_validate_hn_matches_fraction_slopes(quotients, rank_shift, degree_shift):
    rank = sum(r for r, _ in quotients) + rank_shift
    degree = sum(d for _, d in quotients) + degree_shift
    want = _validate_hn_by_fractions(rank, degree, quotients)
    assert validate_hn(rank, degree, quotients) == want
    assert validate_hn(rank, degree, [(0, 0)] + quotients) == ["zero-rank quotient"]


def test_bad_ladder_raises_with_reasons():
    with pytest.raises(InputError) as err:
        HNCurveBundle(2, 0, [(1, 1), (1, -1)])
    assert "slopes not strictly increasing" in err.value.reasons


def test_sub_bundle_after_step():
    b = HNCurveBundle(3, 4, [(1, 0), (2, 4)])
    e1 = sub_bundle_after_step(b, 1)
    assert (e1.rank, e1.degree, e1.semistable) == (2, 4, True)

    line = sub_bundle_after_step(HNCurveBundle(2, 0, [(1, -1), (1, 1)]), 1)
    assert (line.rank, line.degree) == (1, 1)

    deep = sub_bundle_after_step(HNCurveBundle(4, 0, [(1, -2), (1, 0), (2, 2)]), 2)
    assert (deep.rank, deep.degree, deep.semistable) == (2, 2, True)

    with pytest.raises(InputError):
        sub_bundle_after_step(HNCurveBundle(2, 0), 1)


def test_c2_end():
    # c2(End) lives on the preset; its constructors demand it vanish, so the
    # nonzero case is built field by field
    assert SpacePreset.surface_rho1(2, 1, 2, 1).c2_end == 0
    assert SpacePreset.surface_rho1(2, 1, 0, 0).c2_end == 0
    data = SpacePreset(
        PROJ_BUNDLE_OVER_SURFACE_RHO1, rank=3, L2=Fraction(3), e=Fraction(1), c2=Fraction(2)
    )
    assert data.c2_end == 2 * 3 * 2 - 2 * 3


# the widest integer a workspace rational may hold, in numerator or denominator
WIDEST = 2**MAX_RATIONAL_BITS - 1


@st.composite
def raw_rationals(draw, positive=False):
    """An int or a Fraction, as the raw constructor takes them; small, or as
    wide as a workspace allows."""
    low = 1 if positive else -WIDEST
    num = draw(st.one_of(st.integers(max(low, -9), 9), st.integers(low, WIDEST)))
    den = draw(st.one_of(st.integers(1, 12), st.integers(1, WIDEST)))
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 and draw(st.booleans()) else value


@st.composite
def raw_surface_presets(draw):
    """A raw-constructor surface preset whose c2(End) vanishes or not."""
    rank = draw(st.integers(2, 24))
    if draw(st.booleans()):
        kind = PROJ_BUNDLE_OVER_SURFACE_RHO1
        fields = {"L2": draw(raw_rationals(positive=True)), "e": draw(raw_rationals())}
    else:
        kind = PROJ_BUNDLE_OVER_RULED_SURFACE
        fields = {"mu": draw(raw_rationals()), "c1": (draw(raw_rationals()), draw(raw_rationals()))}
    # c2(End) = 2r*c2 - (r-1)*c1^2, so this c2 makes it vanish
    c2 = Fraction(-SpacePreset(kind, rank=rank, c2=0, **fields).c2_end, 2 * rank)
    if draw(st.booleans()):
        c2 += draw(raw_rationals())
    if c2.denominator == 1 and draw(st.booleans()):
        c2 = c2.numerator
    return SpacePreset(kind, rank=rank, c2=c2, **fields)


@given(raw_surface_presets())
@example(SpacePreset(PROJ_BUNDLE_OVER_SURFACE_RHO1, rank=24, L2=WIDEST, e=WIDEST, c2=0))
@example(SpacePreset(
    PROJ_BUNDLE_OVER_RULED_SURFACE, rank=3, mu=Fraction(1, WIDEST), c1=(Fraction(3), 0),
    c2=Fraction(6, WIDEST),
))
def test_integer_c2_end_test_agrees_with_the_fraction(preset):
    # the refusal is an integer cross-multiplication; c2_end is the Fraction reference
    vanishes = preset.c2_end == 0
    try:
        assert _require_c2_end_zero(preset) is preset
    except InputError as err:
        assert not vanishes
        assert "must vanish, got " in str(err)
    else:
        assert vanishes


def test_bundle_json_round_trip():
    b = HNCurveBundle(3, 2, [(2, -1), (1, 3)], name="E2")
    assert HNCurveBundle.from_json(b.to_json()) == b
    s = SurfaceBundleData(2, (2,), 1, True)
    assert SurfaceBundleData.from_json(s.to_json()) == s


@pytest.mark.parametrize("name", [None, ["x"], 1])
def test_bundle_name_must_be_a_json_string(name):
    record = {"rank": 2, "degree": 0}
    assert HNCurveBundle.from_json(record).name == "E"
    with pytest.raises(InputError, match="bundle name must be a JSON string"):
        HNCurveBundle.from_json(dict(record, name=name))


def test_surface_bundle_c1_must_be_a_list():
    record = {"rank": 2, "c1": "12", "c2": "0"}
    with pytest.raises(InputError, match="malformed coordinate list: '12'"):
        SurfaceBundleData.from_json(record)


ladders = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-8, 8)), min_size=1, max_size=4
)


@given(ladders)
def test_slope_between_extremes(quotients):
    rank = sum(r for r, _ in quotients)
    degree = sum(d for _, d in quotients)
    slopes = [Fraction(d, r) for r, d in quotients]
    if any(t <= s for s, t in zip(slopes, slopes[1:])):
        assert validate_hn(rank, degree, quotients)
        return
    b = HNCurveBundle(rank, degree, quotients)
    assert mu_min(b) <= slope(b) <= mu_max(b)
    assert (mu_min(b) == mu_max(b)) == b.semistable
    # every truncation is itself a valid ladder
    for j in range(1, len(quotients)):
        sub = sub_bundle_after_step(b, j)
        assert validate_hn(sub.rank, sub.degree, sub.quotients) == []
