"""Slopes, quotient ladders, surface bundle records."""

from fractions import Fraction

import pytest
from hypothesis import given
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
from conecalc.ring import PROJ_BUNDLE_OVER_SURFACE_RHO1, SpacePreset


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


def test_bundle_json_round_trip():
    b = HNCurveBundle(3, 2, [(2, -1), (1, 3)], name="E2")
    assert HNCurveBundle.from_json(b.to_json()) == b
    s = SurfaceBundleData(2, (2,), 1, True)
    assert SurfaceBundleData.from_json(s.to_json()) == s


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
