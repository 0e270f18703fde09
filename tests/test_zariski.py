"""Weak Zariski decomposition: reduction chains, terminal splits, verify."""

import random
from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conecalc.bundles import HNCurveBundle
from conecalc.catalog import nef_fibre_product, psef_fibre_product
from conecalc.errors import InputError
from conecalc.ring import build_curve_bundle_ring, build_fibre_product_ring
from conecalc.zariski import (
    ReductionStep,
    ZariskiCertificate,
    decompose,
    reduce_step,
    terminal_decompose,
    verify,
)

UN2 = HNCurveBundle(2, 0, [(1, -1), (1, 1)])
SS2 = HNCurveBundle(2, 0)
LADDER3 = HNCurveBundle(3, 4, [(1, 0), (2, 4)])


def replace(cert, **changes):
    fields = {name: getattr(cert, name) for name in cert.__slots__}
    return ZariskiCertificate(**{**fields, **changes})


def coords(cls):
    ring_basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return cls.coordinates(ring_basis)


def test_reduce_step():
    step = reduce_step(LADDER3, (2, 1, 5))
    assert step.exceptional_multiplicity == 2
    assert step.blowup_center_rank == 1
    assert (step.to_bundle.rank, step.to_bundle.degree) == (2, 4)
    assert step.to_bundle.semistable

    zero_mult = reduce_step(
        HNCurveBundle(4, 0, [(1, -2), (1, 0), (2, 2)]), (0, 3, 1)
    )
    assert zero_mult.exceptional_multiplicity == 0

    # corank-one and semistable shapes are terminal, not steps
    assert reduce_step(UN2, (1, 1, 0)) is None
    assert reduce_step(SS2, (1, 1, 0)) is None


def test_reduce_step_second_factor():
    step = reduce_step(LADDER3, (2, 7, 5), factor="second")
    assert step.exceptional_multiplicity == 7
    with pytest.raises(InputError):
        reduce_step(LADDER3, (1, 0, 0), factor="both")


@st.composite
def ladders(draw):
    """A valid quotient ladder of 1 to 4 pieces, slopes strictly rising."""
    quotients = []
    for _ in range(draw(st.integers(1, 4))):
        rank = draw(st.integers(1, 3))
        if quotients:
            low = floor(Fraction(quotients[-1][1], quotients[-1][0]) * rank) + 1
        else:
            low = -4
        quotients.append((rank, draw(st.integers(low, low + 3))))
    rank = sum(r for r, _ in quotients)
    degree = sum(d for _, d in quotients)
    return HNCurveBundle(rank, degree, quotients)


@settings(max_examples=80, deadline=None)
@given(ladders(), ladders())
def test_reduction_chain_keeps_the_psef_cone(first, second):
    # decompose tests pseudoeffectivity once, against the input pair's cone,
    # so that cone must be the terminal pair's cone too
    assume(first.rank >= 2 and second.rank >= 2)
    chain = [first, second]
    for idx, factor in enumerate(("first", "second")):
        while (step := reduce_step(chain[idx], (1, 1, 0), factor=factor)) is not None:
            chain[idx] = step.to_bundle
    assert psef_fibre_product(*chain) == psef_fibre_product(first, second)


def test_terminal_decompose_both_semistable():
    P, N = terminal_decompose(SS2, SS2, (1, 2, 3))
    assert coords(P) == (1, 2, 3)
    assert N == ()
    assert nef_fibre_product(SS2, SS2).contains(coords(P))


def test_terminal_decompose_one_unstable():
    P, N = terminal_decompose(UN2, SS2, (1, 1, 0))
    assert coords(P) == (0, 1, 1)
    assert len(N) == 1
    gen, coeff = N[0]
    assert coords(gen) == (1, 0, -1) and coeff == 1
    assert nef_fibre_product(UN2, SS2).contains(coords(P))

    P, N = terminal_decompose(SS2, UN2, (1, 1, 0))
    assert coords(P) == (1, 0, 1)
    assert [(coords(g), c) for g, c in N] == [((0, 1, -1), 1)]
    assert nef_fibre_product(SS2, UN2).contains(coords(P))


def test_terminal_decompose_both_unstable_boundary():
    P, N = terminal_decompose(UN2, UN2, (1, 1, -2))
    assert P.is_zero
    assert nef_fibre_product(UN2, UN2).contains(coords(P))
    assert [(coords(g), c) for g, c in N] == [
        ((1, 0, -1), 1),
        ((0, 1, -1), 1),
    ]


def test_terminal_decompose_rejects_outside_cone():
    with pytest.raises(InputError) as err:
        terminal_decompose(UN2, SS2, (1, 1, -3))
    assert "expansion coefficient of F" in str(err.value)
    with pytest.raises(InputError) as err:
        terminal_decompose(UN2, SS2, (-1, 0, 5))
    assert "xi" in str(err.value)
    with pytest.raises(InputError):
        terminal_decompose(LADDER3, SS2, (1, 0, 0))


def test_decompose_case_one_worked_example():
    cert = decompose(UN2, SS2, (1, 1, 0))
    assert cert.to_json() == {
        "input": ["1", "1", "0"],
        "steps": [],
        "terminal": "one_corank_one",
        "P": ["0", "1", "1"],
        "N": [{"gen": ["1", "0", "-1"], "coeff": "1"}],
        "verified": True,
    }


def test_decompose_single_step_example():
    cert = decompose(LADDER3, SS2, (2, 1, 5))
    assert len(cert.steps) == 1
    step = cert.steps[0]
    assert step.factor == "first"
    assert step.exceptional_multiplicity == 2
    assert step.to_bundle.semistable and step.to_bundle.degree == 4
    assert cert.terminal_case == "both_semistable"
    assert coords(cert.P) == (2, 1, 5)
    assert cert.N == ()
    assert cert.verified


def test_decompose_two_phase():
    deep = HNCurveBundle(4, 0, [(1, -2), (2, 0), (1, 2)])
    cert = decompose(deep, SS2, (1, 0, 3))
    assert [s.blowup_center_rank for s in cert.steps] == [1]
    assert cert.terminal_case == "one_corank_one"
    assert verify(cert, deep, SS2).ok

    longer = HNCurveBundle(4, 0, [(1, -2), (1, 0), (2, 2)])
    cert2 = decompose(longer, SS2, (1, 0, 3))
    assert len(cert2.steps) == 2
    assert cert2.terminal_case == "both_semistable"


def test_decompose_rejects_non_psef():
    with pytest.raises(InputError) as err:
        decompose(SS2, SS2, (-1, 0, 0))
    assert "violated" in str(err.value) or ">=" in str(err.value)
    # mu_max = 1 on the first factor puts the facet a + c >= 0 on the cone
    with pytest.raises(InputError) as err:
        decompose(HNCurveBundle(2, 2), SS2, (1, 0, -5))
    assert str(err.value) == (
        "class is not pseudoeffective: violated inequality a + c >= 0 (value -4)"
    )


def test_decompose_order_independence():
    a = HNCurveBundle(4, 1, [(1, -2), (1, 0), (2, 3)])
    b = HNCurveBundle(3, -1, [(1, -2), (2, 1)])
    cls = (2, 3, 7)
    first = decompose(a, b, cls).to_json()
    second = decompose(a, b, cls, order="second_then_first").to_json()
    assert first["terminal"] == second["terminal"]
    assert first["P"] == second["P"]
    assert first["N"] == second["N"]
    # the chains themselves differ in order but not content
    assert sorted(s["factor"] for s in first["steps"]) == sorted(
        s["factor"] for s in second["steps"]
    )


def test_verify_tampered_p():
    cert = decompose(UN2, SS2, (1, 1, 0))
    ring = build_fibre_product_ring(2, 2, 0, 0)
    bad = replace(cert, P=ring.class_from_coordinates(1, (0, 0, -1)))
    result = verify(bad, UN2, SS2)
    assert not result
    assert "P not nef" in result.reasons


def test_verify_negated_multiplicity():
    cert = decompose(LADDER3, SS2, (2, 1, 5))
    step = cert.steps[0]
    bad_step = ReductionStep(
        step.factor,
        step.from_bundle,
        step.to_bundle,
        step.blowup_center_rank,
        -step.exceptional_multiplicity,
    )
    bad = replace(cert, steps=(bad_step,))
    result = verify(bad, LADDER3, SS2)
    assert not result
    assert "negative exceptional multiplicity" in result.reasons


def test_verify_wrong_terminal_label():
    cert = decompose(UN2, SS2, (1, 1, 0))
    bad = replace(cert, terminal_case="both_semistable")
    result = verify(bad, UN2, SS2)
    assert not result
    assert any("terminal case" in r for r in result.reasons)


def test_verify_reports_unusable_classes():
    cert = decompose(UN2, SS2, (1, 1, 0))
    # decompose takes a triple as a class, so verify judges one by value
    assert verify(replace(cert, P=(0, 1, 1)), UN2, SS2)
    assert "P + N does not reproduce the input class" in verify(
        replace(cert, P=(0, 1, 2)), UN2, SS2
    ).reasons
    other = build_curve_bundle_ring(2, 0).class_from_coordinates(1, (0, 1))
    result = verify(replace(cert, P=other), UN2, SS2)
    assert result.reasons == ("expected a divisor class on the fibre product",)
    for bad in (("x", 1, 1), (None, 1, 1), 7, (0, 1)):
        assert not verify(replace(cert, P=bad), UN2, SS2)
        assert not verify(replace(cert, N=((bad, 1),)), UN2, SS2)


def test_verify_broken_sum():
    cert = decompose(UN2, SS2, (1, 1, 0))
    bad = replace(cert, input_coords=(1, 1, 5))
    result = verify(bad, UN2, SS2)
    assert not result
    assert "P + N does not reproduce the input class" in result.reasons


def test_reduction_step_validation():
    with pytest.raises(InputError):
        ReductionStep("first", LADDER3, HNCurveBundle(3, 4, [(1, 0), (2, 4)]), 1, 0)
    terminal = HNCurveBundle(3, 5, [(2, 1), (1, 4)])
    with pytest.raises(InputError) as err:
        ReductionStep("first", terminal, HNCurveBundle(1, 4), 2, 0)
    assert "terminal" in str(err.value)


def test_certificate_json_round_trip():
    a = HNCurveBundle(4, 1, [(1, -2), (1, 0), (2, 3)])
    b = HNCurveBundle(3, -1, [(1, -2), (2, 1)])
    cert = decompose(a, b, (2, 3, 7))
    back = ZariskiCertificate.from_json(cert.to_json(), a, b)
    assert back.to_json() == cert.to_json()
    assert verify(back, a, b).ok


def test_certificate_reads_verified_strictly():
    payload = decompose(UN2, SS2, (1, 1, 0)).to_json()
    payload["verified"] = "false"
    with pytest.raises(InputError, match="malformed boolean: 'false'"):
        ZariskiCertificate.from_json(payload, UN2, SS2)


def test_certificate_reads_coordinate_lists_strictly():
    good = decompose(UN2, SS2, (1, 1, 0)).to_json()
    assert good["N"], "the case needs an effective part to corrupt"
    bad_input = dict(good, input="110")
    bad_p = dict(good, P="011")
    bad_gen = dict(good, N=[dict(good["N"][0], gen="101")])
    for payload, text in ((bad_input, "'110'"), (bad_p, "'011'"), (bad_gen, "'101'")):
        with pytest.raises(InputError, match=f"malformed coordinate list: {text}"):
            ZariskiCertificate.from_json(payload, UN2, SS2)


@pytest.mark.parametrize("field", ["N", "steps"])
@pytest.mark.parametrize("value", ["", {}])
def test_certificate_reads_record_lists_strictly(field, value):
    payload = dict(decompose(UN2, SS2, (1, 1, 0)).to_json(), **{field: value})
    with pytest.raises(InputError, match="malformed record list"):
        ZariskiCertificate.from_json(payload, UN2, SS2)


def test_decomposition_linear_in_the_class():
    rng = random.Random(5)
    a = HNCurveBundle(3, 2, [(1, -1), (2, 3)])
    b = HNCurveBundle(2, 1, [(1, 0), (1, 1)])
    mu1, mu2 = Fraction(3, 2), Fraction(1, 1)
    for _ in range(20):
        x = [Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5))]
        y = [Fraction(rng.randint(0, 5)), Fraction(rng.randint(0, 5))]
        x.append(-(x[0] * mu1 + x[1] * mu2) + rng.randint(0, 4))
        y.append(-(y[0] * mu1 + y[1] * mu2) + rng.randint(0, 4))
        cx = decompose(a, b, x)
        cy = decompose(a, b, y)
        cs = decompose(a, b, [p + q for p, q in zip(x, y)])
        assert coords(cs.P) == tuple(
            p + q for p, q in zip(coords(cx.P), coords(cy.P))
        )
        n_sum = {}
        for cert in (cx, cy):
            for gen, coeff in cert.N:
                key = coords(gen)
                n_sum[key] = n_sum.get(key, Fraction(0)) + coeff
        assert {coords(g): c for g, c in cs.N} == {
            k: v for k, v in n_sum.items() if v
        }


def test_exceptional_multiplicity_is_an_intersection_number():
    """The step multiplicity equals the class paired against
    F * (zeta - mu'F)^(n-1) * (xi - mu1*F)^(m-2) in the product ring."""
    rng = random.Random(9)
    first = HNCurveBundle(3, 4, [(1, 0), (2, 4)])
    second = HNCurveBundle(2, -1, [(1, -1), (1, 0)])
    m, n = first.rank, second.rank
    ring = build_fibre_product_ring(m, n, first.degree, second.degree)
    mu1 = Fraction(0)  # minimal-slope quotient of the first factor
    mu2 = Fraction(-1)
    for _ in range(20):
        a, b, c = (rng.randint(0, 6) for _ in range(3))
        functional = (
            f"F * (zeta - ({mu2})*F)^{n - 1} * (xi - ({mu1})*F)^{m - 2}"
        )
        cls = f"({a}*xi + {b}*zeta + ({c})*F)"
        assert ring.degree_eval(f"{cls} * {functional}") == a
        step = reduce_step(first, (a, b, c))
        assert step.exceptional_multiplicity == a
