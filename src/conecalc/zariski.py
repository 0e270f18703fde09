"""Weak Zariski decomposition on a fibre product of two projectivized
bundles over a curve.

A pseudoeffective divisor class a*xi + b*zeta + c*F is split into a nef
part P and an effective part N by walking the Harder-Narasimhan ladders of
the two bundles. Every ladder step is recorded as a numerical blow-up
ledger entry (center rank plus exceptional multiplicity); the coordinates
(a, b, c) name the same class on every model of the chain, so the input
coordinates ride the whole chain unchanged. Certificates are dumb value
objects: `verify` re-derives every claim from the two bundles alone, and
`decompose` refuses to return a certificate its own verifier rejects.
"""

from fractions import Fraction

from . import bundles as bn
from .bundles import HNCurveBundle
from .catalog import nef_fibre_product, psef_fibre_product
from .cones import inequality_text, primitive
from .errors import InputError, InternalError
from .presets import FIBRE_PRODUCT_OVER_CURVE, _KINDS, NumClass
from .rationals import (
    _echo, as_fraction, format_linear, format_rational, parse_bool, parse_coords, parse_rational,
    parse_records
)
from .record import Record

BOTH_SEMISTABLE = "both_semistable"
ONE_CORANK_ONE = "one_corank_one"
BOTH_CORANK_ONE = "both_corank_one"
TERMINAL_CASES = (BOTH_SEMISTABLE, ONE_CORANK_ONE, BOTH_CORANK_ONE)

_IDENTITY_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_EXACT = (Fraction, Fraction, Fraction)


def _divisor(coords):
    """The class a*xi + b*zeta + c*F; (xi, zeta, F) is the degree-1 basis at any ranks."""
    if len(coords) != 3:
        raise InputError(f"expected 3 coordinates for degree 1, got {len(coords)}")
    poly = {m: as_fraction(c) for m, c in zip(_IDENTITY_BASIS, coords) if c}
    return NumClass(("xi", "zeta", "F"), 1, poly)


def _coords(cls):
    """The (a, b, c) coordinates of a divisor class on the fibre product,
    given as a ring class or as a triple of rationals. A tuple of three
    `Fraction`s is returned as it is."""
    if type(cls) is tuple and tuple(map(type, cls)) == _EXACT:
        return cls
    if isinstance(cls, NumClass):
        if cls.degree != 1 or len(cls.gens) != 3:
            raise InputError("expected a divisor class on the fibre product")
        return cls.coordinates(_IDENTITY_BASIS)
    try:
        coords = tuple(parse_rational(x) if isinstance(x, str) else as_fraction(x) for x in cls)
    except (TypeError, ValueError, OverflowError):
        coords = ()
    if len(coords) != 3:
        raise InputError("divisor coordinates must be a triple (a, b, c)")
    return coords


def _require_psef(coords, cone):
    hit = cone.violated_constraint(coords)
    if hit is not None:
        kind, normal, value = hit
        raise InputError(
            "class is not pseudoeffective: violated inequality "
            f"{inequality_text(kind, normal, ('a', 'b', 'c'))} "
            f"(value {format_rational(value)})"
        )


def _same_bundle(x, y):
    # names are display-only; chain replay compares numerical content
    return (x.rank, x.degree, x.quotients) == (y.rank, y.degree, y.quotients)


def _terminal_shaped(bundle):
    return len(bundle.quotients) == 1 or bundle.quotients[0][0] == bundle.rank - 1


def _require_pair_ranks(first, second):
    """The fibre product preset's rank check, on a pair that needs no ring."""
    if first.rank < 2 or second.rank < 2:
        raise InputError(_KINDS[FIBRE_PRODUCT_OVER_CURVE].rank_error)


def _terminal_label(first, second):
    unstable = (len(first.quotients) > 1) + (len(second.quotients) > 1)
    return TERMINAL_CASES[unstable]


class ReductionStep(Record):
    """One ladder step on one factor, as a pure numerical record.

    The step replaces ``from_bundle`` by the subbundle left after peeling
    off the minimal-slope quotient; the blow-up center is the
    projectivization of that quotient and the exceptional multiplicity is
    the xi (resp. zeta) coefficient of the class being decomposed. Negative
    multiplicities are storable on purpose: `verify` flags them.
    """

    __slots__ = (
        "factor", "from_bundle", "to_bundle", "blowup_center_rank", "exceptional_multiplicity"
    )

    def __init__(
        self, factor, from_bundle, to_bundle, blowup_center_rank, exceptional_multiplicity
    ):
        if factor not in ("first", "second"):
            raise InputError(f"unknown factor {_echo(factor)}")
        if blowup_center_rank + to_bundle.rank != from_bundle.rank:
            raise InputError("blow-up center rank does not match the rank drop")
        if blowup_center_rank < 1:
            raise InputError("blow-up center rank must be positive")
        if blowup_center_rank >= from_bundle.rank - 1:
            raise InputError(
                "reduction step needs quotient rank at most rank - 2; "
                "corank-one shapes are terminal"
            )
        mult = as_fraction(exceptional_multiplicity)
        super().__init__(factor, from_bundle, to_bundle, blowup_center_rank, mult)

    def to_json(self):
        return {
            "factor": self.factor,
            "mult": format_rational(self.exceptional_multiplicity),
            "to": self.to_bundle.to_json(),
        }

    @classmethod
    def from_json(cls, obj, from_bundle):
        try:
            factor = obj["factor"]
            mult = parse_rational(obj["mult"], max_bits=None)
            to_bundle = HNCurveBundle.from_json(obj["to"], max_bits=None)
        except (KeyError, TypeError):
            raise InputError("malformed reduction step record") from None
        return cls(
            factor,
            from_bundle,
            to_bundle,
            from_bundle.rank - to_bundle.rank,
            mult,
        )


class ZariskiCertificate(Record):
    """Decomposition evidence: input coordinates, the reduction chain, the
    terminal case label, nef part P, and the effective combination N.

    P lives in the terminal-pair intersection ring; N lists (generator,
    coefficient) pairs over the terminal effective generators. The record
    asserts nothing by itself; `verify` is the sole judge and `verified`
    just caches its latest verdict.
    """

    __slots__ = ("input_coords", "steps", "terminal_case", "P", "N", "verified")

    def __init__(self, input_coords, steps, terminal_case, P, N, verified):
        coords = tuple(as_fraction(x) for x in input_coords)
        if len(coords) != 3:
            raise InputError("certificate input must be a coordinate triple")
        if terminal_case not in TERMINAL_CASES:
            raise InputError(f"unknown terminal case {_echo(terminal_case)}")
        N = tuple((gen, as_fraction(coeff)) for gen, coeff in N)
        super().__init__(coords, tuple(steps), terminal_case, P, N, verified)

    def to_json(self):
        return {
            "input": [format_rational(x) for x in self.input_coords],
            "steps": [step.to_json() for step in self.steps],
            "terminal": self.terminal_case,
            "P": [format_rational(x) for x in _coords(self.P)],
            "N": [
                {
                    "gen": [format_rational(x) for x in _coords(gen)],
                    "coeff": format_rational(coeff),
                }
                for gen, coeff in self.N
            ],
            "verified": self.verified,
        }

    @classmethod
    def from_json(cls, obj, first, second):
        try:
            input_coords = parse_coords(obj["input"], max_bits=None)
            step_objs = parse_records(obj["steps"])
            terminal = obj["terminal"]
            p_coords = parse_coords(obj["P"], max_bits=None)
            n_objs = parse_records(obj["N"])
            verified = parse_bool(obj["verified"])
        except (KeyError, TypeError):
            raise InputError("malformed certificate record") from None
        # rebuild steps in chain order so from_bundle links stay consistent
        chain = [first, second]
        steps = []
        for step_obj in step_objs:
            if not isinstance(step_obj, dict):
                raise InputError("malformed reduction step record")
            idx = 0 if step_obj.get("factor") == "first" else 1
            step = ReductionStep.from_json(step_obj, chain[idx])
            chain[0 if step.factor == "first" else 1] = step.to_bundle
            steps.append(step)
        _require_pair_ranks(chain[0], chain[1])
        P = _divisor(p_coords)
        N = []
        for entry in n_objs:
            try:
                gen_coords = parse_coords(entry["gen"], max_bits=None)
                coeff = parse_rational(entry["coeff"], max_bits=None)
            except (KeyError, TypeError):
                raise InputError("malformed effective-part record") from None
            N.append((_divisor(gen_coords), coeff))
        return cls(input_coords, tuple(steps), terminal, P, tuple(N), verified)


def reduce_step(bundle, cls, factor="first"):
    """One reduction step on one factor, as a `ReductionStep`, or None when
    the factor is terminal-shaped (semistable, or minimal-slope quotient of
    corank one).

    The exceptional multiplicity is the class's xi (first factor) or zeta
    (second factor) coefficient. The class is not tested for
    pseudoeffectivity: no step changes its coordinates, so `decompose` tests
    it once, on entry.
    """
    if factor not in ("first", "second"):
        raise InputError(f"unknown factor {factor!r}")
    coords = _coords(cls)
    if _terminal_shaped(bundle):
        return None
    return ReductionStep(
        factor,
        bundle,
        bn.sub_bundle_after_step(bundle, 1),
        bundle.quotients[0][0],
        coords[0] if factor == "first" else coords[1],
    )


def terminal_decompose(first, second, cls):
    """Split a class on a terminal-shaped pair into (P, N).

    The identity cls = a*(xi - mu_max*F) + b*(zeta - mu'_max*F) + c''*F with
    c'' = c + a*mu_max + b*mu'_max drives everything: each unstable factor
    sends its term to N (those rays are classes of actual subbundle loci)
    and moves its mu_max multiple onto F; semistable factors and the F term
    stay in P. Pseudoeffectivity is exactly nonnegativity of the three
    expansion coefficients, and is checked here for direct callers. P is
    not re-tested for nefness; `verify` does that.
    """
    if not (_terminal_shaped(first) and _terminal_shaped(second)):
        raise InputError("factors are not terminal-shaped; reduce them first")
    a, b, c = _coords(cls)
    mu1 = bn.mu_max(first)
    mu2 = bn.mu_max(second)
    c_final = c + a * mu1 + b * mu2
    if a < 0 or b < 0 or c_final < 0:
        expansion = (
            (a, ((1, "xi"), (-mu1, "F"))),
            (b, ((1, "zeta"), (-mu2, "F"))),
            (c_final, ((1, "F"),)),
        )
        value, terms = next(entry for entry in expansion if entry[0] < 0)
        raise InputError(
            "class is not pseudoeffective: expansion coefficient of "
            f"{format_linear(terms)} is {format_rational(value)}"
        )
    _require_pair_ranks(first, second)
    N = []
    if not first.semistable:
        if a:
            N.append((_divisor((1, 0, -mu1)), a))
        a, c = 0, c + a * mu1
    if not second.semistable:
        if b:
            N.append((_divisor((0, 1, -mu2)), b))
        b, c = 0, c + b * mu2
    return _divisor((a, b, c)), tuple(N)


def decompose(first, second, cls, order="first_then_second"):
    """Weak Zariski decomposition of a pseudoeffective class, certified.

    Each factor is reduced along its ladder until terminal-shaped (first
    factor first by default; the terminal data is order-independent because
    no step changes the coordinates), then the terminal split is taken.
    Pseudoeffectivity is tested once, on entry, against the psef cone of
    the input pair; a non-member is rejected with the violated facet
    inequality. Peeling minimal-slope quotients keeps mu_max, so that cone
    is the terminal pair's too. The certificate is built once, marked
    verified, and `verify` (which never reads the mark) checks it, nefness
    of P included: a rejection raises `InternalError` instead of returning.
    """
    if order not in ("first_then_second", "second_then_first"):
        raise InputError(f"unknown reduction order {order!r}")
    coords = _coords(cls)
    _require_psef(coords, psef_fibre_product(first, second))
    chain = [first, second]
    steps = []
    sequence = (0, 1) if order == "first_then_second" else (1, 0)
    for idx in sequence:
        factor = "first" if idx == 0 else "second"
        while (step := reduce_step(chain[idx], coords, factor=factor)) is not None:
            steps.append(step)
            chain[idx] = step.to_bundle
    P, N = terminal_decompose(chain[0], chain[1], coords)
    label = _terminal_label(chain[0], chain[1])
    cert = ZariskiCertificate(coords, tuple(steps), label, P, N, verified=True)
    result = verify(cert, first, second)
    if not result:
        raise InternalError(
            "decomposition failed its own verification: " + "; ".join(result.reasons)
        )
    return cert


class VerifyResult(Record):
    __slots__ = ("ok", "reasons")

    def __bool__(self):
        return self.ok


def verify(cert, first, second):
    """Re-check a certificate from scratch against the two bundles.

    Replays the reduction chain (corank hypothesis, center ranks, reduced
    bundles, multiplicities equal to the input coordinates), then checks
    multiplicities and N coefficients for sign, P for nef membership, N
    generators against the terminal effective generators, and the sum P + N
    against the input. P and the N generators may be ring classes or
    coordinate triples, as `decompose` takes them; anything else is a
    reason. Never raises on two `HNCurveBundle`s; returns a VerifyResult
    that is falsy when any reason was collected. A reduced bundle whose
    rank, degree and ladder differ from the ladder slice ``quotients[1:]``
    and its sums is a mismatch; the chain goes on with the slice itself. Of
    each bundle only these numbers are read, the ladder's length standing
    for ``semistable``; ``cert.verified`` is never read.
    """
    reasons = []
    if first.rank < 2 or second.rank < 2:
        return VerifyResult(False, ("factors must have rank at least 2",))
    chain = [first, second]
    for i, step in enumerate(cert.steps):
        label = f"step {i + 1}"
        idx = 0 if step.factor == "first" else 1
        current = chain[idx]
        if not _same_bundle(step.from_bundle, current):
            reasons.append(f"{label}: from-bundle does not match the chain")
            return VerifyResult(False, tuple(reasons))
        if len(current.quotients) == 1:
            reasons.append(f"{label}: factor is already semistable")
            return VerifyResult(False, tuple(reasons))
        if step.blowup_center_rank != current.quotients[0][0]:
            reasons.append(
                f"{label}: center rank is not the minimal-slope quotient rank"
            )
        rest = current.quotients[1:]
        reduced = (sum(r for r, _ in rest), sum(d for _, d in rest), rest)
        if (step.to_bundle.rank, step.to_bundle.degree, step.to_bundle.quotients) != reduced:
            reasons.append(f"{label}: reduced bundle mismatch")
            return VerifyResult(False, tuple(reasons))
        expected = cert.input_coords[idx]
        if step.exceptional_multiplicity != expected:
            coordinate = "xi" if idx == 0 else "zeta"
            reasons.append(
                f"{label}: multiplicity differs from the {coordinate} coefficient"
            )
        if step.exceptional_multiplicity < 0:
            reasons.append("negative exceptional multiplicity")
        chain[idx] = HNCurveBundle._trusted(*reduced)
    if chain[0].rank < 2 or chain[1].rank < 2:
        reasons.append("chain reduced a factor below rank 2")
        return VerifyResult(False, tuple(reasons))
    if not (_terminal_shaped(chain[0]) and _terminal_shaped(chain[1])):
        reasons.append("chain stops before a terminal shape")
    expected_case = _terminal_label(chain[0], chain[1])
    if cert.terminal_case != expected_case:
        reasons.append(f"terminal case label should be {expected_case!r}")
    try:
        p_coords = _coords(cert.P)
        n_parts = [(_coords(gen), coeff) for gen, coeff in cert.N]
    except (InputError, InternalError) as err:
        reasons.append(str(err))
        return VerifyResult(False, tuple(reasons))
    nef = nef_fibre_product(chain[0], chain[1])
    psef = psef_fibre_product(chain[0], chain[1])
    effective = set(psef.generators)
    if not nef.contains(p_coords):
        reasons.append("P not nef")
    total = list(p_coords)
    for gen_coords, coeff in n_parts:
        if coeff < 0:
            reasons.append(f"negative N coefficient {format_rational(coeff)}")
        if any(gen_coords):
            if tuple(primitive(gen_coords)) not in effective:
                reasons.append("N generator is not a terminal effective generator")
        else:
            reasons.append("zero N generator")
        total = [t + coeff * g if g else t for t, g in zip(total, gen_coords)]
    if tuple(total) != cert.input_coords:
        reasons.append("P + N does not reproduce the input class")
    return VerifyResult(not reasons, tuple(reasons))

