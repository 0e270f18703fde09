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
from .rationals import format_rational, parse_bool, parse_coords, parse_rational, parse_records
from .record import Record
from .ring import NumClass, build_fibre_product_ring

BOTH_SEMISTABLE = "both_semistable"
ONE_CORANK_ONE = "one_corank_one"
BOTH_CORANK_ONE = "both_corank_one"
TERMINAL_CASES = (BOTH_SEMISTABLE, ONE_CORANK_ONE, BOTH_CORANK_ONE)

_IDENTITY_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _coords(cls):
    """The (a, b, c) coordinates of a divisor class on the fibre product,
    given as a ring class or as a triple of rationals."""
    if isinstance(cls, NumClass):
        if cls.degree != 1 or len(cls.gens) != 3:
            raise InputError("expected a divisor class on the fibre product")
        return cls.coordinates(_IDENTITY_BASIS)
    try:
        coords = tuple(
            parse_rational(x) if isinstance(x, str) else Fraction(x) for x in cls
        )
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
    return bundle.semistable or bundle.quotients[0][0] == bundle.rank - 1


def _terminal_label(first, second):
    unstable = (not first.semistable) + (not second.semistable)
    return TERMINAL_CASES[unstable]


def _axis_label(name, mu):
    if mu == 0:
        return name
    if mu > 0:
        return f"{name} - {format_rational(mu)}*F"
    return f"{name} + {format_rational(-mu)}*F"


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
            raise InputError(f"unknown factor {factor!r}")
        if blowup_center_rank + to_bundle.rank != from_bundle.rank:
            raise InputError("blow-up center rank does not match the rank drop")
        if blowup_center_rank < 1:
            raise InputError("blow-up center rank must be positive")
        if blowup_center_rank >= from_bundle.rank - 1:
            raise InputError(
                "reduction step needs quotient rank at most rank - 2; "
                "corank-one shapes are terminal"
            )
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "from_bundle", from_bundle)
        object.__setattr__(self, "to_bundle", to_bundle)
        object.__setattr__(self, "blowup_center_rank", blowup_center_rank)
        object.__setattr__(self, "exceptional_multiplicity", Fraction(exceptional_multiplicity))

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
            mult = parse_rational(obj["mult"])
            to_bundle = HNCurveBundle.from_json(obj["to"])
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
        coords = tuple(Fraction(x) for x in input_coords)
        if len(coords) != 3:
            raise InputError("certificate input must be a coordinate triple")
        if terminal_case not in TERMINAL_CASES:
            raise InputError(f"unknown terminal case {terminal_case!r}")
        object.__setattr__(self, "input_coords", coords)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "terminal_case", terminal_case)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "N", tuple((gen, Fraction(coeff)) for gen, coeff in N))
        object.__setattr__(self, "verified", verified)

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
            input_coords = parse_coords(obj["input"])
            step_objs = parse_records(obj["steps"])
            terminal = obj["terminal"]
            p_coords = parse_coords(obj["P"])
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
        ring = build_fibre_product_ring(
            chain[0].rank, chain[1].rank, chain[0].degree, chain[1].degree
        )
        P = ring.class_from_coordinates(1, p_coords)
        N = []
        for entry in n_objs:
            try:
                gen_coords = parse_coords(entry["gen"])
                coeff = parse_rational(entry["coeff"])
            except (KeyError, TypeError):
                raise InputError("malformed effective-part record") from None
            N.append((ring.class_from_coordinates(1, gen_coords), coeff))
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
    c_top = c + a * mu1 + b * mu2
    expansion = (
        (a, _axis_label("xi", mu1)),
        (b, _axis_label("zeta", mu2)),
        (c_top, "F"),
    )
    for value, label in expansion:
        if value < 0:
            raise InputError(
                "class is not pseudoeffective: expansion coefficient of "
                f"{label} is {format_rational(value)}"
            )
    ring = build_fibre_product_ring(first.rank, second.rank, first.degree, second.degree)

    def cls_at(coords):
        return ring.class_from_coordinates(1, coords)

    N = []
    if not first.semistable:
        if a:
            N.append((cls_at((1, 0, -mu1)), a))
        a, c = 0, c + a * mu1
    if not second.semistable:
        if b:
            N.append((cls_at((0, 1, -mu2)), b))
        b, c = 0, c + b * mu2
    return cls_at((a, b, c)), tuple(N)


def decompose(first, second, cls, order="first_then_second"):
    """Weak Zariski decomposition of a pseudoeffective class, certified.

    Each factor is reduced along its ladder until terminal-shaped (first
    factor first by default; the terminal data is order-independent because
    no step changes the coordinates), then the terminal split is taken.
    Pseudoeffectivity is tested once, on entry, against the psef cone of
    the input pair; a non-member is rejected with the violated facet
    inequality. Peeling minimal-slope quotients keeps mu_max, so that cone
    is the terminal pair's too. The certificate is verified, nefness of P
    included, before being returned.
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
    fields = (coords, tuple(steps), _terminal_label(chain[0], chain[1]), P, N)
    result = verify(ZariskiCertificate(*fields, verified=False), first, second)
    if not result:
        raise InternalError(
            "decomposition failed its own verification: " + "; ".join(result.reasons)
        )
    return ZariskiCertificate(*fields, verified=True)


class VerifyResult(Record):
    __slots__ = ("ok", "reasons")

    def __init__(self, ok, reasons):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reasons", reasons)

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
    reason. Never raises; returns a VerifyResult that is falsy when any
    reason was collected.
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
        if current.semistable:
            reasons.append(f"{label}: factor is already semistable")
            return VerifyResult(False, tuple(reasons))
        if step.blowup_center_rank != current.quotients[0][0]:
            reasons.append(
                f"{label}: center rank is not the minimal-slope quotient rank"
            )
        reduced = bn.sub_bundle_after_step(current, 1)
        if not _same_bundle(step.to_bundle, reduced):
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
        chain[idx] = reduced
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
        total = [t + coeff * g for t, g in zip(total, gen_coords)]
    if tuple(total) != cert.input_coords:
        reasons.append("P + N does not reproduce the input class")
    return VerifyResult(not reasons, tuple(reasons))

