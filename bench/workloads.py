"""The four benchmark workloads: seeded inputs, the timed operation, checks.

Every workload builds its cases from ``random.Random(seed)`` with its own
generators (never conecalc.selftest's), so the same seed always gives the
same inputs and a change to the library cannot change a workload. Cases are
stratified (shapes, ranks, kinds and op types cycle in a fixed pattern and
only the numbers are random), so every seed runs the same mix.

A workload object has:

* ``cases(seed)``: the list of cases; the timed loop cycles through it;
* ``run(case)``: one timed operation; library entry points are looked up
  on their modules at call time so that traced runs see the wrappers;
* ``canonical(case, out)``: the canonical output text that golden digests
  are taken of;
* ``check(case, out)``: None when the output is right, else a message.
  Checks use facts the benchmark derives itself (closed-form intersection
  numbers, separating inequalities, expected chain lengths), so they hold
  for every seed, not only for the one with golden digests.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import conecalc
from conecalc import catalog, cli, ring, zariski

DEFAULT_SEED = 1
# a second seed, outside the seeds 1-10 the baseline was measured on, kept for
# held-out confirmation of a claimed change
HELD_OUT_SEED = 11

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name, seed):
    """The recorded digests for this workload, if they were taken at ``seed``."""
    try:
        with open(golden_path(name)) as handle:
            record = json.load(handle)
    except FileNotFoundError:
        return None
    return record if record["seed"] == seed else None


def inputs_digest(wl, cases):
    return digest("\n".join(wl.canonical_input(case) for case in cases))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def _nonneg(rng):
    return Fraction(rng.randint(0, 12), rng.randint(1, 4))


# ---------------------------------------------------------------------------
# zariski_batch


def _semistable(rng):
    return conecalc.HNCurveBundle(rng.randint(2, 5), rng.randint(-9, 9))


def _corank_one(rng):
    r = rng.randint(2, 5)
    d1 = rng.randint(-8, 8)
    # the rank-one top piece needs a slope above d1/(r-1)
    s = d1 // (r - 1) + rng.randint(1, 6)
    return conecalc.HNCurveBundle(r, d1 + s, ((r - 1, d1), (1, s)))


def _deep(rng):
    # minimal-slope quotient of rank <= rank-2, so decompose takes steps
    while True:
        parts = [rng.randint(1, 2) for _ in range(rng.randint(2, 3))]
        rank = sum(parts)
        if rank < 3:
            continue
        pieces = sorted(
            ((r, rng.randint(-9, 9)) for r in parts), key=lambda p: Fraction(p[1], p[0])
        )
        slopes = [Fraction(d, r) for r, d in pieces]
        if any(t <= s for s, t in zip(slopes, slopes[1:])) or pieces[0][0] > rank - 2:
            continue
        return conecalc.HNCurveBundle(rank, sum(d for _, d in pieces), tuple(pieces))


def _mu_max(bundle):
    r, d = bundle.quotients[-1]
    return Fraction(d, r)


def _terminal(bundle):
    """Steps to a terminal shape and whether that shape is unstable."""
    q = bundle.quotients
    steps = 0
    while len(q) > 1 and q[0][0] != sum(r for r, _ in q) - 1:
        q = q[1:]
        steps += 1
    return steps, len(q) > 1


class ZariskiBatch:
    name = "zariski_batch"
    size = 360
    shapes = (_semistable, _corank_one, _deep)

    def cases(self, seed):
        rng = random.Random(seed)
        out = []
        for i in range(self.size):
            first = self.shapes[i % 3](rng)
            second = self.shapes[(i // 3) % 3](rng)
            a, b = _nonneg(rng), _nonneg(rng)
            c = _nonneg(rng) - a * _mu_max(first) - b * _mu_max(second)
            out.append((first, second, (a, b, c)))
        return out

    def canonical_input(self, case):
        first, second, cls = case
        return dumps([first.to_json(), second.to_json(), [fmt(x) for x in cls]])

    def run(self, case):
        first, second, cls = case
        cert = zariski.decompose(first, second, cls)
        verdict = zariski.verify(cert, first, second)
        record = cert.to_json()
        back = zariski.ZariskiCertificate.from_json(record, first, second)
        return cert, verdict, record, back

    def canonical(self, case, out):
        cert, verdict, record, back = out
        return dumps(
            {
                "cert": record,
                "verify": [bool(verdict), list(verdict.reasons)],
                "back": back.to_json(),
            }
        )

    def check(self, case, out):
        first, second, cls = case
        cert, verdict, record, back = out
        if not (verdict and cert.verified):
            return f"certificate not verified: {verdict.reasons}"
        if back.to_json() != record:
            return "certificate JSON round trip changed it"
        total = [Fraction(x) for x in record["P"]]
        for part in record["N"]:
            coeff = Fraction(part["coeff"])
            if coeff < 0:
                return "negative N coefficient"
            total = [t + coeff * Fraction(g) for t, g in zip(total, part["gen"])]
        if total != list(cls):
            return "P + N does not reproduce the input class"
        (s1, u1), (s2, u2) = _terminal(first), _terminal(second)
        if len(record["steps"]) != s1 + s2:
            return f"expected {s1 + s2} reduction steps, got {len(record['steps'])}"
        label = ("both_semistable", "one_corank_one", "both_corank_one")[u1 + u2]
        if record["terminal"] != label:
            return f"terminal case {record['terminal']!r}, expected {label!r}"
        return None


# ---------------------------------------------------------------------------
# surface_cones


def _rho1(rng, r):
    L2 = rng.randint(1, 6)
    e = rng.randint(-6, 6)
    return conecalc.SpacePreset.surface_rho1(r, L2, e, Fraction((r - 1) * e * e * L2, 2 * r))


def _ruled(rng, r):
    mu = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    x, y = rng.randint(-4, 4), rng.randint(-4, 4)
    c1sq = 2 * mu * x * x + 2 * x * y
    return conecalc.SpacePreset.ruled_surface(r, mu, (x, y), Fraction(r - 1, 2 * r) * c1sq)


def _codim_dim(rho1, k):
    """Size of the codimension-k monomial basis over a surface."""
    return (2 if rho1 else 3) if k == 1 else (3 if rho1 else 4)


def _answer_json(hit):
    if hit is None:
        return None
    kind, normal, value = hit
    return [kind, [fmt(x) for x in normal], fmt(value)]


class SurfaceCones:
    name = "surface_cones"
    rounds = 24
    probes = 12

    def cases(self, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(self.rounds):
            for make in (_rho1, _ruled):
                for r in range(2, 7):
                    preset = make(rng, r)
                    for k in range(1, r):
                        dim = _codim_dim(make is _rho1, k)
                        # half signed probes, half in the nonnegative orthant
                        probes = [
                            tuple(rng.randint(-6 if i % 2 else 0, 6) for _ in range(dim))
                            for i in range(self.probes)
                        ]
                        out.append((preset, k, tuple(probes)))
        return out

    def canonical_input(self, case):
        preset, k, probes = case
        return dumps([preset.to_json(), k, [list(p) for p in probes]])

    def run(self, case):
        preset, k, probes = case
        psef, nef, labels = catalog.homogeneity_cones(preset, k)
        homogeneous = catalog.k_homogeneous_check(preset, k)
        report = catalog.surface_cone_report(preset, k)
        answers = [
            (cone, cone.violated_constraint(p)) for cone in (report.nef, report.psef) for p in probes
        ]
        return psef, nef, labels, homogeneous, report, answers

    def canonical(self, case, out):
        psef, nef, labels, homogeneous, report, answers = out
        return dumps(
            {
                "psef": psef.to_json(),
                "nef": nef.to_json(),
                "labels": list(labels),
                "homogeneous": homogeneous,
                "report": report.to_json(),
                "answers": [_answer_json(hit) for _, hit in answers],
            }
        )

    def check(self, case, out):
        preset, k, probes = case
        psef, nef, labels, homogeneous, report, answers = out
        if homogeneous is not True or not report.equal:
            return "balanced preset reported as not k-homogeneous"
        if report.basis != tuple(labels):
            return "report basis differs from the first-principles basis"
        if report.psef != psef or report.nef != nef:
            return "closed-form report differs from the first-principles cones"
        for (cone, hit), probe in zip(answers, probes * 2):
            gens = cone.generators
            if hit is None:
                if not conecalc.nonneg_combination_feasible(gens, probe):
                    return f"{probe} reported inside a cone it is not in"
                continue
            kind, normal, value = hit
            if value != _dot(normal, probe):
                return "violated-constraint value is not normal . probe"
            if kind == "facet" and (value >= 0 or any(_dot(normal, g) < 0 for g in gens)):
                return f"facet {normal} does not separate {probe}"
            if kind == "span" and (value == 0 or any(_dot(normal, g) != 0 for g in gens)):
                return f"span equation {normal} does not separate {probe}"
        return None


# ---------------------------------------------------------------------------
# ring_eval
#
# Expressions are products of powers of linear forms, kept as structure so
# the check can expand them itself and integrate with closed-form
# intersection numbers of each preset.


def _pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ppow(a, n, width):
    out = {(0,) * width: Fraction(1)}
    for _ in range(n):
        out = _pmul(out, a)
    return out


class _Space:
    """One prebuilt ring plus the closed-form data the checks integrate with."""

    def __init__(self, kind, params, built):
        self.kind = kind
        self.params = params
        self.ring = built
        self.gens = built.gens
        self.degrees = built.gen_degrees
        self.dim = built.dim

    def top_value(self, mono):
        """Intersection number of a top-degree monomial, from closed forms."""
        p = self.params
        if self.kind == "curve":
            i, j = mono
            return {0: p["d"], 1: 1}.get(j, 0) if i + j == self.dim else 0
        if self.kind == "fibre":
            m, n = p["m"], p["n"]
            table = {(m - 1, n - 1, 1): 1, (m, n - 1, 0): p["d"], (m - 1, n, 0): p["d2"]}
            return table.get(tuple(mono), 0)
        # surfaces: lambda^(r-1) times a base class of degree 2, else zero
        i, base = mono[0], tuple(mono[1:])
        if i != p["r"] - 1:
            return 0
        if self.kind == "rho1":
            return {(0, 1): 1, (2, 0): p["L2"]}.get(base, 0)
        return {(0, 0, 1): 1, (2, 0, 0): 2 * p["mu"], (1, 1, 0): 1}.get(base, 0)

    def integrate(self, poly):
        return sum(
            (c * self.top_value(m) for m, c in poly.items()), Fraction(0)
        )

    def pair(self, poly, mono):
        """Intersection number of poly times a monomial of complementary degree."""
        return sum(
            (c * self.top_value(tuple(a + b for a, b in zip(m, mono))) for m, c in poly.items()),
            Fraction(0),
        )


def _spaces(rng):
    """Four rings of each kind, one per dimension step; only the numerical
    data is random, so every seed has the same ring sizes."""
    out = []
    for r, (m, n) in zip(range(2, 6), ((2, 2), (2, 3), (3, 3), (3, 4))):
        d = rng.randint(-6, 6)
        out.append(_Space("curve", {"d": d}, ring.build_curve_bundle_ring(r, d)))
        d, d2 = rng.randint(-5, 5), rng.randint(-5, 5)
        params = {"m": m, "n": n, "d": d, "d2": d2}
        out.append(_Space("fibre", params, ring.build_fibre_product_ring(m, n, d, d2)))
        preset = _rho1(rng, r)
        params = {"r": r, "L2": preset.L2}
        out.append(_Space("rho1", params, ring.build_lambda_ring_surface(preset)))
        preset = _ruled(rng, r)
        params = {"r": r, "mu": preset.mu}
        out.append(_Space("ruled", params, ring.build_lambda_ring_surface(preset)))
    return out


_COEFFS = (1, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2))


def _linear(rng, space):
    """A linear form with a nonzero coefficient on every degree-one generator."""
    width = len(space.gens)
    return {
        tuple(1 if j == i else 0 for j in range(width)): Fraction(rng.choice(_COEFFS))
        for i, d in enumerate(space.degrees)
        if d == 1
    }


def _render_linear(space, form):
    text = ""
    for mono, c in sorted(form.items(), reverse=True):
        name = space.gens[mono.index(1)]
        sign = "-" if c < 0 else "+"
        body = name if abs(c) == 1 else f"{fmt(abs(c))}*{name}"
        text += (f"-{body}" if sign == "-" else body) if not text else f" {sign} {body}"
    return f"({text})"


def _factors(rng, space, degree):
    """Factors (form, power) whose product has the given degree."""
    factors = []
    width = len(space.gens)
    if degree >= 2 and 2 in space.degrees and rng.random() < 0.5:
        F = tuple(1 if d == 2 else 0 for d in space.degrees)
        factors.append(({F: Fraction(1)}, 1))
        degree -= 2
    while degree > 0:
        power = rng.randint(1, degree)
        factors.append((_linear(rng, space), power))
        degree -= power
    if not factors:
        factors.append(({(0,) * width: Fraction(rng.choice(_COEFFS[3:]))}, 1))
    return factors


def _render(space, factors):
    parts = []
    for form, power in factors:
        mono, c = next(iter(form.items()))
        if len(form) == 1 and not any(mono):
            body = f"({fmt(c)})"
        elif len(form) == 1 and c == 1:
            body = space.gens[[i for i, e in enumerate(mono) if e][0]]
        else:
            body = _render_linear(space, form)
        parts.append(body if power == 1 else f"{body}^{power}")
    return " * ".join(parts)


def _monomials(degrees, total):
    """Exponent tuples of the given weighted degree."""
    if not degrees:
        return [()] if total == 0 else []
    head, rest = degrees[0], degrees[1:]
    return [
        (e,) + tail
        for e in range(total // head + 1)
        for tail in _monomials(rest, total - e * head)
    ]


def _expand(space, factors):
    width = len(space.gens)
    poly = {(0,) * width: Fraction(1)}
    for form, power in factors:
        poly = _pmul(poly, _ppow(form, power, width))
    return poly


class RingEval:
    name = "ring_eval"
    blocks = 6
    # per ring and block: five normal forms, three top-degree evaluations,
    # two powers above the dimension (zero, but costly today); over the
    # blocks the normal forms cycle through degrees 0..dim and the excess
    # exponents through 1..6
    pattern = ("nf",) * 5 + ("eval",) * 3 + ("zero",) * 2

    def cases(self, seed):
        rng = random.Random(seed)
        spaces = _spaces(rng)
        out = []
        for block in range(self.blocks):
            for space in spaces:
                for slot, op in enumerate(self.pattern):
                    if op == "zero":
                        excess = 1 + (2 * block + slot - self.pattern.index("zero")) % 6
                        factors = [(_linear(rng, space), space.dim + excess)]
                    else:
                        nf_degree = (5 * block + slot) % (space.dim + 1)
                        factors = _factors(rng, space, space.dim if op == "eval" else nf_degree)
                    out.append((space, op, _render(space, factors), factors))
        return out

    def canonical_input(self, case):
        space, op, text, _ = case
        params = {k: fmt(v) for k, v in space.params.items()}
        return dumps([space.kind, space.dim, params, op, text])

    def run(self, case):
        space, op, text, _ = case
        if op == "eval":
            return space.ring.degree_eval(text)
        return space.ring.normal_form(text)

    def canonical(self, case, out):
        if case[1] == "eval":
            return fmt(out)
        return dumps(out.to_json())

    def check(self, case, out):
        space, op, text, factors = case
        if op == "zero":
            return None if out.is_zero else f"{text} is above the dimension but not zero"
        poly = _expand(space, factors)
        if op == "eval":
            want = space.integrate(poly)
            return None if out == want else f"{text} evaluates to {out}, expected {want}"
        degree = sum(d * e for d, e in zip(space.degrees, next(iter(poly))))
        if out.degree != degree:
            return f"{text} has degree {out.degree}, expected {degree}"
        # the pairing is perfect, so agreeing with the expansion against every
        # complementary monomial pins the class down
        coeffs = dict(out.coeffs)
        for mono in _monomials(space.degrees, space.dim - degree):
            got, want = space.pair(coeffs, mono), space.pair(poly, mono)
            if got != want:
                return f"{text} pairs to {got} with {mono}, expected {want}"
        return None


# ---------------------------------------------------------------------------
# cli_session

WORKSPACES = os.path.join(BENCH_DIR, "workspaces")

# workspace file -> (expression generators, surface rank or None, class size at k=1)
_VALID = {
    "curve.json": (("xi", "f"), None, 2),
    "fibre.json": (("xi", "zeta", "F"), None, 3),
    "rho1.json": (("lambda", "piL"), 4, 2),
    "ruled.json": (("lambda", "piEta", "piF"), 3, 3),
}
_INVALID = ("bad_json.json", "bad_ladder.json", "bad_kind.json", "bad_rational.json")
_MISC_INVALID = (("frobnicate",), ("cone", "banana"), ("member", "1,x,3"))
# inputs the README contract says must exit 2; each currently breaks it
KNOWN_DEFECTS = (
    ("defect_c1_int.json", ("cone", "nef")),
    ("defect_rank_float.json", ("cone", "nef")),
    ("defect_semistable_string.json", ("cone", "nef")),
)
GROUPS = ("ring", "cone", "member", "zariski", "homog", "invalid")


def _ws(name):
    return os.path.relpath(os.path.join(WORKSPACES, name), ROOT)


def _coords(rng, size, signed=True):
    low = -4 if signed else 0
    return ",".join(fmt(Fraction(rng.randint(low, 6), rng.randint(1, 2))) for _ in range(size))


def _cli_command(rng, ws, cmd):
    """Arguments and allowed exit codes for one command on a valid workspace."""
    gens, rank, size = _VALID[ws]
    k_args = ()
    if rank is not None:
        k = rng.randint(1, rank - 1)
        k_args = ("--k", str(k))
        if k > 1:
            size = 4 if ws == "ruled.json" else 3
    if cmd == "ring":
        terms = " + ".join(f"{rng.randint(1, 3)}*{g}" for g in gens)
        return ("ring", "eval", f"({terms})^{rng.randint(1, 3)}"), {0}
    if cmd == "cone":
        return ("cone", rng.choice(("nef", "psef"))) + k_args, {0}
    if cmd == "member":
        extra = ("--cone", "psef") if rng.random() < 0.5 else ()
        return ("member", _coords(rng, size)) + extra + k_args, {0, 1}
    if cmd == "zariski":
        if ws != "fibre.json":
            return ("zariski", _coords(rng, 3)), {2}
        # psef on the committed ladders: c + 4a + 2b >= 0 (mu_max 4 and 2)
        a, b = _nonneg(rng), _nonneg(rng)
        c = _nonneg(rng) - 4 * a - 2 * b
        return ("zariski", ",".join(fmt(x) for x in (a, b, c))), {0}
    if rank is None:
        return ("homog", "--k", "1"), {2}
    return ("homog",) + k_args, {0, 1}


class CliSession:
    name = "cli_session"
    instances = 3

    def cases(self, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(self.instances):
            for ws in _VALID:
                for cmd in GROUPS[:-1]:
                    for as_json in (False, True):
                        args, codes = _cli_command(rng, ws, cmd)
                        group = "invalid" if codes == {2} else cmd
                        out.append(self._case(ws, args, as_json, codes, group))
            for ws in _INVALID:
                for as_json in (False, True):
                    out.append(self._case(ws, ("cone", "psef"), as_json, {2}, "invalid"))
            for i, args in enumerate(_MISC_INVALID):
                out.append(self._case("fibre.json", args, bool(i % 2), {2}, "invalid"))
        rng.shuffle(out)
        return out

    @staticmethod
    def _case(ws, args, as_json, codes, group):
        argv = ("-w", _ws(ws)) + tuple(args) + (("--json",) if as_json else ())
        return {"argv": argv, "codes": frozenset(codes), "group": group}

    def canonical_input(self, case):
        return dumps([list(case["argv"]), sorted(case["codes"])])

    def run(self, case):
        proc = subprocess.run(
            [sys.executable, "-m", "conecalc", *case["argv"]],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, case):
        """The same call through conecalc.cli.main, as the traced run makes it."""
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            try:
                code, err = cli.main(list(case["argv"])), ""
            except SystemExit as exc:
                code, err = exc.code, ""
            except Exception as exc:  # python -m would print a traceback, exit 1
                code, err = 1, f"Traceback (in process): {exc!r}"
        return code, stream.getvalue(), err

    def canonical(self, case, out):
        code, stdout, _ = out
        return dumps([code, stdout])

    def prepare_checks(self, cases):
        """Take the in-process answers before timing, so that no library
        work runs between the timed calls."""
        for case in cases:
            case["expected"] = self.run_in_process(case)[:2]

    def check(self, case, out):
        code, stdout, stderr = out
        if code not in case["codes"]:
            return f"{' '.join(case['argv'])}: exit {code}, expected {sorted(case['codes'])}"
        if stderr:
            return f"{' '.join(case['argv'])}: wrote to stderr: {stderr.strip()[:200]}"
        expected = case.get("expected") or self.run_in_process(case)[:2]
        if (code, stdout) != expected:
            return f"{' '.join(case['argv'])}: output differs from conecalc.cli.main"
        return None


def defect_probes():
    """Run each known-defect input as a fresh process; returns
    (exit code, printed a traceback, meets the contract) for each."""
    session = CliSession()
    results = []
    for ws, args in KNOWN_DEFECTS:
        code, _, stderr = session.run(session._case(ws, args, False, {2}, "invalid"))
        traceback = "Traceback" in stderr
        results.append((code, traceback, code == 2 and not traceback))
    return results


WORKLOADS = {w.name: w for w in (ZariskiBatch, SurfaceCones, RingEval, CliSession)}
