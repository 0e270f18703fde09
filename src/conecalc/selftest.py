"""Built-in acceptance checks, runnable via `conecalc selftest`.

Nine independent checks, each over its own seeded generator so output is
deterministic. The cone-membership oracle here is a phase-1 simplex over
exact rationals, written without touching the double-description engine:
the two routes share no code, which is the point.
"""

import random
from fractions import Fraction
from time import perf_counter

from . import bundles as bn
from .bundles import HNCurveBundle
from .catalog import (
    homogeneity_cones,
    iterated_fibre_product_cones,
    k_homogeneous_check,
    miyaoka_cones,
    psef_fibre_product,
    surface_cone_report,
)
from .cones import RationalCone
from .errors import InputError, InternalError
from .presets import NumClass, SpacePreset
from .ring import build_fibre_product_ring, verify_lambda_vanishing
from .zariski import decompose, verify


def nonneg_combination_feasible(vectors, target):
    """Exact feasibility of target = sum x_i * vectors[i] with all x_i >= 0.

    Phase-1 simplex with Bland's rule (lowest-index entering column, ratio
    ties broken by lowest basis index), so it terminates without cycling.
    """
    vectors = [tuple(Fraction(x) for x in v) for v in vectors]
    target = [Fraction(x) for x in target]
    m = len(target)
    n = len(vectors)
    rows = [[vectors[j][i] for j in range(n)] for i in range(m)]
    for i in range(m):
        if target[i] < 0:
            rows[i] = [-x for x in rows[i]]
            target[i] = -target[i]
    # one artificial variable per row; phase 1 minimizes their sum
    tab = [
        rows[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [target[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    cost = [Fraction(0)] * n + [Fraction(1)] * m
    while True:
        reduced = [
            cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(m))
            for j in range(n + m)
        ]
        enter = next((j for j, r in enumerate(reduced) if r < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                key = (tab[i][-1] / tab[i][enter], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            raise InternalError("phase-1 simplex became unbounded")
        row = best[1]
        pivot = tab[row][enter]
        tab[row] = [x / pivot for x in tab[row]]
        for i in range(m):
            if i != row and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
        basis[row] = enter
    return sum(cost[basis[i]] * tab[i][-1] for i in range(m)) == 0


# ---------------------------------------------------------------------------
# random inputs


def _random_ladder(rng, max_rank=5, max_depth=3, spread=10):
    while True:
        depth = rng.randint(1, max_depth)
        parts = [rng.randint(1, 3) for _ in range(depth)]
        if not 2 <= sum(parts) <= max_rank:
            continue
        pieces = [(r, rng.randint(-spread, spread)) for r in parts]
        pieces.sort(key=lambda rd: Fraction(rd[1], rd[0]))
        slopes = [Fraction(d, r) for r, d in pieces]
        if any(t <= s for s, t in zip(slopes, slopes[1:])):
            continue
        return HNCurveBundle(
            sum(r for r, _ in pieces), sum(d for _, d in pieces), tuple(pieces)
        )


def _random_semistable(rng):
    return HNCurveBundle(rng.randint(2, 5), rng.randint(-10, 10))


def _random_corank_one(rng):
    m = rng.randint(2, 5)
    d1 = rng.randint(-8, 8)
    low = Fraction(d1, m - 1)
    s = (low.numerator // low.denominator) + rng.randint(1, 6)
    return HNCurveBundle(m, d1 + s, ((m - 1, d1), (1, s)))


def _random_nonneg(rng):
    return Fraction(rng.randint(0, 12), rng.randint(1, 4))


def _random_psef_class(rng, first, second):
    a = _random_nonneg(rng)
    b = _random_nonneg(rng)
    c = -(a * bn.mu_max(first) + b * bn.mu_max(second)) + _random_nonneg(rng)
    return (a, b, c)


# ---------------------------------------------------------------------------
# the checks


def check_intersection_products(rng):
    """Every printed product on the fibre product holds for small ranks."""
    one = Fraction(1)
    bad = []
    total = 0
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            for d in range(-3, 4):
                for d2 in range(-3, 4):
                    ring = build_fibre_product_ring(m, n, d, d2)
                    identities = (
                        ({(m, 0, 1): one}, {}, m + 1),
                        ({(0, n, 1): one}, {}, n + 1),
                        ({(m + 1, 0, 0): one}, {}, m + 1),
                        ({(0, n + 1, 0): one}, {}, n + 1),
                        ({(0, 0, 2): one}, {}, 2),
                        ({(0, n, 0): one}, {(0, n - 1, 1): Fraction(d2)} if d2 else {}, n),
                        ({(m, 0, 0): one}, {(m - 1, 0, 1): Fraction(d)} if d else {}, m),
                    )
                    for lhs, rhs, deg in identities:
                        total += 1
                        left = ring.normal_form(NumClass(ring.gens, deg, lhs))
                        right = ring.normal_form(NumClass(ring.gens, deg, rhs))
                        if left != right:
                            bad.append(f"(m,n,d,d')=({m},{n},{d},{d2})")
                    total += 2
                    top = ring.dim
                    if ring.degree_eval(NumClass(ring.gens, top, {(m - 1, n, 0): one})) != d2:
                        bad.append(f"zeta^n*xi^(m-1) at ({m},{n},{d},{d2})")
                    if ring.degree_eval(NumClass(ring.gens, top, {(m, n - 1, 0): one})) != d:
                        bad.append(f"zeta^(n-1)*xi^m at ({m},{n},{d},{d2})")
    if bad:
        return False, f"{len(bad)} of {total} products failed; first: {bad[0]}"
    return True, f"{total} products over 441 parameter sets"


def check_lambda_vanishing(rng):
    """lambda^rank vanishes exactly on the balanced-c2 locus."""
    bad = []
    for r in range(2, 7):
        for _ in range(50):
            e = rng.randint(-9, 9)
            L2 = rng.randint(1, 9)
            c1sq = Fraction(e * e * L2)
            c2 = Fraction((r - 1), 2 * r) * c1sq
            if not verify_lambda_vanishing(r, c1sq, c2):
                bad.append(f"rank {r}, e={e}, L2={L2}")
    for _ in range(50):
        r = rng.randint(2, 6)
        e = rng.randint(-9, 9)
        L2 = rng.randint(1, 9)
        c1sq = Fraction(e * e * L2)
        c2 = Fraction((r - 1), 2 * r) * c1sq
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        if rng.random() < 0.5:
            delta = -delta
        if verify_lambda_vanishing(r, c1sq, c2 + delta):
            bad.append(f"perturbed rank {r}, e={e}, L2={L2}, delta={delta}")
    if bad:
        return False, f"{len(bad)} of 300 cases failed; first: {bad[0]}"
    return True, "250 vanishing and 50 perturbed cases"


def check_semistability_dichotomy(rng):
    """Divisor cones of a projectivized bundle agree iff it is semistable."""
    bad = []
    for _ in range(200):
        bundle = _random_ladder(rng)
        if miyaoka_cones(bundle).equal != bundle.semistable:
            bad.append(str(bundle.quotients))
    if bad:
        return False, f"{len(bad)} of 200 ladders failed; first: {bad[0]}"
    return True, "200 random ladders"


def check_corank_one_cones(rng):
    """Literal corank-one generator lists match the closed form exactly."""
    bad = []
    for i in range(100):
        first = _random_corank_one(rng)
        if i % 2:
            second = _random_corank_one(rng)
            d1p = second.quotients[0][1]
            second_ray = (0, 1, Fraction(d1p - second.degree))
        else:
            second = _random_semistable(rng)
            second_ray = (0, 1, -bn.slope(second))
        d1 = first.quotients[0][1]
        literal = RationalCone(
            3,
            [(1, 0, Fraction(d1 - first.degree)), second_ray, (0, 0, 1)],
        )
        if literal != psef_fibre_product(first, second):
            bad.append(f"{first.quotients} x {second.quotients}")
    if bad:
        return False, f"{len(bad)} of 100 configurations failed; first: {bad[0]}"
    return True, "100 corank-one configurations"


def check_decomposition_roundtrip(rng):
    """decompose -> verify closes, and the terminal data ignores the
    factor-reduction order."""
    bad = []
    for _ in range(1000):
        first = _random_ladder(rng)
        second = _random_ladder(rng)
        cls = _random_psef_class(rng, first, second)
        cert = decompose(first, second, cls)
        if not (cert.verified and verify(cert, first, second)):
            bad.append(f"verify failed for {cls} on {first.quotients}")
            continue
        other = decompose(first, second, cls, order="second_then_first")
        mine = cert.to_json()
        theirs = other.to_json()
        if any(mine[k] != theirs[k] for k in ("terminal", "P", "N")):
            bad.append(f"order-dependent terminal data for {cls}")
    if bad:
        return False, f"{len(bad)} of 1000 classes failed; first: {bad[0]}"
    return True, "1000 random pseudoeffective classes, both reduction orders"


def check_semistable_purity(rng):
    """Semistable pairs decompose trivially: no steps, empty N."""
    bad = []
    for _ in range(100):
        first = _random_semistable(rng)
        second = _random_semistable(rng)
        cls = _random_psef_class(rng, first, second)
        cert = decompose(first, second, cls)
        trivial = (
            not cert.steps
            and not cert.N
            and cert.terminal_case == "both_semistable"
            and tuple(cert.P.coordinates(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
            == tuple(cert.input_coords)
        )
        if not trivial:
            bad.append(f"{cls} on semistable pair")
    if bad:
        return False, f"{len(bad)} of 100 classes failed; first: {bad[0]}"
    return True, "100 nef classes on semistable pairs"


def _random_rho1_preset(rng, r):
    L2 = rng.randint(1, 6)
    e = rng.randint(-6, 6)
    c2 = Fraction((r - 1) * e * e * L2, 2 * r)
    return SpacePreset.surface_rho1(r, L2, e, c2)


def _random_ruled_preset(rng, r):
    mu = Fraction(rng.randint(-4, 4), rng.choice((1, 2)))
    x = rng.randint(-4, 4)
    y = rng.randint(-4, 4)
    c1sq = 2 * mu * x * x + 2 * x * y
    c2 = Fraction(r - 1, 2 * r) * c1sq
    return SpacePreset.ruled_surface(r, mu, (x, y), c2)


def check_k_homogeneity(rng):
    """Every codimension's cones coincide on balanced surface presets, and
    the closed-form reports match the first-principles derivation."""
    bad = []
    presets = [_random_rho1_preset(rng, 2 + (i % 5)) for i in range(20)]
    presets += [_random_ruled_preset(rng, 2 + (i % 5)) for i in range(20)]
    for preset in presets:
        for k in range(1, preset.rank):
            if not k_homogeneous_check(preset, k):
                bad.append(f"{preset.kind} rank {preset.rank} k={k}")
                continue
            report = surface_cone_report(preset, k)
            psef_d, nef_d, _ = homogeneity_cones(preset, k)
            if not (report.psef == psef_d and report.nef == nef_d):
                bad.append(f"report drift: {preset.kind} rank {preset.rank} k={k}")
    total = sum(p.rank - 1 for p in presets)
    if bad:
        return False, f"{len(bad)} of {total} cases failed; first: {bad[0]}"
    return True, f"{total} (preset, k) pairs over 40 presets"


def check_semistable_towers(rng):
    """Stage cones of semistable towers are equal pairs of the right size;
    an unstable member is rejected."""
    bad = []
    for trial in range(30):
        tower = [_random_semistable(rng) for _ in range(1 + trial % 3)]
        reports = iterated_fibre_product_cones(tower)
        if len(reports) != len(tower):
            bad.append(f"report count for tower of {len(tower)}")
            continue
        for i, report in enumerate(reports):
            if not report.equal or len(report.nef.generators) != i + 2:
                bad.append(f"stage {i} of tower of {len(tower)}")
        spoiler = _random_ladder(rng)
        while spoiler.semistable:
            spoiler = _random_ladder(rng)
        spoiled = list(tower)
        spoiled[rng.randrange(len(spoiled))] = spoiler
        try:
            iterated_fibre_product_cones(spoiled)
            bad.append("unstable tower accepted")
        except InputError:
            pass
    if bad:
        return False, f"{len(bad)} tower cases failed; first: {bad[0]}"
    return True, "30 towers plus unstable-member rejections"


def check_cone_oracle(rng):
    """RationalCone membership (dual-basis or double-description facets)
    equals simplex feasibility."""
    bad = []
    for _ in range(500):
        dim = rng.randint(1, 4)
        gens = []
        for _ in range(rng.randint(1, dim + 2)):
            vec = tuple(rng.randint(-5, 5) for _ in range(dim))
            if any(vec):
                gens.append(vec)
        if not gens:
            gens = [tuple([1] + [0] * (dim - 1))]
        cone = RationalCone(dim, gens)
        inside = [Fraction(0)] * dim
        for g in gens:
            coeff = Fraction(rng.randint(0, 3), rng.randint(1, 3))
            inside = [s + coeff * x for s, x in zip(inside, g)]
        probes = [tuple(inside)] + [
            tuple(rng.randint(-6, 6) for _ in range(dim)) for _ in range(3)
        ]
        for probe in probes:
            if cone.contains(probe) != nonneg_combination_feasible(gens, probe):
                bad.append(f"dim {dim}, gens {gens}, probe {probe}")
    if bad:
        return False, f"{len(bad)} of 2000 probes failed; first: {bad[0]}"
    return True, "500 random cones, 4 probes each"


CHECKS = (
    ("intersection products", check_intersection_products, 2101),
    ("lambda-class vanishing", check_lambda_vanishing, 2102),
    ("semistability dichotomy", check_semistability_dichotomy, 2103),
    ("corank-one cone equality", check_corank_one_cones, 2104),
    ("decomposition round trip", check_decomposition_roundtrip, 2105),
    ("semistable purity", check_semistable_purity, 2106),
    ("k-homogeneity", check_k_homogeneity, 2107),
    ("semistable towers", check_semistable_towers, 2108),
    ("cone membership oracle", check_cone_oracle, 2109),
)


def run_check(index):
    """Run one numbered check with its fixed seed; returns (name, ok, detail)."""
    name, fn, seed = CHECKS[index]
    ok, detail = fn(random.Random(seed))
    return name, ok, detail


def run_selftest():
    """Run every check in order; returns one record per check: its ``name``,
    ``ok``, ``detail`` and elapsed ``seconds``."""
    results = []
    for index in range(len(CHECKS)):
        start = perf_counter()
        name, ok, detail = run_check(index)
        seconds = perf_counter() - start
        results.append({"name": name, "ok": ok, "detail": detail, "seconds": seconds})
    return results
