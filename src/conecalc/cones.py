"""Exact rational polyhedral cones in low dimension.

Cones are stored as primitive integer generators in descending lex order.
The facet description (outer normals plus span equations) is computed
eagerly at construction, so membership, equality and duality are
read-only table work afterwards. A curve-base cone is handed its facets
in closed form, in dual-basis order; any other simplicial cone (exactly
dim linearly independent generators) takes them from the dual basis, the
columns of the inverse generator matrix; every other cone gets them from a
double description pass over the dual side. Duality scales the pairing to
integers once. A dual whose pairing rows are dim independent rows takes its
rays from their dual basis and its facets from the rows themselves; any
other runs double description on the primitive integer rows.

The double description maintains (lineality basis, extreme rays, tight
sets). The lineality basis always spans the intersection of the processed
constraint kernels, so the ray part lives in a pointed quotient and the
combinatorial adjacency test is valid there.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError
from .rationals import as_fraction, format_linear, format_rational
from .record import Record

MAX_DIM = 6


def primitive(vector):
    """Clear denominators and divide by the gcd; direction is preserved."""
    if all(type(x) is int for x in vector):
        if not any(vector):
            raise InputError("zero vector is not a ray")
        g = gcd(*vector)
        return tuple(x // g for x in vector)
    fracs = [as_fraction(x) for x in vector]
    if all(x == 0 for x in fracs):
        raise InputError("zero vector is not a ray")
    scale = lcm(*(x.denominator for x in fracs)) if fracs else 1
    ints = [x.numerator * (scale // x.denominator) for x in fracs]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _dot(u, v):
    return sum(map(mul, u, v))


def _combine(scale_p, p, scale_q, q):
    return tuple(scale_p * a + scale_q * b for a, b in zip(p, q))


def canonical(generators):
    """Primitive, deduplicated, descending lex: the generators a cone keeps."""
    return tuple(sorted(set(map(primitive, generators)), reverse=True))


def _dd_rays(rows, dim):
    """Extreme rays and lineality basis of {y : row . y >= 0 for all rows}."""
    lineality = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def tight_set(vec):
        return frozenset(i for i, row in enumerate(processed) if _dot(row, vec) == 0)

    for row in rows:
        if all(x == 0 for x in row):
            continue
        values = [_dot(row, l) for l in lineality]
        pivot_at = next((i for i, v in enumerate(values) if v != 0), None)
        if pivot_at is not None:
            pivot = lineality[pivot_at]
            pv = values[pivot_at]
            if pv < 0:
                pivot = tuple(-x for x in pivot)
                pv = -pv
            lineality = [
                primitive(_combine(pv, l, -values[i], pivot))
                for i, l in enumerate(lineality)
                if i != pivot_at
            ]
            rays = [primitive(_combine(pv, r, -_dot(row, r), pivot)) for r in rays]
            rays.append(pivot)
        else:
            plus = [r for r in rays if _dot(row, r) > 0]
            zero = [r for r in rays if _dot(row, r) == 0]
            minus = [r for r in rays if _dot(row, r) < 0]
            if minus:
                tights = {r: tight_set(r) for r in rays}
                fresh = []
                for p in plus:
                    for q in minus:
                        common = tights[p] & tights[q]
                        others = (
                            s for s in rays if s is not p and s is not q
                        )
                        if any(common <= tights[s] for s in others):
                            continue
                        fresh.append(primitive(_combine(_dot(row, p), q, -_dot(row, q), p)))
                rays = plus + zero + fresh
        processed.append(row)
        # dedupe; projections can collide after normalization
        rays = list(dict.fromkeys(rays))
    return rays, lineality


def _dual_basis(gens, dim):
    """Facets of the cone over dim integer generators, or None when they
    are dependent.

    Facet i is column i of the inverse generator matrix, signed to be
    positive on generator i and made primitive. This is the tuple _dd_rays
    returns for the same rows, order included: DD appends ray i tight on
    every row but row i. The adjugate comes from fraction-free (Bareiss)
    Gauss-Jordan elimination, so every division is exact.
    """
    n = len(gens)
    if n != dim:
        return None
    rows = [list(g) + [int(i == j) for j in range(n)] for i, g in enumerate(gens)]
    prev = 1
    for k in range(n):
        pivot_at = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_at is None:
            return None
        rows[k], rows[pivot_at] = rows[pivot_at], rows[k]
        pivot_row = rows[k]
        pv = pivot_row[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, pivot_row)]
        prev = pv
    # the left block is now prev * identity and the right one prev * inverse
    sign = 1 if prev > 0 else -1
    return tuple(primitive([sign * rows[j][n + i] for j in range(n)]) for i in range(n))


class Pairing(Record):
    """Exact bilinear pairing; entry [i][j] pairs basis i of the source
    space with basis j of the target space."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        matrix = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise InputError("pairing matrix must be square and nonempty")
        super().__init__(matrix)

    @property
    def dim(self):
        return len(self.matrix)

    @classmethod
    def standard(cls, dim):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim)))


class RationalCone(Record):
    """Finitely generated convex cone over the rationals.

    Generators are canonicalized (primitive integer vectors, deduplicated,
    descending lex), so equal generator sets compare equal and serialization
    is deterministic. The empty generator set is the zero cone. A cone is
    frozen like every record, so a memoized one can be shared.
    """

    __slots__ = ("dim", "generators", "_facets", "_span_normals")

    def __init__(self, dim, generators, _facets=None):
        # _facets: what _dual_basis returns, passed by closed forms and simplicial duals
        dim = int(dim)
        if not 1 <= dim <= MAX_DIM:
            raise InputError(f"cone dimension {dim} outside 1..{MAX_DIM}")
        generators = tuple(generators)
        if any(len(g) != dim for g in generators):
            raise InputError("generator length does not match the cone dimension")
        gens = canonical(generators)
        # facet inequalities plus span equations: together they cut out the cone
        facets, span_normals = _facets or _dual_basis(gens, dim), ()
        if facets is None:
            facets, span_normals = _dd_rays(list(gens), dim)
        super().__init__(dim, gens, tuple(facets), tuple(span_normals))

    def __reduce__(self):
        # the facets are rebuilt from the generators
        return RationalCone, (self.dim, self.generators)

    def __repr__(self):
        body = ", ".join(str(g) for g in self.generators)
        return f"RationalCone(dim={self.dim}, generators=[{body}])"

    def __eq__(self, other):
        if not isinstance(other, RationalCone):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.generators == other.generators:
            return True
        return all(other.contains(g) for g in self.generators) and all(
            self.contains(g) for g in other.generators
        )

    def _check_dim(self, vector):
        if len(vector) != self.dim:
            raise InputError(
                f"vector length {len(vector)} does not match cone dimension {self.dim}"
            )
        return tuple(as_fraction(x) for x in vector)

    def violated_constraint(self, vector):
        """First violated facet or span equation, or None when inside.

        Returns (kind, normal, value) with kind 'facet' (needs >= 0) or
        'span' (needs = 0); the facet data makes rejections actionable.
        """
        if len(vector) == self.dim and all(type(x) is int for x in vector):
            scale, w = 1, vector
        else:
            v = self._check_dim(vector)
            # a positive scale keeps every sign, so the tests run on integers
            scale = lcm(*(x.denominator for x in v))
            w = [x.numerator * (scale // x.denominator) for x in v]
        for normal in self._facets:
            value = _dot(normal, w)
            if value < 0:
                return ("facet", normal, Fraction(value, scale))
        for normal in self._span_normals:
            value = _dot(normal, w)
            if value != 0:
                return ("span", normal, Fraction(value, scale))
        return None

    def contains(self, vector):
        return self.violated_constraint(vector) is None

    def dual(self, pairing=None):
        """Cone of vectors pairing nonnegatively with every generator.

        The dual of the zero cone is the whole space, returned with the
        2*dim signed basis vectors as generators.
        """
        if pairing is None:
            pairing = Pairing.standard(self.dim)
        if pairing.dim != self.dim:
            raise InputError("pairing dimension does not match the cone")
        # a positive scale changes no row once made primitive, so rows stay integer
        scale = lcm(*(x.denominator for row in pairing.matrix for x in row))
        matrix = [[x.numerator * (scale // x.denominator) for x in row] for row in pairing.matrix]
        columns = list(zip(*matrix))
        rows = [tuple(_dot(g, column) for column in columns) for g in self.generators]
        rows = [primitive(row) for row in rows if any(row)]
        rays = _dual_basis(rows, self.dim)
        if rays is not None:
            # ray i pairs to zero with every row but row i, so row i is its facet
            rays, rows = zip(*sorted(zip(rays, rows), reverse=True))
            return RationalCone(self.dim, rays, _facets=rows)
        rays, lineality = _dd_rays(rows, self.dim)
        gens = list(rays)
        for l in lineality:
            gens.append(l)
            gens.append(tuple(-x for x in l))
        return RationalCone(self.dim, gens)

    def extremal_rays(self):
        """Minimal generating subset, canonical (descending lex) order.

        For a pointed cone this is exactly the set of extreme rays; for a
        cone containing lines it is a minimal subset of the stored
        generators.
        """
        kept = list(self.generators)
        for g in list(self.generators):
            if len(kept) == 1:
                break
            others = [h for h in kept if h != g]
            if RationalCone(self.dim, others).contains(g):
                kept = others
        return tuple(sorted(kept, reverse=True))

    def to_json(self):
        return {
            "dim": self.dim,
            "generators": [[format_rational(x) for x in g] for g in self.generators],
        }


def inequality_text(kind, normal, labels):
    """A violated constraint from ``violated_constraint`` as text, one label
    per coordinate: 'a - 2*c >= 0' for a facet, '... = 0' for a span
    equation."""
    lhs = format_linear(zip(normal, labels))
    return f"{lhs} = 0" if kind == "span" else f"{lhs} >= 0"
