"""Lattice polytopes, polar duality, and hypersurface moduli counts.

Polytopes are stored by their vertex lists (extreme points only, sorted).
A full-dimensional hull in Z^d is found from its vertices alone.  Each
point taken maximizes a linear functional, ties broken lexicographically,
so it is a vertex: the lexicographic extremes and the extremes along
normals of their affine hull until the set spans Z^d, then, round by
round, the point farthest outside each facet of the set so far.  Facets
come from a brute-force search over d-subsets of that set: the
hyperplane through a subset has as primitive normal its integer cofactor
vector (the signed (d-1)-minors of the difference vectors over their
gcd), and it is a facet when no two points lie strictly on opposite
sides.  The cost grows with the number of vertices, not of input points.
Lower-dimensional polytopes are reduced to full dimension inside their
affine hull.  The polar dual uses the inequality <x, y> >= -1, so a facet
<n, x> <= c with c > 0 on the primal side becomes the dual vertex -n/c.

The module also carries the two dual simplices of the quintic story and
the small arithmetic around hypersurface moduli: lattice point counts,
moduli dimension, and the Gorenstein witness vectors mu, nu of an
exponent matrix with their pairing.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._frozen import frozen
from .linalg import (
    dot,
    integer_det,
    integer_kernel_basis,
    integer_matrix,
    rational_rank,
    solve_rational,
)

LatticePoint = tuple


class OriginNotInteriorError(ValueError):
    """The origin is not strictly inside the polytope."""


class NonReflexiveError(ValueError):
    """The polar dual is not a lattice polytope."""


class InfeasibleWitnessError(ValueError):
    """A Gorenstein witness system has no rational solution."""


def _lattice_point(p) -> tuple:
    return integer_matrix([p])[0]


@frozen
class Facet:
    """The half-space <normal, x> <= offset, with a primitive integer normal."""

    normal: tuple
    offset: int


@frozen
class ReflexivityReport:
    """Outcome of a reflexivity test; dual_vertices is the certificate
    (rational when the test fails on integrality)."""

    is_reflexive: bool
    dual_vertices: tuple


class LatticePolytope:
    """Convex hull of finitely many lattice points.

    The constructor canonicalizes: duplicates are dropped and only the
    extreme points are kept as vertices, in lexicographic order, so two
    polytopes compare equal exactly when their hulls agree.
    """

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = sorted({_lattice_point(p) for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        ambient = len(pts[0])
        if any(len(p) != ambient for p in pts):
            raise ValueError("points live in different ambient dimensions")
        if ambient == 0:
            raise ValueError("a point needs at least one coordinate")
        self._ambient = ambient
        base = pts[0]
        diffs = [tuple(x - b for x, b in zip(p, base)) for p in pts[1:]]
        self._dim = rational_rank(diffs) if diffs else 0

        self._facets: tuple | None = None
        self._reduced: LatticePolytope | None = None
        self._hull_base = base
        self._hull_basis: tuple | None = None

        if self._dim == 0:
            self._vertices = (base,)
        elif self._dim == ambient:
            self._vertices, self._facets = _full_dim_hull(pts, ambient)
        else:
            # Work inside the affine hull: a saturated basis of the
            # direction lattice gives integer coordinates for every
            # lattice point of the hull, reducing to the full-dim case.
            normals = integer_kernel_basis(diffs)
            basis = integer_kernel_basis(normals)
            self._hull_basis = tuple(basis)
            reduced_pts = [self._to_reduced(p) for p in pts]
            self._reduced = LatticePolytope(reduced_pts)
            back = {self._to_reduced(p): p for p in pts}
            self._vertices = tuple(sorted(back[q] for q in self._reduced.vertices))

    # -- coordinates in the affine hull --------------------------------

    def _to_reduced(self, point) -> tuple | None:
        delta = tuple(x - b for x, b in zip(point, self._hull_base))
        y = solve_rational([list(col) for col in zip(*self._hull_basis)], delta)
        if y is None:
            return None
        if any(v.denominator != 1 for v in y):
            return None
        return tuple(v.numerator for v in y)

    def _from_reduced(self, y) -> tuple:
        return tuple(
            b + dot(col, y) for b, col in zip(self._hull_base, zip(*self._hull_basis))
        )

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def ambient_dim(self) -> int:
        return self._ambient

    @property
    def dim(self) -> int:
        return self._dim

    def facets(self) -> tuple:
        if self._facets is None:
            raise ValueError("facet description needs a full-dimensional polytope")
        return self._facets

    def contains(self, point) -> bool:
        p = _lattice_point(point)
        if len(p) != self._ambient:
            raise ValueError("point has the wrong ambient dimension")
        if self._dim == 0:
            return p == self._vertices[0]
        if self._dim == self._ambient:
            return all(dot(f.normal, p) <= f.offset for f in self._facets)
        y = self._to_reduced(p)
        return y is not None and self._reduced.contains(y)

    def lattice_points(self) -> list:
        """All lattice points of the hull, in lexicographic order."""
        if self._dim == 0:
            return [self._vertices[0]]
        if self._dim == self._ambient:
            ranges = [
                range(min(v[i] for v in self._vertices), max(v[i] for v in self._vertices) + 1)
                for i in range(self._ambient)
            ]
            return [
                p
                for p in itertools.product(*ranges)
                if all(dot(f.normal, p) <= f.offset for f in self._facets)
            ]
        return sorted(self._from_reduced(y) for y in self._reduced.lattice_points())

    # -- polarity ------------------------------------------------------

    def _facets_with_interior_origin(self) -> tuple:
        if self._dim != self._ambient:
            raise OriginNotInteriorError(
                "polar dual needs a full-dimensional polytope"
            )
        if any(f.offset <= 0 for f in self._facets):
            raise OriginNotInteriorError("origin is not strictly interior")
        return self._facets

    def polar_dual_rational(self) -> tuple:
        """Vertices of {y : <x, y> >= -1 for all x}, as rational tuples."""
        facets = self._facets_with_interior_origin()
        return tuple(
            tuple(Fraction(-n, f.offset) for n in f.normal) for f in facets
        )

    def polar_dual(self) -> "LatticePolytope":
        """The polar dual as a lattice polytope; raises when a dual vertex
        is not integral."""
        duals = self.polar_dual_rational()
        for v in duals:
            if any(c.denominator != 1 for c in v):
                raise NonReflexiveError(f"dual vertex {v} is not a lattice point")
        return LatticePolytope([tuple(c.numerator for c in v) for v in duals])

    def is_reflexive(self) -> ReflexivityReport:
        """Reflexivity test with the dual vertex list as certificate."""
        try:
            duals = self.polar_dual_rational()
        except OriginNotInteriorError:
            return ReflexivityReport(False, tuple())
        ok = all(c.denominator == 1 for v in duals for c in v)
        return ReflexivityReport(ok, duals)

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticePolytope) and self._vertices == other._vertices
        )

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"LatticePolytope(vertices={list(self._vertices)!r})"


def _hyperplane_normal(rows) -> tuple | None:
    """Primitive integer normal to the span of d - 1 vectors in Z^d, up to
    sign: the signed maximal minors divided by their gcd.  None when the
    vectors are dependent, which is exactly when every minor vanishes."""
    minors = [
        integer_det([r[:i] + r[i + 1:] for r in rows]) * (-1) ** i
        for i in range(len(rows[0]))
    ]
    g = math.gcd(*minors)
    if g == 0:
        return None
    return tuple(m // g for m in minors)


def _full_dim_facets(points, ambient: int, new: int) -> set:
    """Brute-force facet search over d-subsets of `points`, the vertex set
    grown so far by `_full_dim_hull`, that contain one of its first `new`
    points: every hyperplane through such a subset that keeps all of
    `points` on one side, oriented outwards.  With k vertices that is at
    most C(k, d) subsets of k dot products each."""
    if ambient == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return {Facet((-1,), -lo), Facet((1,), hi)}
    found = set()
    for i in range(new):
        base = points[i]
        for rest in itertools.combinations(points[i + 1:], ambient - 1):
            normal = _hyperplane_normal(
                [[x - b for x, b in zip(p, base)] for p in rest]
            )
            if normal is None:
                continue
            offset = dot(normal, base)
            above = below = False
            for p in points:
                value = dot(normal, p)
                if value > offset:
                    above = True
                elif value < offset:
                    below = True
                else:
                    continue
                if above and below:
                    break
            else:
                if above:
                    normal, offset = tuple(-n for n in normal), -offset
                found.add(Facet(normal, offset))
    return found


def _extreme(points, functional) -> tuple:
    """The lexicographically largest maximizer of a linear functional on
    the points, which is a vertex of their hull."""
    return max(points, key=lambda p: (dot(functional, p), p))


def _full_dim_hull(points, ambient: int) -> tuple:
    """Sorted vertices and facets of the hull of distinct points spanning
    Z^d, from a vertex set grown until no point lies outside a facet."""
    base = points[0]
    seed = {base, points[-1]}
    while True:
        normals = integer_kernel_basis(
            [[x - b for x, b in zip(v, base)] for v in seed]
        )
        if not normals:
            break
        seed.add(_extreme(points, normals[0]))
        seed.add(_extreme(points, [-n for n in normals[0]]))
    vertices, facets, new = [], set(), sorted(seed)
    while new:
        # An old facet with no new point outside it is a facet of the
        # larger set; every other facet contains one of the new points.
        vertices = new + vertices
        fresh = _full_dim_facets(vertices, ambient, len(new))
        facets = {
            f for f in facets if all(dot(f.normal, p) <= f.offset for p in new)
        }
        facets |= fresh
        # A facet that survives a round had no point outside it, so only
        # the fresh ones can have one.
        outside = set()
        for f in fresh:
            beyond = [p for p in points if dot(f.normal, p) > f.offset]
            if beyond:
                outside.add(_extreme(beyond, f.normal))
        new = sorted(outside)
    return tuple(sorted(vertices)), tuple(
        sorted(facets, key=lambda f: (f.normal, f.offset))
    )


# ---------------------------------------------------------------------------
# the dual simplex pair of the quintic story
# ---------------------------------------------------------------------------


def projective_space_fan_polytope() -> LatticePolytope:
    """Convex hull of e_1..e_4 and -(1,1,1,1): the primitive ray generators
    of the fan of four-dimensional projective space."""
    vertices = [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
    vertices.append((-1, -1, -1, -1))
    return LatticePolytope(vertices)


def quintic_newton_polytope() -> LatticePolytope:
    """The reflexive simplex with vertices 5 e_j - (1,1,1,1) and
    -(1,1,1,1): degree-five monomials centered on x1 x2 x3 x4 x5."""
    vertices = [
        tuple(4 if i == j else -1 for i in range(4)) for j in range(4)
    ]
    vertices.append((-1, -1, -1, -1))
    return LatticePolytope(vertices)


# ---------------------------------------------------------------------------
# moduli counting and Gorenstein witnesses
# ---------------------------------------------------------------------------


def moduli_dimension(num_monomials: int, group_dimension: int) -> int:
    """Hypersurface moduli: monomial count minus the symmetry group dimension.

    Degenerate inputs (a count not exceeding the group dimension) are
    rejected rather than clamped.
    """
    n = int(num_monomials)
    g = int(group_dimension)
    if n <= g:
        raise ValueError(
            f"monomial count {n} does not exceed group dimension {g}; "
            "no moduli remain"
        )
    return n - g


@frozen
class GorensteinWitness:
    """Rational vectors with P mu = (1,...,1) and nu^t P = (1,...,1)."""

    mu: tuple
    nu: tuple
    pairing: Fraction


def _rows_of(matrix) -> list:
    rows = getattr(matrix, "rows", matrix)
    return [[Fraction(x) for x in r] for r in rows]


def gorenstein_check(matrix) -> GorensteinWitness:
    """Solve the two witness systems for an exponent matrix.

    Free variables are set to zero, making the witness deterministic;
    either system being unsolvable raises ``InfeasibleWitnessError``.
    The pairing nu^t P mu measures the degree drop of the associated
    complete intersection.
    """
    rows = _rows_of(matrix)
    m = len(rows)
    n = len(rows[0]) if rows else 0
    ones_rows = [Fraction(1)] * m
    ones_cols = [Fraction(1)] * n
    mu = solve_rational(rows, ones_rows)
    if mu is None:
        raise InfeasibleWitnessError("no rational mu with P mu = (1,...,1)")
    transpose = [list(col) for col in zip(*rows)]
    nu = solve_rational(transpose, ones_cols)
    if nu is None:
        raise InfeasibleWitnessError("no rational nu with nu^t P = (1,...,1)")
    pairing = Fraction(dot(nu, [dot(row, mu) for row in rows]))
    return GorensteinWitness(tuple(mu), tuple(nu), pairing)


def cy_dimension(matrix, witness: GorensteinWitness, d: int) -> int:
    """Dimension of the critical locus as a Calabi-Yau: d - 2 (nu^t P mu).

    The witness is re-validated against the matrix before use.
    """
    rows = _rows_of(matrix)
    m = len(rows)
    n = len(rows[0]) if rows else 0
    if len(witness.mu) != n or len(witness.nu) != m:
        raise InfeasibleWitnessError("witness shape does not match the matrix")
    p_mu = [dot(row, witness.mu) for row in rows]
    if any(v != 1 for v in p_mu):
        raise InfeasibleWitnessError("mu does not satisfy P mu = (1,...,1)")
    if any(dot(witness.nu, col) != 1 for col in zip(*rows)):
        raise InfeasibleWitnessError("nu does not satisfy nu^t P = (1,...,1)")
    recomputed = dot(witness.nu, p_mu)
    if witness.pairing != recomputed:
        raise InfeasibleWitnessError(
            f"stored pairing {witness.pairing} disagrees with nu^t P mu = {recomputed}"
        )
    value = Fraction(d) - 2 * witness.pairing
    if value.denominator != 1:
        raise ValueError(f"pairing {witness.pairing} gives a non-integer dimension")
    return int(value)
