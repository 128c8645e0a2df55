"""Lattice polytopes, polar duality, and hypersurface moduli counts.

Polytopes are stored by their vertex lists (extreme points only, sorted).
A full-dimensional hull in Z^d grows by beneath-beyond insertion from a
d-simplex among extreme points, whose facet normals are Smith kernel
vectors.  A point no facet lies strictly below is skipped; otherwise the
facets it sees go, the facets through it gain it, and over each ridge
between a seen facet and one beneath it a new facet is the combination of
the two that vanishes at the point.  Ridges are read from bitmasks of the
points on each facet, so a hull costs about points times facets.  Lattice
points are listed fibre by fibre, each coordinate's range taken from the
facets of the projection onto the coordinates so far, at about the cost
of the projections' lattice points; only a full-dimensional polytope
lists them.  A lower-dimensional polytope is projected onto the pivot
coordinates of its affine hull, which is one-to-one there: its vertices
are the preimages of the projection's.  The polar dual uses the
inequality <x, y> >= -1, so a facet <n, x> <= c with c > 0 on the
primal side becomes the dual vertex -n/c; a reflexive polytope's dual
takes its facets from the primal vertices, with no hull.

The module also carries the two dual simplices of the quintic story and
the small arithmetic around hypersurface moduli: lattice point counts
and the moduli dimension.
"""

from __future__ import annotations

import math

from ._frozen import frozen
from .exactnum import fraction
from .linalg import dot, integer_kernel_basis, integer_matrix

LatticePoint = tuple


class OriginNotInteriorError(ValueError):
    """The origin is not strictly inside the polytope."""


class NonReflexiveError(ValueError):
    """The polar dual is not a lattice polytope."""


def _lattice_point(p) -> tuple:
    return integer_matrix([p])[0]


@frozen
class Facet:
    """The half-space <normal, x> <= offset, with a primitive integer normal."""

    normal: tuple
    offset: int


@frozen
class ReflexivityReport:
    """Outcome of a reflexivity test; dual_vertices is the certificate: int
    coordinates, and a Fraction at each one that is not integral (a failed test)."""

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
        pivots = _affine_basis(pts)[1]
        self._dim = len(pivots)
        self._facets: tuple | None = None

        if self._dim == 0:
            self._vertices = (pts[0],)
        elif self._dim == ambient:
            self._vertices, self._facets = _full_dim_hull(pts, ambient)
        else:
            # projecting onto the pivot coordinates is one-to-one on the
            # affine hull, so the vertices are the preimages of the
            # projection's vertices
            back = {tuple(p[k] for k in pivots): p for p in pts}
            projection = LatticePolytope(back)
            self._vertices = tuple(sorted(back[q] for q in projection.vertices))

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def dim(self) -> int:
        return self._dim

    def facets(self) -> tuple:
        if self._facets is None:
            raise ValueError("facet description needs a full-dimensional polytope")
        return self._facets

    def lattice_points(self) -> list:
        """Lattice points of a full-dimensional hull, in lexicographic order."""
        # fibre by fibre: each prefix (x_1..x_k) is a lattice point of the
        # projection to the first k coordinates, and the facets of the next
        # projection that involve x_(k+1) bound its range
        self.facets()  # raises for a lower-dimensional polytope
        points = [()]
        for k in range(self._ambient):
            facets = self._facets
            if k + 1 < self._ambient:
                _, facets = _full_dim_hull(sorted({v[: k + 1] for v in self._vertices}), k + 1)
            upper = [(f.normal[:k], f.offset, f.normal[k]) for f in facets if f.normal[k] > 0]
            lower = [(f.normal[:k], f.offset, -f.normal[k]) for f in facets if f.normal[k] < 0]
            points = [q + (x,) for q in points for x in range(
                max(-((c - dot(n, q)) // m) for n, c, m in lower),
                min((c - dot(n, q)) // m for n, c, m in upper) + 1)]
        return points

    # -- polarity ------------------------------------------------------

    def _facets_with_interior_origin(self) -> tuple:
        if self._dim != self._ambient:
            raise OriginNotInteriorError("polar dual needs a full-dimensional polytope")
        if any(f.offset <= 0 for f in self._facets):
            raise OriginNotInteriorError("origin is not strictly interior")
        return self._facets

    def polar_dual_rational(self) -> tuple:
        """Vertices of {y : <x, y> >= -1 for all x}: ints, or Fractions where not integral."""
        facets = self._facets_with_interior_origin()
        return tuple(tuple(fraction(-n, f.offset) if n % f.offset else -n // f.offset
                           for n in f.normal) for f in facets)

    def polar_dual(self) -> "LatticePolytope":
        """The polar dual as a lattice polytope; raises unless the origin is
        interior and every dual vertex is integral."""
        self._facets_with_interior_origin()
        return self.reflexive_dual(self.is_reflexive())

    def reflexive_dual(self, report: ReflexivityReport) -> "LatticePolytope":
        """The polar dual from this polytope's :meth:`is_reflexive` report,
        with no hull: the certificate is the dual's vertex list, and each
        vertex v here gives the dual's facet <x, v> >= -1, whose normal -v is
        primitive because the dual is reflexive too."""
        if not report.is_reflexive:
            raise NonReflexiveError("the polar dual is not a lattice polytope")
        dual = object.__new__(LatticePolytope)
        dual._ambient = dual._dim = self._ambient
        dual._vertices = tuple(sorted(report.dual_vertices))
        dual._facets = tuple(Facet(n, 1) for n in sorted(tuple(-x for x in v) for v in self._vertices))
        return dual

    def is_reflexive(self) -> ReflexivityReport:
        """Reflexivity test with the dual vertex list as certificate."""
        try:
            duals = self.polar_dual_rational()
        except OriginNotInteriorError:
            return ReflexivityReport(False, tuple())
        return ReflexivityReport(all(c.denominator == 1 for v in duals for c in v), duals)

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticePolytope) and self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"LatticePolytope(vertices={list(self._vertices)!r})"


def _hyperplane_normal(points, inside) -> tuple:
    """(normal, offset) of the hyperplane through d affinely independent
    points of Z^d, with <normal, inside> < offset: the one vector of the
    Smith kernel of all d differences from the first point (a single zero
    row when d = 1), which is primitive."""
    base = points[0]
    normal = integer_kernel_basis([[x - b for x, b in zip(p, base)] for p in points])[0]
    if dot(normal, inside) > dot(normal, base):
        normal = tuple(-n for n in normal)
    return normal, dot(normal, base)


def _affine_basis(points) -> tuple:
    """points[0] and each later point whose difference from it is independent
    of those taken before (fraction-free elimination): dim + 1 points, and
    the pivot coordinate of each difference.  Each reduced difference
    vanishes at the pivots before its own, so the differences' block on the
    pivots is invertible."""
    base = points[0]
    basis, reduced = [base], []
    for p in points[1:]:
        r = [x - b for x, b in zip(p, base)]
        for k, row in reduced:
            r = [row[k] * x - r[k] * y for x, y in zip(r, row)]
        if any(r):
            g = math.gcd(*r)
            reduced.append((next(k for k, x in enumerate(r) if x), [x // g for x in r]))
            basis.append(p)
            if len(basis) > len(base):
                break
    return basis, [k for k, _ in reduced]


def _extreme(points, functional) -> tuple:
    """The lexicographically largest maximizer of a linear functional on
    the points, which is a vertex of their hull."""
    return max(points, key=lambda p: (dot(functional, p), p))


def _full_dim_hull(points, ambient: int) -> tuple:
    """Sorted vertices and facets of the hull of distinct points spanning
    Z^d, by beneath-beyond insertion into a d-simplex of seed points.

    Each facet is kept as (normal, offset, mask), where bit i of the mask
    is set when points[i] has been inserted and lies on the hyperplane."""
    base = points[0]
    seed = {base, points[-1]}
    while True:
        normals = integer_kernel_basis([[x - b for x, b in zip(v, base)] for v in seed])
        if not normals:
            break
        seed.add(_extreme(points, normals[0]))
        seed.add(_extreme(points, [-n for n in normals[0]]))
    inserted = [points.index(p) for p in _affine_basis(sorted(seed))[0]]
    facets = [
        (*_hyperplane_normal([points[i] for i in inserted if i != j], points[j]),
         sum(1 << i for i in inserted if i != j))
        for j in inserted
    ]
    # far points first: they are the likeliest vertices, and once they are
    # in, most of the others fall inside and are skipped
    centre = [sum(points[i][k] for i in inserted) for k in range(ambient)]
    order = sorted(
        set(range(len(points))) - set(inserted),
        key=lambda i: -sum(((ambient + 1) * x - c) ** 2 for x, c in zip(points[i], centre)),
    )
    for i in order:
        p, bit = points[i], 1 << i
        heights = [dot(n, p) - c for n, c, _ in facets]
        if max(heights) <= 0:
            continue
        inserted.append(i)
        # a facet F that p sees meets another facet G (whose points never
        # include all of F's) in a ridge when no third facet holds all their
        # common points, and a third facet that does meets F in at least as
        # many; over a ridge with G strictly beneath p, the new facet is the
        # combination of F and G that vanishes at p
        cone = []
        for (nf, cf, mf), a in zip(facets, heights):
            if a <= 0:
                continue
            near = [(common, facet, h) for facet, h in zip(facets, heights)
                    if (common := mf & facet[2]) != mf and common.bit_count() >= ambient - 1]
            for common, (ng, cg, _), b in near:
                if b < 0 and sum(common & other == common for other, _, _ in near) == 1:
                    normal = [a * y - b * x for x, y in zip(nf, ng)]
                    g = math.gcd(*normal)
                    offset = (a * cg - b * cf) // g
                    cone.append((tuple(n // g for n in normal), offset, common | bit))
        facets = [
            (n, c, m | bit if h == 0 else m) for (n, c, m), h in zip(facets, heights) if h <= 0
        ] + cone
    # a vertex is the only point on all the facets through it
    vertices = []
    for i in inserted:
        meet = -1
        for _, _, m in facets:
            meet &= m if m >> i & 1 else -1
        if meet == 1 << i:
            vertices.append(points[i])
    return tuple(sorted(vertices)), tuple(
        sorted((Facet(n, c) for n, c, _ in facets), key=lambda f: (f.normal, f.offset))
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
    vertices = [tuple(4 if i == j else -1 for i in range(4)) for j in range(4)]
    vertices.append((-1, -1, -1, -1))
    return LatticePolytope(vertices)


# ---------------------------------------------------------------------------
# moduli counting
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
