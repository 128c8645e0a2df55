"""Lattice polytopes, polar duality, and hypersurface moduli counts.

Polytopes are stored by their vertex lists (extreme points only, sorted).
An affine basis grows from the first point, each new one the extreme
point along a Smith kernel vector of the edges so far that leaves their
span.  A full-dimensional hull in Z^d grows from that d-simplex by
beneath-beyond insertion: a point no facet lies strictly below is
skipped; otherwise the facets it sees go, the facets through it gain it,
and over each ridge between a seen facet and one beneath it a new facet
is the combination of the two that vanishes at the point.  Ridges are
read from bitmasks of the points on each facet, so a hull costs about
points times facets.  Lattice points are listed fibre by fibre, each
coordinate's range taken from the facets of the projection onto the
coordinates so far.  A k-dimensional polytope in a larger space is
projected by the first k columns of the Smith column transform of its
basis's edges, one-to-one on its affine hull: its vertices are the
preimages of the projection's.  The polar dual uses <x, y> >= -1, so a
facet <n, x> <= c with c > 0 becomes the dual vertex -n/c.  The polytope
is reflexive when every c divides its n; its dual is then built with no
hull, each vertex v here giving the dual's facet <x, v> >= -1.

The module also carries the two dual simplices of the quintic story and
the small arithmetic around hypersurface moduli: lattice point counts
and the moduli dimension.
"""

from __future__ import annotations

import math

from ._frozen import frozen
from .exactnum import fraction
from .linalg import dot, integer_kernel_basis, integer_matrix, smith_normal_form


class OriginNotInteriorError(ValueError):
    """The origin is not strictly inside the polytope."""


class NonReflexiveError(ValueError):
    """The polar dual is not a lattice polytope."""


@frozen
class Facet:
    """The half-space <normal, x> <= offset, with a primitive integer normal."""

    normal: tuple
    offset: int


class LatticePolytope:
    """Convex hull of finitely many lattice points.

    The constructor canonicalizes: duplicates are dropped and only the
    extreme points are kept as vertices, in lexicographic order, so two
    polytopes compare equal exactly when their hulls agree.
    """

    def __init__(self, points: Iterable[Sequence[int]]):
        pts = sorted({integer_matrix([p])[0] for p in points})
        if not pts:
            raise ValueError("a polytope needs at least one point")
        ambient = len(pts[0])
        if any(len(p) != ambient for p in pts):
            raise ValueError("points live in different ambient dimensions")
        if ambient == 0:
            raise ValueError("a point needs at least one coordinate")
        self._ambient = ambient
        span = _affine_span(pts)
        self._dim = len(span) - 1
        self._facets: tuple | None = None

        if self._dim == 0:
            self._vertices = (pts[0],)
        elif self._dim == ambient:
            self._vertices, self._facets = _full_dim_hull(pts, span)
        else:
            # the span's edges times the Smith form's column transform V vanish
            # past column dim, so V's first dim columns project the affine hull
            # one-to-one: the vertices are the preimages of the projection's
            columns = tuple(zip(*smith_normal_form(_edges(span)).v))[: self._dim]
            back = {tuple(dot(p, c) for c in columns): p for p in pts}
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
                shadow = sorted({v[: k + 1] for v in self._vertices})
                _, facets = _full_dim_hull(shadow, _affine_span(shadow))
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
        """The polar dual as a lattice polytope, built with no hull: its vertices
        are :meth:`polar_dual_rational`'s, and each vertex v here gives its facet
        <x, v> >= -1, whose normal -v is primitive because the dual is
        reflexive too.  Raises unless :meth:`is_reflexive`."""
        self._facets_with_interior_origin()
        if not self.is_reflexive():
            raise NonReflexiveError("the polar dual is not a lattice polytope")
        dual = object.__new__(LatticePolytope)
        dual._ambient = dual._dim = self._ambient
        dual._vertices = tuple(sorted(self.polar_dual_rational()))
        dual._facets = tuple(Facet(n, 1) for n in sorted(tuple(-x for x in v) for v in self._vertices))
        return dual

    def is_reflexive(self) -> bool:
        """The origin is interior and every facet offset divides its normal, on ints."""
        try:
            facets = self._facets_with_interior_origin()
        except OriginNotInteriorError:
            return False
        return all(n % f.offset == 0 for f in facets for n in f.normal)

    # -- dunder plumbing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticePolytope) and self._vertices == other._vertices


def _hyperplane_normal(points, inside) -> tuple:
    """(normal, offset) of the hyperplane through d affinely independent
    points of Z^d, with <normal, inside> < offset: the one vector of the
    Smith kernel of all d differences from the first point (a single zero
    row when d = 1), which is primitive."""
    base = points[0]
    normal = integer_kernel_basis(_edges(points))[0]
    if dot(normal, inside) > dot(normal, base):
        normal = tuple(-n for n in normal)
    return normal, dot(normal, base)


def _extreme(points, functional) -> tuple:
    """The lexicographically largest maximizer of a linear functional on
    the points, which is a vertex of their hull."""
    return max(points, key=lambda p: (dot(functional, p), p))


def _edges(points) -> list:
    """The differences of the points from the first."""
    return [[x - b for x, b in zip(p, points[0])] for p in points]


def _affine_span(points) -> list:
    """An affine basis of the points' hull, grown from points[0]: each
    round adds the extreme point along the first Smith kernel vector of the
    edges so far, or its negative, that leaves their span, until none does."""
    base = points[0]
    span = [base]
    while len(span) <= len(base):
        extremes = ((n, _extreme(points, [s * x for x in n]))
                    for n in integer_kernel_basis(_edges(span)) for s in (1, -1))
        off = next((p for n, p in extremes if dot(n, p) != dot(n, base)), None)
        if off is None:
            break
        span.append(off)
    return span


def _full_dim_hull(points, span) -> tuple:
    """Sorted vertices and facets of the hull of distinct points spanning
    Z^d, by beneath-beyond insertion into the d-simplex span of some of them.

    Each facet is kept as (normal, offset, mask), where bit i of the mask
    is set when points[i] has been inserted and lies on the hyperplane."""
    ambient = len(points[0])
    inserted = [points.index(p) for p in span]
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
