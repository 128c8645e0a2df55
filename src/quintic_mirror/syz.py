"""Discriminant-graph combinatorics of torus fibrations.

A trivalent vertex of the discriminant graph of a T^3 fibration carries
three 3x3 integer monodromy matrices whose ordered product is the
identity.  Vertices are classified by the pair (d1, d2): the dimension
of the common fixed subspace of the standard action on Z^3, and the same
for the inverse-transpose action.  The two generic types are (2, 1) and
(1, 2), and the transform M -> transpose(M)^{-1} exchanges them.

The monodromies are integral ``SquareExactMatrix`` values over QQ, with
the package's one product, inverse and unipotency test.  Here they act
on column vectors (the standard action); period monodromies elsewhere in
the package use row vectors, but the fixed-space computation follows the
kernel of the stacked M - I blocks, and of their transposes for d2,
directly.  Only the mirror swap takes inverses.

The quintic vertex and edge counts (250, 50, 450) are not stored: they
are recomputed from the face lattice of the degree-5 simplex pair by a
bilinear counting rule (unit triangles in a 2-face times the lattice
length of its dual edge, summed both ways round), each count a gcd of
coordinates or of 2x2 minors.

A K3-sized warm-up is included: the Euler-number check sum(k_i) = 24 for
semistable elliptic fibers, and the exact SL(2, Z) conjugacy between a
unipotent 2x2 monodromy and its inverse transpose.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from ._frozen import frozen
from .exactnum import QQ
from .kontsevich import is_unipotent
from .linalg import SquareExactMatrix, dot, gauss_jordan, integer_matmul, integer_matrix, rational_rank
from .toric import projective_space_fan_polytope, quintic_newton_polytope

VERTEX_TYPE_21 = "type21"
VERTEX_TYPE_12 = "type12"
VERTEX_TYPE_OTHER = "other"


class ProductConditionError(ValueError):
    """The three monodromies at a vertex do not multiply to the identity."""


_IDENTITY2 = ((1, 0), (0, 1))


class UnipotentMonodromy3:
    """The validating constructor of a vertex monodromy."""

    @staticmethod
    def from_rows(rows) -> SquareExactMatrix:
        """A 3x3 integer matrix of determinant 1, as a matrix over QQ."""
        entries = integer_matrix(rows)
        if len(entries) != 3 or len(entries[0]) != 3:
            raise ValueError("need a 3x3 integer matrix")
        m = SquareExactMatrix.from_rows(QQ, entries)
        det = gauss_jordan(QQ, m.rows, 3)[2]
        if det != 1:
            raise ValueError(f"determinant is {det}, not 1")
        return m


@frozen
class VertexData:
    """Ordered monodromy triple at a trivalent vertex, product = identity."""

    monodromies: tuple

    def __post_init__(self) -> None:
        if len(self.monodromies) != 3 or not all(
            isinstance(m, SquareExactMatrix) and m.field == QQ and m.size == 3
            and all(x.denominator == 1 for row in m.rows for x in row)
            for m in self.monodromies
        ):
            raise ValueError("need an ordered triple of 3x3 integer matrices over QQ")
        m1, m2, m3 = self.monodromies
        if not (m1 * m2 * m3).is_identity():
            raise ProductConditionError("monodromy product is not the identity")
        if not all(map(is_unipotent, self.monodromies)):
            raise ValueError("edge monodromy is not unipotent")

    @staticmethod
    def from_rows_triple(rows1, rows2, rows3) -> "VertexData":
        return VertexData(tuple(map(UnipotentMonodromy3.from_rows, (rows1, rows2, rows3))))


def _inverse_transpose(m: SquareExactMatrix) -> SquareExactMatrix:
    return SquareExactMatrix(m.field, tuple(zip(*m.inverse().rows)))


def fixed_space_profile(v: VertexData) -> tuple:
    """(d1, d2): joint fixed dimensions of the action and its inverse transpose;
    M^-T x = x exactly when M^T x = x, so d2 reads the transposed M - I blocks."""
    identity = SquareExactMatrix.identity(QQ, 3)
    blocks = [(m - identity).rows for m in v.monodromies]
    d1 = 3 - rational_rank([row for block in blocks for row in block])
    d2 = 3 - rational_rank([row for block in blocks for row in zip(*block)])
    return d1, d2


def classify_profile(profile: tuple) -> str:
    """The vertex type of a fixed-space profile (d1, d2)."""
    if profile == (2, 1):
        return VERTEX_TYPE_21
    if profile == (1, 2):
        return VERTEX_TYPE_12
    return VERTEX_TYPE_OTHER


def classify_vertex(v: VertexData) -> str:
    return classify_profile(fixed_space_profile(v))


def mirror_swap(v: VertexData) -> VertexData:
    """Replace each monodromy by its inverse transpose.

    The cyclic order is kept: since (AB)^t = B^t A^t and inversion also
    reverses products, the composite M -> transpose(M)^{-1} preserves the
    ordered product, so the product condition holds without reshuffling.
    Classification of the result is the (d1, d2) swap of the input's.
    """
    return VertexData(tuple(map(_inverse_transpose, v.monodromies)))


@frozen
class FibrationGraphSummary:
    """Vertex counts by type and the edge count of a closed trivalent graph."""

    v21: int
    v12: int
    edges: int


def quintic_graph_counts(
    two_face_triangle_counts: list,
    dual_edge_lengths: list,
    edge_lattice_lengths: list,
    dual_face_triangle_counts: list,
) -> FibrationGraphSummary:
    """Count discriminant-graph vertices from dual face data.

    Positive vertices live over 2-faces: each unit triangle of a 2-face
    contributes once per lattice step of the dual edge.  Negative
    vertices live over edges, with the roles reversed.  The two count
    lists must therefore be aligned with their dual-length lists.
    """
    if len(two_face_triangle_counts) != len(dual_edge_lengths):
        raise ValueError("2-face counts and dual edge lengths differ in length")
    if len(edge_lattice_lengths) != len(dual_face_triangle_counts):
        raise ValueError("edge lengths and dual face counts differ in length")
    v21 = dot(two_face_triangle_counts, dual_edge_lengths)
    v12 = dot(edge_lattice_lengths, dual_face_triangle_counts)
    total = 3 * (v21 + v12)
    if total % 2 != 0:
        raise ValueError("3(v21 + v12) is odd; counts cannot close a trivalent graph")
    return FibrationGraphSummary(v21, v12, total // 2)


def _triangle_count(points) -> int:
    """Number of unit lattice triangles in the triangle spanned by 3 points:
    the gcd of the 2x2 minors of its edge vectors, which is the product of
    their two Smith divisors."""
    a, b, c = points
    u = [x - y for x, y in zip(b, a)]
    v = [x - y for x, y in zip(c, a)]
    count = gcd(*(u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(len(a)), 2)))
    if count == 0:
        raise ValueError("points do not span a 2-face")
    return count


def _lattice_length(points) -> int:
    """Number of lattice steps along an edge: the gcd of its coordinate
    differences."""
    a, b = points
    length = gcd(*(x - y for x, y in zip(a, b)))
    if length == 0:
        raise ValueError("edge endpoints coincide")
    return length


def quintic_face_data() -> tuple:
    """Face data of the degree-5 simplex pair, ready for the counting rule.

    Faces of the big simplex (the one with 126 lattice points) are paired
    with faces of its polar partner through the incidence pairing: the
    dual of a face spanned by vertices w is the set of partner vertices v
    with <w, v> = -1.  Everything is recomputed from the vertex sets, so
    a wrong polar pair would fail loudly here rather than produce stale
    constants.
    """
    big = quintic_newton_polytope()
    small = projective_space_fan_polytope()
    big_verts = big.vertices
    small_verts = small.vertices

    def dual_face(span) -> list:
        return [v for v in small_verts if all(dot(w, v) == -1 for w in span)]

    two_face_counts = []
    dual_edge_lengths = []
    for span in combinations(big_verts, 3):
        dual = dual_face(span)
        if len(dual) != 2:
            raise ValueError("2-face of the simplex has no dual edge")
        two_face_counts.append(_triangle_count(span))
        dual_edge_lengths.append(_lattice_length(dual))

    edge_lengths = []
    dual_face_counts = []
    for span in combinations(big_verts, 2):
        dual = dual_face(span)
        if len(dual) != 3:
            raise ValueError("edge of the simplex has no dual 2-face")
        edge_lengths.append(_lattice_length(span))
        dual_face_counts.append(_triangle_count(dual))

    return two_face_counts, dual_edge_lengths, edge_lengths, dual_face_counts


def quintic_fibration_summary() -> FibrationGraphSummary:
    return quintic_graph_counts(*quintic_face_data())


def k3_semistable_check(ks) -> bool:
    """True iff the fiber multiplicities of an elliptic K3 sum to 24."""
    try:
        (ns,) = integer_matrix([ks])
    except ValueError:
        ns = None
    if ns is None or any(n <= 0 for n in ns):
        raise ValueError("fiber multiplicities must be positive integers")
    return sum(ns) == 24


def sl2_mirror_selfconjugacy(k: int) -> tuple:
    """A matrix C in SL(2, Z) with C (M^t)^{-1} C^{-1} = M for M = (1 k / 0 1).

    The rotation (0 -1 / 1 0) works for every k, and the identity
    suffices when k = 0; the returned C is verified by multiplication,
    not assumed.
    """
    k = int(k)
    m = ((1, k), (0, 1))
    inv_transpose = ((1, 0), (-k, 1))
    c = _IDENTITY2 if k == 0 else ((0, -1), (1, 0))
    c_inv = _IDENTITY2 if k == 0 else ((0, 1), (-1, 0))
    conjugated = integer_matmul(integer_matmul(c, inv_transpose), c_inv)
    if conjugated != m:
        raise RuntimeError("self-conjugacy witness failed verification")
    return c
