"""Discriminant-graph combinatorics of torus fibrations.

A trivalent vertex of the discriminant graph of a T^3 fibration carries
three 3x3 integer monodromy matrices whose ordered product is the
identity.  Vertices are classified by the pair (d1, d2): the dimension
of the common fixed subspace of the standard action on Z^3, and the same
for the inverse-transpose action.  The two generic types are (2, 1) and
(1, 2), and the transform M -> transpose(M)^{-1} exchanges them.

Matrices in this module act on column vectors (the standard action);
period monodromies elsewhere in the package use row vectors, but here
the fixed-space computation follows the kernel of the stacked M - I
blocks directly.

The quintic vertex and edge counts (250, 50, 450) are not stored: they
are recomputed from the face lattice of the degree-5 simplex pair by a
bilinear counting rule (unit triangles in a 2-face times the lattice
length of its dual edge, summed both ways round).

A K3-sized warm-up is included: the Euler-number check sum(k_i) = 24 for
semistable elliptic fibers, and the exact SL(2, Z) conjugacy between a
unipotent 2x2 monodromy and its inverse transpose.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from ._frozen import frozen
from .linalg import (
    dot,
    integer_det,
    integer_matmul,
    integer_matrix,
    rational_rank,
    smith_normal_form,
    unimodular_inverse,
)
from .toric import projective_space_fan_polytope, quintic_newton_polytope

VERTEX_TYPE_21 = "type21"
VERTEX_TYPE_12 = "type12"
VERTEX_TYPE_OTHER = "other"


class ProductConditionError(ValueError):
    """The three monodromies at a vertex do not multiply to the identity."""


_IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_IDENTITY2 = ((1, 0), (0, 1))


@frozen
class UnipotentMonodromy3:
    """A 3x3 integer matrix of determinant 1."""

    entries: tuple

    @staticmethod
    def from_rows(rows) -> "UnipotentMonodromy3":
        entries = integer_matrix(rows)
        if len(entries) != 3 or len(entries[0]) != 3:
            raise ValueError("need a 3x3 integer matrix")
        det = integer_det(entries)
        if det != 1:
            raise ValueError(f"determinant is {det}, not 1")
        return UnipotentMonodromy3(entries)

    def __mul__(self, other: "UnipotentMonodromy3") -> "UnipotentMonodromy3":
        return UnipotentMonodromy3(integer_matmul(self.entries, other.entries))

    def transpose(self) -> "UnipotentMonodromy3":
        e = self.entries
        return UnipotentMonodromy3(
            tuple(tuple(e[j][i] for j in range(3)) for i in range(3))
        )

    def inverse(self) -> "UnipotentMonodromy3":
        return UnipotentMonodromy3(unimodular_inverse(self.entries))

    def inverse_transpose(self) -> "UnipotentMonodromy3":
        return self.inverse().transpose()

    def minus_identity(self) -> tuple:
        return tuple(
            tuple(self.entries[i][j] - _IDENTITY3[i][j] for j in range(3))
            for i in range(3)
        )

    def is_identity(self) -> bool:
        return self.entries == _IDENTITY3

    def is_unipotent(self) -> bool:
        n = self.minus_identity()
        n2 = integer_matmul(n, n)
        n3 = integer_matmul(n2, n)
        return all(x == 0 for row in n3 for x in row)


@frozen
class VertexData:
    """Ordered monodromy triple at a trivalent vertex, product = identity."""

    monodromies: tuple

    def __post_init__(self) -> None:
        if len(self.monodromies) != 3 or not all(
            isinstance(m, UnipotentMonodromy3) for m in self.monodromies
        ):
            raise ValueError("need an ordered triple of monodromy matrices")
        m1, m2, m3 = self.monodromies
        if not (m1 * m2 * m3).is_identity():
            raise ProductConditionError("monodromy product is not the identity")
        for m in self.monodromies:
            if not m.is_unipotent():
                raise ValueError("edge monodromy is not unipotent")

    @staticmethod
    def from_rows_triple(rows1, rows2, rows3) -> "VertexData":
        return VertexData(
            (
                UnipotentMonodromy3.from_rows(rows1),
                UnipotentMonodromy3.from_rows(rows2),
                UnipotentMonodromy3.from_rows(rows3),
            )
        )


def _common_fixed_dimension(matrices) -> int:
    """dim of the joint kernel of the stacked (M - I) blocks."""
    stacked = []
    for m in matrices:
        stacked.extend(m.minus_identity())
    return 3 - rational_rank(stacked)


def fixed_space_profile(v: VertexData) -> tuple:
    """(d1, d2): joint fixed dimensions of the action and its inverse transpose."""
    d1 = _common_fixed_dimension(v.monodromies)
    d2 = _common_fixed_dimension([m.inverse_transpose() for m in v.monodromies])
    return d1, d2


def classify_vertex(v: VertexData) -> str:
    m1, m2, m3 = v.monodromies
    if not (m1 * m2 * m3).is_identity():
        raise ProductConditionError("monodromy product is not the identity")
    profile = fixed_space_profile(v)
    if profile == (2, 1):
        return VERTEX_TYPE_21
    if profile == (1, 2):
        return VERTEX_TYPE_12
    return VERTEX_TYPE_OTHER


def mirror_swap(v: VertexData) -> VertexData:
    """Replace each monodromy by its inverse transpose.

    The cyclic order is kept: since (AB)^t = B^t A^t and inversion also
    reverses products, the composite M -> transpose(M)^{-1} preserves the
    ordered product, so the product condition holds without reshuffling.
    Classification of the result is the (d1, d2) swap of the input's.
    """
    return VertexData(tuple(m.inverse_transpose() for m in v.monodromies))


@frozen
class FibrationGraphSummary:
    """Vertex counts by type and the edge count of a closed trivalent graph."""

    v21: int
    v12: int
    edges: int

    def to_json(self) -> dict:
        return {"v21": self.v21, "v12": self.v12, "edges": self.edges}


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
    """Number of unit lattice triangles in the triangle spanned by 3 points."""
    a, b, c = points
    rows = [
        tuple(x - y for x, y in zip(b, a)),
        tuple(x - y for x, y in zip(c, a)),
    ]
    divisors = smith_normal_form(rows).divisors
    if len(divisors) != 2:
        raise ValueError("points do not span a 2-face")
    return divisors[0] * divisors[1]


def _lattice_length(points) -> int:
    a, b = points
    g = 0
    for x, y in zip(a, b):
        g = gcd(g, abs(x - y))
    if g == 0:
        raise ValueError("edge endpoints coincide")
    return g


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
        return [
            v for v in small_verts if all(dot(w, v) == -1 for w in span)
        ]

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
