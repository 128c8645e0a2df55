from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from quintic_mirror import toric
from quintic_mirror.linalg import canonical_kernel_basis, rational_rank, unimodular_inverse
from quintic_mirror.toric import (
    Facet,
    LatticePolytope,
    NonReflexiveError,
    OriginNotInteriorError,
    moduli_dimension,
    projective_space_fan_polytope,
    quintic_newton_polytope,
)


def _random_unimodular(rng: random.Random, n: int, steps: int = 10) -> list:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


def _map_points(points, u) -> list:
    return [
        tuple(sum(p[i] * u[i][j] for i in range(len(p))) for j in range(len(u)))
        for p in points
    ]


def _transform(poly: LatticePolytope, u: list) -> LatticePolytope:
    return LatticePolytope(_map_points(poly.vertices, u))


# -- basic polytope behavior -------------------------------------------------


def test_fan_simplex_shape() -> None:
    p = projective_space_fan_polytope()
    assert p.ambient_dim == 4
    assert p.dim == 4
    assert len(p.vertices) == 5
    assert len(p.facets()) == 5
    assert p.contains((0, 0, 0, 0))
    assert not p.contains((2, 0, 0, 0))


def test_newton_polytope_lattice_points() -> None:
    p = quintic_newton_polytope()
    assert len(p.vertices) == 5
    assert len(p.lattice_points()) == 126


def test_vertices_drop_interior_points() -> None:
    square = LatticePolytope([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    assert len(square.vertices) == 4
    assert (0, 0) not in square.vertices


def test_lower_dimensional_polytopes() -> None:
    segment = LatticePolytope([(0, 0), (2, 0)])
    assert segment.ambient_dim == 2
    assert segment.dim == 1
    assert len(segment.lattice_points()) == 3
    triangle = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert triangle.dim == 2
    assert triangle.contains((0, 0, 0))
    assert not triangle.contains((0, 0, 1))


# -- facet search against the Smith-kernel reference --------------------------


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _reference_facets(points, ambient: int) -> tuple:
    """Reference facet search: one Smith-form kernel per point subset
    (canonical_kernel_basis), kept to check the cofactor normals against."""
    if ambient == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return (Facet((-1,), -lo), Facet((1,), hi))
    found = set()
    for subset in itertools.combinations(points, ambient):
        diffs = [tuple(x - b for x, b in zip(p, subset[0])) for p in subset[1:]]
        kernel = canonical_kernel_basis(diffs)
        if len(kernel) != 1:
            continue
        normal = kernel[0]
        offset = _dot(normal, subset[0])
        values = [_dot(normal, p) for p in points]
        if all(v <= offset for v in values):
            found.add(Facet(normal, offset))
        elif all(v >= offset for v in values):
            found.add(Facet(tuple(-n for n in normal), -offset))
    return tuple(sorted(found, key=lambda f: (f.normal, f.offset)))


def _reference_vertices(points, facets, ambient: int) -> tuple:
    return tuple(
        p
        for p in points
        if rational_rank([f.normal for f in facets if _dot(f.normal, p) == f.offset])
        == ambient
    )


def _cloud_with_degenerate_subsets(rng: random.Random, d: int, count: int, radius: int) -> list:
    """Random points plus the collinear a, a + u, a + 2u, a + 3u and two
    points a + v, a + u + 2v in a plane through that line, all within the
    coordinate radius."""
    def draw(r):
        return tuple(rng.randint(-r, r) for _ in range(d))

    points = [draw(radius) for _ in range(count)]
    step = radius // 4
    a, u, v = draw(step), draw(step), draw(step)
    for i, j in ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 2)):
        points.append(tuple(x + i * y + j * z for x, y, z in zip(a, u, v)))
    return points


@pytest.mark.parametrize("radius", [4, 10**6])
@pytest.mark.parametrize("ambient, count", [(1, 4), (2, 8), (3, 7), (4, 5), (5, 3)])
def test_facets_match_smith_kernel_reference(ambient, count, radius) -> None:
    rng = random.Random(1000 * ambient + radius)
    compared = 0
    for _ in range(5):
        points = _cloud_with_degenerate_subsets(rng, ambient, count, radius)
        poly = LatticePolytope(points)
        if poly.dim < ambient:
            continue
        distinct = sorted(set(points))
        facets = _reference_facets(distinct, ambient)
        assert poly.facets() == facets
        assert poly.vertices == _reference_vertices(distinct, facets, ambient)
        compared += 1
    assert compared >= 4


# -- hull from the vertices: dense inputs ------------------------------------


def _map_facets(facets, u) -> tuple:
    """Facets of the image under x -> x u: the normal goes to u^-1 n."""
    inv = unimodular_inverse(u)
    moved = (
        Facet(tuple(_dot(row, f.normal) for row in inv), f.offset) for f in facets
    )
    return tuple(sorted(moved, key=lambda f: (f.normal, f.offset)))


def _box(d: int, k: int) -> list:
    return list(itertools.product(range(-k, k + 1), repeat=d))


def _cross(d: int, k: int) -> list:
    return [p for p in _box(d, k) if sum(map(abs, p)) <= k]


def _simplex(d: int, k: int) -> list:
    return [p for p in itertools.product(range(k + 1), repeat=d) if sum(p) <= k]


def test_newton_simplex_from_all_its_lattice_points() -> None:
    newton = quintic_newton_polytope()
    fan = projective_space_fan_polytope()
    points = newton.lattice_points()
    assert len(points) == 126
    rng = random.Random(20261018)
    for u in ([[int(i == j) for j in range(4)] for i in range(4)], _random_unimodular(rng, 4)):
        moved = LatticePolytope(_map_points(points, u))
        assert moved == _transform(newton, u)
        assert moved.facets() == _map_facets(newton.facets(), u)
        inv_t = [list(col) for col in zip(*unimodular_inverse(u))]
        assert moved.polar_dual() == _transform(fan, inv_t)


# Every lattice point of each shape, so most points are not vertices and
# many lie on the boundary.  The shapes in dimensions 4 and 5 are the ones
# whose point count keeps the brute-force reference, which takes one Smith
# form per d-subset, within a few seconds (2.4 s for the 21 points of the
# 2-dilated 5-simplex).
_DENSE_SHAPES = {
    "cube-2": _box(2, 1),
    "cube-3": _box(3, 1),
    "cross-2x2": _cross(2, 2),
    "cross-3x2": _cross(3, 2),
    "cross-4": _cross(4, 1),
    "cross-5": _cross(5, 1),
    "simplex-2x3": _simplex(2, 3),
    "simplex-3x3": _simplex(3, 3),
    "simplex-4x2": _simplex(4, 2),
    "simplex-5x2": _simplex(5, 2),
}


@pytest.mark.parametrize("shape", sorted(_DENSE_SHAPES))
def test_hull_of_dense_point_sets_matches_reference(shape) -> None:
    points = sorted(_DENSE_SHAPES[shape])
    ambient = len(points[0])
    facets = _reference_facets(points, ambient)
    vertices = _reference_vertices(points, facets, ambient)
    assert len(vertices) < len(points)
    rng = random.Random(shape)
    for u in ([[int(i == j) for j in range(ambient)] for i in range(ambient)],
              _random_unimodular(rng, ambient),
              _random_unimodular(rng, ambient)):
        moved = _map_points(points, u)
        rng.shuffle(moved)
        poly = LatticePolytope(moved)
        assert poly.facets() == _map_facets(facets, u)
        assert poly.vertices == tuple(sorted(_map_points(vertices, u)))


def test_seed_grows_until_it_spans(monkeypatch) -> None:
    # The lexicographic extremes (0,0,0) and (2,0,0) and the point between
    # them are collinear, and the extremes along the first normal of that
    # line, (1, +-1, 0), stay in the plane z = 0: the seed grows twice.
    points = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)]
    calls = []
    kernel = toric.integer_kernel_basis

    def counted(rows):
        calls.append(len(rows))
        return kernel(rows)

    monkeypatch.setattr(toric, "integer_kernel_basis", counted)
    poly = LatticePolytope(points)
    assert calls[:3] == [2, 4, 6]
    facets = _reference_facets(sorted(points), 3)
    assert poly.facets() == facets
    assert poly.vertices == _reference_vertices(sorted(points), facets, 3)
    assert (1, 0, 0) not in poly.vertices


# -- polarity ----------------------------------------------------------------


def test_fan_and_newton_polytopes_are_polar() -> None:
    fan = projective_space_fan_polytope()
    newton = quintic_newton_polytope()
    assert fan.polar_dual() == newton
    assert newton.polar_dual() == fan


def test_polar_involution_in_two_dimensions() -> None:
    cross = LatticePolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    square = LatticePolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    assert cross.polar_dual() == square
    assert square.polar_dual() == cross
    assert cross.is_reflexive().is_reflexive
    assert set(cross.is_reflexive().dual_vertices) == set(square.vertices)


def test_polarity_commutes_with_lattice_symmetry(seed: int = 20260822) -> None:
    rng = random.Random(seed)
    fan = projective_space_fan_polytope()
    dual = fan.polar_dual()
    for _ in range(20):
        u = _random_unimodular(rng, 4)
        inv_t = [list(col) for col in zip(*unimodular_inverse(u))]
        left = _transform(fan, u).polar_dual()
        right = _transform(dual, inv_t)
        assert left == right


def test_non_reflexive_polytope_reported() -> None:
    stretched = LatticePolytope([(2, 0), (0, 2), (-2, -2)])
    report = stretched.is_reflexive()
    assert not report.is_reflexive
    with pytest.raises(NonReflexiveError):
        stretched.polar_dual()
    duals = stretched.polar_dual_rational()
    assert any(
        any(Fraction(c).denominator > 1 for c in vertex) for vertex in duals
    )


def test_polar_dual_requires_interior_origin() -> None:
    shifted = LatticePolytope([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(OriginNotInteriorError):
        shifted.polar_dual()


def test_reflexive_facets_at_unit_distance() -> None:
    for facet in projective_space_fan_polytope().facets():
        assert facet.offset == 1


# -- dimension counts --------------------------------------------------------


def test_moduli_dimension_values() -> None:
    assert moduli_dimension(126, 25) == 101
    assert moduli_dimension(6, 5) == 1


def test_moduli_dimension_guards() -> None:
    with pytest.raises(ValueError):
        moduli_dimension(25, 25)
    with pytest.raises(ValueError):
        moduli_dimension(0, 5)
