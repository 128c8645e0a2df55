from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from quintic_mirror import cli, syz
from quintic_mirror.exactnum import QQ, ZETA5_FIELD
from quintic_mirror.kontsevich import chern_from_adjunction, euler_number, is_unipotent
from quintic_mirror.linalg import (
    SquareExactMatrix,
    integer_kernel_basis,
    rational_rank,
)
from quintic_mirror.syz import (
    VERTEX_TYPE_12,
    VERTEX_TYPE_21,
    VERTEX_TYPE_OTHER,
    ProductConditionError,
    UnipotentMonodromy3,
    VertexData,
    classify_profile,
    classify_vertex,
    fixed_space_profile,
    k3_semistable_check,
    mirror_swap,
    quintic_face_data,
    quintic_fibration_summary,
    quintic_graph_counts,
    sl2_mirror_selfconjugacy,
)

_SHEAR_TRIPLE = (
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    [[1, 0, -1], [0, 1, -1], [0, 0, 1]],
)


def _rank_one_triple(rng: random.Random) -> VertexData:
    """Three shears I + a_i b^t sharing b, with a_1 + a_2 + a_3 = 0."""
    while True:
        b = tuple(rng.randint(-4, 4) for _ in range(3))
        if any(b):
            break
    u, v = integer_kernel_basis([list(b)])
    while True:
        x1, y1, x2, y2 = (rng.randint(-3, 3) for _ in range(4))
        if x1 * y2 - x2 * y1 != 0:
            break
    a1 = tuple(x1 * p + y1 * q for p, q in zip(u, v))
    a2 = tuple(x2 * p + y2 * q for p, q in zip(u, v))
    a3 = tuple(-p - q for p, q in zip(a1, a2))
    mats = []
    for a in (a1, a2, a3):
        rows = [
            [(1 if i == j else 0) + a[i] * b[j] for j in range(3)] for i in range(3)
        ]
        mats.append(rows)
    return VertexData.from_rows_triple(*mats)


def _random_unimodular(rng: random.Random) -> list:
    rows = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(8):
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


def _conjugate(v: VertexData, u_rows: list) -> VertexData:
    u = UnipotentMonodromy3.from_rows(u_rows)
    u_inv = u.inverse()
    return VertexData(tuple(u_inv * m * u for m in v.monodromies))


# -- single matrices ---------------------------------------------------------


def test_matrix_validation() -> None:
    with pytest.raises(ValueError):
        UnipotentMonodromy3.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    with pytest.raises(ValueError):
        UnipotentMonodromy3.from_rows([[1, 0], [0, 1]])


def test_inverse_transpose_involution() -> None:
    m = UnipotentMonodromy3.from_rows(_SHEAR_TRIPLE[0])
    assert syz._inverse_transpose(syz._inverse_transpose(m)) == m
    assert (m * m.inverse()).is_identity()


# -- vertex validation -------------------------------------------------------


def test_vertex_requires_identity_product() -> None:
    bad = (
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    with pytest.raises(ProductConditionError):
        VertexData.from_rows_triple(*bad)


def test_vertex_requires_unipotency() -> None:
    rotation = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    inverse = [[0, 1, 0], [-1, 0, 0], [0, 0, 1]]
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError):
        VertexData.from_rows_triple(rotation, inverse, identity)


@pytest.mark.parametrize(
    "field, rows",
    [
        (QQ, [[1, 0, Fraction(1, 2)], [0, 1, 0], [0, 0, 1]]),
        (ZETA5_FIELD, [[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
        (QQ, [[1, 1], [0, 1]]),
    ],
    ids=["half-integral", "over-QQ(zeta5)", "2x2"],
)
def test_vertex_requires_integral_3x3_matrices_over_qq(field, rows) -> None:
    # a shear, its inverse and the identity: the product is the identity and
    # each is unipotent, so only the entry check can refuse the triple
    m = SquareExactMatrix.from_rows(field, rows)
    triple = (m, m.inverse(), SquareExactMatrix.identity(field, m.size))
    assert (triple[0] * triple[1] * triple[2]).is_identity()
    assert all(map(is_unipotent, triple))
    with pytest.raises(ValueError, match="^need an ordered triple of 3x3 integer matrices over QQ$"):
        VertexData(triple)


# -- classification ----------------------------------------------------------


def test_shear_example_classifies_positive() -> None:
    v = VertexData.from_rows_triple(*_SHEAR_TRIPLE)
    assert fixed_space_profile(v) == (2, 1)
    assert classify_vertex(v) == VERTEX_TYPE_21


def test_swapped_example_classifies_negative() -> None:
    v = mirror_swap(VertexData.from_rows_triple(*_SHEAR_TRIPLE))
    assert fixed_space_profile(v) == (1, 2)
    assert classify_vertex(v) == VERTEX_TYPE_12


def test_identity_vertex_is_other() -> None:
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    v = VertexData.from_rows_triple(identity, identity, identity)
    assert fixed_space_profile(v) == (3, 3)
    assert classify_vertex(v) == VERTEX_TYPE_OTHER


def test_classify_profile_names_the_two_generic_types() -> None:
    assert classify_profile((2, 1)) == VERTEX_TYPE_21
    assert classify_profile((1, 2)) == VERTEX_TYPE_12
    assert [classify_profile(p) for p in ((3, 3), (1, 1), (2, 2))] == [VERTEX_TYPE_OTHER] * 3


def test_classify_command_takes_one_profile_and_no_inverse(monkeypatch, capsys, tmp_path) -> None:
    # d2 comes from the transposed M - I blocks, and the command hands its
    # one profile to classify_profile
    calls = {"profile": 0, "inverse": 0}
    profile, inverse = syz.fixed_space_profile, SquareExactMatrix.inverse

    def counted_profile(v):
        calls["profile"] += 1
        return profile(v)

    def counted_inverse(m):
        calls["inverse"] += 1
        return inverse(m)

    monkeypatch.setattr(syz, "fixed_space_profile", counted_profile)
    monkeypatch.setattr(SquareExactMatrix, "inverse", counted_inverse)
    path = tmp_path / "vertex.json"
    path.write_text(json.dumps({"monodromies": _SHEAR_TRIPLE}), encoding="utf-8")
    assert cli.main(["syz", "classify", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["fixed-space profile: d1=2 d2=1", "vertex type: type21"]
    assert calls == {"profile": 1, "inverse": 0}


def test_profile_without_inverses_matches_the_inverse_transposes(seed: int = 30) -> None:
    # d2 read from the transposes equals the fixed dimension of the
    # inverse-transpose triple itself, on shear vertices and their mirrors
    rng = random.Random(seed)
    for _ in range(20):
        vertex = _conjugate(_rank_one_triple(rng), _random_unimodular(rng))
        for v in (vertex, mirror_swap(vertex)):
            mirror = [row for m in mirror_swap(v).monodromies
                      for row in (m - SquareExactMatrix.identity(QQ, 3)).rows]
            assert fixed_space_profile(v)[1] == 3 - rational_rank(mirror)


def test_mirror_swap_is_an_involution() -> None:
    v = VertexData.from_rows_triple(*_SHEAR_TRIPLE)
    assert mirror_swap(mirror_swap(v)) == v


def test_classification_commutes_with_swap_on_corpus(seed: int = 20260822) -> None:
    rng = random.Random(seed)
    swap = {VERTEX_TYPE_21: VERTEX_TYPE_12, VERTEX_TYPE_12: VERTEX_TYPE_21}
    seen_21 = 0
    seen_12 = 0
    for _ in range(110):
        vertex = _conjugate(_rank_one_triple(rng), _random_unimodular(rng))
        label = classify_vertex(vertex)
        assert label == VERTEX_TYPE_21
        seen_21 += 1
        mirrored = mirror_swap(vertex)
        assert classify_vertex(mirrored) == swap[label]
        seen_12 += 1
        for m in mirrored.monodromies:
            assert is_unipotent(m)
    assert seen_21 >= 100
    assert seen_12 >= 100


def test_corpus_matrices_have_rank_one_logs(seed: int = 4) -> None:
    rng = random.Random(seed)
    for _ in range(10):
        vertex = _rank_one_triple(rng)
        for m in vertex.monodromies:
            n = (m - SquareExactMatrix.identity(QQ, 3)).rows
            assert rational_rank(n) == 1


# -- quintic counts ----------------------------------------------------------


def test_quintic_counts_from_frozen_face_data() -> None:
    summary = quintic_graph_counts([25] * 10, [1] * 10, [5] * 10, [1] * 10)
    assert (summary.v21, summary.v12, summary.edges) == (250, 50, 450)


def test_quintic_face_data_recomputes_the_lists() -> None:
    two_faces, dual_edges, edges, dual_faces = quintic_face_data()
    assert sorted(two_faces) == [25] * 10
    assert sorted(dual_edges) == [1] * 10
    assert sorted(edges) == [5] * 10
    assert sorted(dual_faces) == [1] * 10


def test_quintic_summary_matches_euler_number() -> None:
    summary = quintic_fibration_summary()
    assert (summary.v21, summary.v12, summary.edges) == (250, 50, 450)
    chi = euler_number(chern_from_adjunction())
    assert summary.v21 - summary.v12 == -chi


def test_face_counts_are_the_smith_divisor_products(seed: int = 26) -> None:
    # The unit triangles of the triangle a, a + u, a + v number the gcd of
    # the 2x2 minors of (u, v), and the lattice steps of the edge a, a + u
    # number the gcd of u; _lattice_volume takes both as products of Smith
    # divisors.  Every fifth v is a multiple of u and every fiftieth u is
    # zero, so the rank drops to 1 or 0 and it must refuse.
    rng = random.Random(seed)
    degenerate = 0
    for trial in range(1000):
        d = 2 + trial % 4
        u = [0] * d if trial % 50 == 0 else [rng.randint(-6, 6) for _ in range(d)]
        if trial % 5 == 0:
            k = rng.randint(-2, 2)
            v = [k * x for x in u]
        else:
            v = [rng.randint(-6, 6) for _ in range(d)]
        a = [rng.randint(-9, 9) for _ in range(d)]
        b, c = ([x + y for x, y in zip(a, w)] for w in (u, v))
        minors = gcd(*(u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(d), 2)))
        if minors == 0:
            degenerate += 1
            with pytest.raises(ValueError, match="^points do not span a simplex$"):
                syz._lattice_volume((a, b, c))
        else:
            assert syz._lattice_volume((a, b, c)) == minors
        if any(u):
            assert syz._lattice_volume((a, b)) == gcd(*u)
        else:
            with pytest.raises(ValueError, match="^points do not span a simplex$"):
                syz._lattice_volume((a, b))
    assert degenerate >= 200


def test_graph_counts_guards() -> None:
    assert quintic_graph_counts([], [], [], []).edges == 0
    with pytest.raises(ValueError):
        quintic_graph_counts([1], [], [], [])
    with pytest.raises(ValueError):
        quintic_graph_counts([1], [1], [], [])


def test_graph_counts_json(capsys) -> None:
    # the summary's document is the one the syz quintic-counts command writes
    summary = quintic_fibration_summary()
    assert cli.main(["syz", "quintic-counts", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)["summary"]
    assert doc == {"v21": summary.v21, "v12": summary.v12, "edges": summary.edges}
    assert doc == {"v21": 250, "v12": 50, "edges": 450}


# -- K3 and two-dimensional checks ------------------------------------------


def test_k3_multiplicity_sum() -> None:
    assert k3_semistable_check([1] * 24)
    assert k3_semistable_check([12, 12])
    assert not k3_semistable_check([1] * 23)
    assert not k3_semistable_check([25])


def test_k3_rejects_bad_multiplicities() -> None:
    with pytest.raises(ValueError):
        k3_semistable_check([0, 24])
    with pytest.raises(ValueError):
        k3_semistable_check([-1, 25])


def test_sl2_self_conjugacy_witnesses() -> None:
    assert sl2_mirror_selfconjugacy(0) == ((1, 0), (0, 1))
    for k in range(1, 11):
        assert sl2_mirror_selfconjugacy(k) == ((0, -1), (1, 0))


def test_k3_rejects_boolean_multiplicities() -> None:
    with pytest.raises(ValueError):
        k3_semistable_check([True] * 24)
    with pytest.raises(ValueError):
        k3_semistable_check([False, 24])
