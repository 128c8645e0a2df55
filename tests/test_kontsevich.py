from __future__ import annotations

import random
from fractions import Fraction

import pytest

from quintic_mirror.exactnum import QQ
from quintic_mirror.kontsevich import (
    chern_from_adjunction,
    euler_number,
    hyperplane,
    integrate,
    is_unipotent,
    jordan_profile,
    matrix_order,
    quintic_spherical,
    quintic_twist,
    twist_matrix,
)
from quintic_mirror.linalg import SquareExactMatrix
from quintic_mirror.picard_fuchs import monodromy_at_infinity, monodromy_at_zero
from quintic_mirror.syz import VertexData, mirror_swap
from quintic_mirror.toric import moduli_dimension


# -- cohomology arithmetic ---------------------------------------------------


def test_hyperplane_powers_truncate() -> None:
    lam = hyperplane()
    assert (lam * lam * lam).coeffs == (0, 0, 0, 1)
    assert (lam * (lam * lam * lam)).is_zero()
    assert hyperplane(4).is_zero()


def test_integration_picks_degree_five() -> None:
    lam = hyperplane()
    assert integrate(lam * lam * lam) == 5
    assert integrate(hyperplane(0)) == 0


def test_scalar_multiplication_both_sides() -> None:
    lam = hyperplane()
    assert (lam * 3).coeffs == (0, 3, 0, 0)
    assert (Fraction(1, 2) * lam).coeffs == (0, Fraction(1, 2), 0, 0)


# -- characteristic classes --------------------------------------------------


def test_chern_classes_of_the_hypersurface() -> None:
    classes = chern_from_adjunction()
    assert classes.c1.is_zero()
    assert classes.c2.coeffs == (0, 0, 10, 0)
    assert classes.c3.coeffs == (0, 0, 0, -40)


def test_euler_number_cross_checks() -> None:
    classes = chern_from_adjunction()
    chi = euler_number(classes)
    assert chi == -200
    assert chi == 2 * (1 - moduli_dimension(126, 25))


def test_todd_class_value() -> None:
    todd = chern_from_adjunction().todd
    assert todd.coeffs == (1, 0, Fraction(5, 6), 0)
    lam = hyperplane()
    assert integrate(lam * todd) == Fraction(25, 6)


def test_adjunction_guards() -> None:
    # the quintic is the one instance: a degree or dimension is refused
    with pytest.raises(TypeError):
        chern_from_adjunction(3, 4)
    with pytest.raises(TypeError):
        chern_from_adjunction(5, 3)


# -- the two transforms ------------------------------------------------------


def test_twist_matrix_rows() -> None:
    t = twist_matrix(1)
    assert t.entry(0, 0) == 1
    assert t.entry(0, 1) == 1
    assert t.entry(0, 2) == Fraction(1, 2)
    assert t.entry(0, 3) == Fraction(1, 6)
    assert t.entry(1, 2) == 1
    assert t.entry(2, 0) == 0


def test_twist_group_law(seed: int = 20260822) -> None:
    rng = random.Random(seed)
    for _ in range(30):
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        assert twist_matrix(a) * twist_matrix(b) == twist_matrix(a + b)
    assert twist_matrix(0).is_identity()
    assert (twist_matrix(3) * twist_matrix(-3)).is_identity()


def test_spherical_matrix_rows() -> None:
    s = quintic_spherical()
    assert [s.entry(0, j) for j in range(4)] == [1, 0, 0, 0]
    assert [s.entry(1, j) for j in range(4)] == [Fraction(-25, 6), 1, 0, 0]
    assert [s.entry(2, j) for j in range(4)] == [0, 0, 1, 0]
    assert [s.entry(3, j) for j in range(4)] == [-5, 0, 0, 1]


def test_product_power_five_is_identity() -> None:
    ts = quintic_twist() * quintic_spherical()
    assert (ts**5).is_identity()
    assert matrix_order(ts, 10) == 5
    assert [ts.entry(0, j) for j in range(4)] == [-4, 1, Fraction(1, 2), Fraction(1, 6)]
    assert [ts.entry(i, 0) for i in range(4)] == [-4, Fraction(-20, 3), -5, -5]


def test_matrix_order_sentinel() -> None:
    assert matrix_order(quintic_twist(), 12) is None
    assert matrix_order(SquareExactMatrix.identity(QQ, 4), 3) == 1
    with pytest.raises(ValueError):
        matrix_order(quintic_twist(), 0)


def test_matrix_order_of_a_unipotent_matrix_needs_no_powers(monkeypatch) -> None:
    # M != I with M - I nilpotent has infinite order over QQ: a few squarings
    # of M - I settle it, however large max_order is.
    products = []
    multiply = SquareExactMatrix.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(SquareExactMatrix, "__mul__", counted)
    assert matrix_order(twist_matrix(1), 10**4) is None
    assert len(products) <= 3


def test_jordan_profiles() -> None:
    assert jordan_profile(quintic_twist()) == (3, 2, 1, 0)
    assert jordan_profile(quintic_spherical()) == (1, 0, 0, 0)
    assert jordan_profile(SquareExactMatrix.identity(QQ, 4)) == (0, 0, 0, 0)


def test_is_unipotent_agrees_with_the_jordan_profile() -> None:
    # T, S and the syz shears are unipotent; T*S and the diagonal of fifth
    # roots of unity at infinity have finite order > 1, over QQ and QQ(zeta5)
    twist, spherical = quintic_twist(), quintic_spherical()
    shears = VertexData.from_rows_triple(
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, -1], [0, 1, -1], [0, 0, 1]],
    )
    cases = [
        twist,
        spherical,
        twist * spherical,
        monodromy_at_infinity().matrix,
        *shears.monodromies,
        *mirror_swap(shears).monodromies,
    ]
    verdicts = [is_unipotent(m) for m in cases]
    assert verdicts == [jordan_profile(m)[-1] == 0 for m in cases]
    assert verdicts == [True, True, False, False] + [True] * 6


def test_twist_matches_period_monodromy() -> None:
    assert monodromy_at_zero().matrix == twist_matrix(1)
