from __future__ import annotations

import math
import random

import pytest

from quintic_mirror.glsm import (
    AbelianGroupStructure,
    ChargeFactorization,
    ExponentMatrix,
    FactorizationError,
    basis_change,
    group_from_charges,
    invariant_coordinates,
    kahler_parameter,
    transpose_mirror,
    verify_factorization,
)
from quintic_mirror.linalg import smith_normal_form


def _random_unimodular(rng: random.Random, n: int, steps: int = 8) -> list:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


# -- the displayed factorization --------------------------------------------


def test_quintic_factorization_verifies() -> None:
    p = ExponentMatrix.quintic()
    f = ChargeFactorization.quintic()
    report = verify_factorization(p, f)
    assert report.ok
    assert report.product_ok
    assert report.rank_ok
    assert report.rank == 5
    assert report.inner_dim == 5
    assert not report.mismatches


def test_quintic_product_reproduces_exponents() -> None:
    p = ExponentMatrix.quintic()
    f = ChargeFactorization.quintic()
    assert f.product() == p.rows


def test_tampered_factorization_is_caught() -> None:
    f = ChargeFactorization.quintic()
    rows = [list(r) for r in f.t_rows]
    rows[0][0] += 1
    broken = ChargeFactorization.from_rows(f.s_rows, rows)
    report = verify_factorization(ExponentMatrix.quintic(), broken)
    assert not report.ok
    assert report.mismatches
    with pytest.raises(FactorizationError):
        transpose_mirror(ExponentMatrix.quintic(), broken)


# -- group structure ---------------------------------------------------------


def test_quintic_group_is_circle() -> None:
    f = ChargeFactorization.quintic()
    structure, generators = group_from_charges(f.t_rows)
    assert structure.torus_rank == 1
    assert structure.torsion == ()
    assert structure.describe() == "U(1)"
    assert generators == [(-5, 1, 1, 1, 1, 1)]


def test_mirror_group_gains_torsion() -> None:
    p = ExponentMatrix.quintic()
    f = ChargeFactorization.quintic()
    p_hat, f_hat = transpose_mirror(p, f)
    assert p_hat.rows == p.transpose().rows
    structure, generators = group_from_charges(f_hat.t_rows)
    assert structure.torus_rank == 1
    assert structure.torsion == (5, 5, 5)
    assert structure.describe() == "U(1) x (Z_5)^3"
    assert generators == [(-5, 1, 1, 1, 1, 1)]


def test_mirror_torsion_matches_smith_divisors() -> None:
    f_hat = transpose_mirror(ExponentMatrix.quintic(), ChargeFactorization.quintic())[1]
    divisors = smith_normal_form(f_hat.t_rows).divisors
    assert divisors == (1, 1, 5, 5, 5)


def test_group_description_spellings() -> None:
    assert AbelianGroupStructure(0, (2,)).describe() == "Z_2"
    assert AbelianGroupStructure(2, ()).describe() == "U(1)^2"
    assert AbelianGroupStructure(0, ()).describe() == "trivial"


# -- stability under basis changes ------------------------------------------


def test_group_invariant_under_row_basis_change(seed: int = 20260822) -> None:
    rng = random.Random(seed)
    p = ExponentMatrix.quintic()
    f = ChargeFactorization.quintic()
    base_structure = group_from_charges(f.t_rows)[0]
    for _ in range(100):
        l_rows = _random_unimodular(rng, 5)
        changed = basis_change(f, l_rows)
        report = verify_factorization(p, changed)
        assert report.ok
        structure = group_from_charges(changed.t_rows)[0]
        assert structure.torus_rank == base_structure.torus_rank
        assert structure.torsion == base_structure.torsion


def test_basis_change_rejects_non_unimodular() -> None:
    f = ChargeFactorization.quintic()
    scaled = [[2 if i == j else 0 for j in range(5)] for i in range(5)]
    with pytest.raises(ValueError):
        basis_change(f, scaled)


# -- invariant coordinates ---------------------------------------------------


def test_quintic_invariant_exponents() -> None:
    assert invariant_coordinates(ExponentMatrix.quintic()) == [(-5, 1, 1, 1, 1, 1)]


def test_invariant_of_repeated_single_column() -> None:
    p = ExponentMatrix.from_rows([[1], [1]])
    assert invariant_coordinates(p) == [(1, -1)]


def test_invariant_of_invertible_matrix_is_empty() -> None:
    p = ExponentMatrix.from_rows([[1, 0], [0, 1]])
    assert invariant_coordinates(p) == []


# -- the one floating-point surface -----------------------------------------


def test_kahler_parameter_of_unit_charges() -> None:
    r = kahler_parameter([math.exp(-2 * math.pi), 1.0], [[1, 0], [0, 1]])
    assert r[0] == pytest.approx(1.0, rel=1e-12)
    assert r[1] == pytest.approx(0.0, abs=1e-12)


def test_kahler_parameter_gauge_shift() -> None:
    base = kahler_parameter([1.0, 1.0], [[1], [1]])
    shifted = kahler_parameter([math.exp(-2 * math.pi * 3), 1.0], [[1], [1]])
    assert shifted[0] - base[0] == pytest.approx(3.0, rel=1e-9)


def test_kahler_parameter_guards() -> None:
    with pytest.raises(ValueError):
        kahler_parameter([0.0], [[1, 0]])
    with pytest.raises(ValueError):
        kahler_parameter([1.0, 1.0], [[1, 0]])
    with pytest.raises(ValueError):
        kahler_parameter([], [])


def test_kahler_parameter_rejects_non_finite_magnitudes() -> None:
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            kahler_parameter([bad, 1.0], [[1, 0], [0, 1]])


def test_kahler_parameter_rejects_a_non_finite_result() -> None:
    # each term -log|c|/(2 pi) chi overflows a float: inf - inf, then inf
    for magnitudes, charges in (
        ([1e-300, 1e300], [[10**307], [10**307]]),
        ([1e-300], [[10**307]]),
    ):
        with pytest.raises(ValueError, match="overflows a float"):
            kahler_parameter(magnitudes, charges)
    assert kahler_parameter([1e-300], [[10**300]])[0] > 1e300


def test_kahler_parameter_rejects_non_integer_charges() -> None:
    for bad in (1.5, True, False):
        with pytest.raises(ValueError):
            kahler_parameter([0.5, 2.0], [[bad, 0], [0, 1]])
