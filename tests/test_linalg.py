from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from quintic_mirror.exactnum import QQ, ZETA5_FIELD, CyclotomicElement
from quintic_mirror.linalg import (
    SquareExactMatrix,
    canonical_kernel_basis,
    canonical_sign,
    dot,
    gauss_jordan,
    integer_kernel_basis,
    integer_left_kernel_basis,
    integer_matmul,
    integer_matrix,
    rational_inverse,
    rational_rank,
    smith_normal_form,
    unimodular_inverse,
)


def _random_int_matrix(rng: random.Random, m: int, n: int) -> list:
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]


def _random_unimodular(rng: random.Random, n: int, steps: int = 12) -> list:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-3, 3)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return rows


# -- rational elimination ----------------------------------------------------


def test_rational_rank_cases() -> None:
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[0, 0]]) == 0


def test_rational_rank_is_the_pivot_count_of_gauss_jordan(seed: int = 39) -> None:
    # the Smith divisors of the rows cleared of denominators against the
    # pivots of an elimination over QQ, on Fraction entries, products of
    # thin factors (rank below both sizes), zero rows and no rows at all
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7, 12]))

    deficient = 0
    for trial in range(1200):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            k = rng.randint(1, 3)
            left = [[entry() for _ in range(k)] for _ in range(m)]
            right = [[entry() for _ in range(n)] for _ in range(k)]
            rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        else:
            rows = [[entry() if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(m)]
        if rows and trial % 4 == 0:
            rows[rng.randrange(m)] = [Fraction(0)] * n
        want = len(gauss_jordan(QQ, rows, n)[1])
        deficient += want < min(m, n)
        assert rational_rank(rows) == want, rows
    assert deficient > 200
    assert rational_rank([]) == 0
    assert rational_rank([[Fraction(1, 3), Fraction(1, 2)], [Fraction(2, 3), 1]]) == 1


def test_rational_inverse_round_trip() -> None:
    rows = [[1, 2], [3, 5]]
    inv = rational_inverse(rows)
    prod = [
        [sum(Fraction(rows[i][k]) * inv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]


@pytest.mark.parametrize("field", [QQ, ZETA5_FIELD], ids=str)
def test_gauss_jordan_properties(field, seed: int = 31) -> None:
    # Square matrices of size 1 to 5, every other one made singular by a
    # repeated row; entries are small rationals or elements of QQ(zeta_5).
    rng = random.Random(seed)

    def entry():
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if field == QQ:
            return q
        return CyclotomicElement((q,) + tuple(Fraction(rng.randint(-2, 2)) for _ in range(3)))

    for n in range(1, 6):
        for trial in range(4):
            a = [[entry() for _ in range(n)] for _ in range(n)]
            if trial % 2 and n > 1:
                a[rng.randrange(1, n)] = list(a[0])
            b = [[entry() for _ in range(n)] for _ in range(n)]
            ma = SquareExactMatrix.from_rows(field, a)
            mb = SquareExactMatrix.from_rows(field, b)
            det = gauss_jordan(field, ma.rows, n)[2]
            assert gauss_jordan(field, (ma * mb).rows, n)[2] == det * gauss_jordan(field, mb.rows, n)[2]
            assert gauss_jordan(field, a, n)[2] == det
            assert (ma.rank() == n) == bool(det)
            if trial % 2 and n > 1:
                assert not det
            if not det:
                with pytest.raises(ValueError):
                    ma.inverse()
            else:
                assert (ma * ma.inverse()).is_identity()


def _leibniz_det(a) -> int:
    """sum over permutations s of sign(s) a[0][s(0)] ... a[n-1][s(n-1)], the
    sign read from the inversions of s."""
    n = len(a)
    return sum(
        (-1) ** sum(s[i] > s[j] for i, j in itertools.combinations(range(n), 2))
        * math.prod(a[i][s[i]] for i in range(n))
        for s in itertools.permutations(range(n))
    )


def test_integer_det_matches_field_det(seed: int = 5) -> None:
    # the determinant the elimination returns, against the Leibniz sum
    rng = random.Random(seed)
    for n in range(1, 6):
        for _ in range(6):
            a = _random_int_matrix(rng, n, n)
            if n > 1 and rng.random() < 0.3:
                a[-1] = list(a[0])
            assert gauss_jordan(QQ, SquareExactMatrix.from_rows(QQ, a).rows, n)[2] == _leibniz_det(a)


def test_gauss_jordan_over_qq_is_exact_on_plain_int_rows() -> None:
    # the pivot's reciprocal is taken in the field, so int rows never go to floats
    rows, pivots, det = gauss_jordan(QQ, [[3, 1], [1, 1]], 2)
    assert (rows, pivots, det) == ([[1, 0], [0, 1]], [0, 1], 2)
    assert all(type(x) is Fraction for row in rows for x in row) and type(det) is Fraction
    big = gauss_jordan(QQ, [[10**20 + 1, 1], [1, 10**20]], 2)[2]
    assert big == 10**40 + 10**20 - 1 and type(big) is Fraction


# -- integer matrix validation -----------------------------------------------


def test_integer_matrix_accepts_integral_values_as_fresh_tuples() -> None:
    rows = [[1, Fraction(4, 2), 3.0], [-1, 0, 0]]
    out = integer_matrix(rows)
    assert out == ((1, 2, 3), (-1, 0, 0))
    assert all(type(x) is int for row in out for x in row)
    assert integer_matrix([]) == ()


@pytest.mark.parametrize(
    "entry", [True, False, 1.5, Fraction(1, 2), "1", None, float("inf"), float("nan")]
)
def test_integer_matrix_rejects_non_integers(entry) -> None:
    with pytest.raises(ValueError, match="is not an integer"):
        integer_matrix([[0, entry]])


def test_integer_matrix_sign_and_shape_checks() -> None:
    assert integer_matrix([[0, 2]], allow_negative=False) == ((0, 2),)
    with pytest.raises(ValueError, match="negative"):
        integer_matrix([[0, -2]], allow_negative=False)
    with pytest.raises(ValueError, match="ragged"):
        integer_matrix([[1, 2], [3]])


# -- Smith normal form -------------------------------------------------------


def test_smith_frozen_example() -> None:
    assert smith_normal_form([[2, 4], [6, 8]]).divisors == (2, 4)


# (name, A, D, V) as the Smith form gave them before its pivot search was
# merged into one loop.  The properties below hold for any valid V; this
# table pins the sequence of row and column operations itself.  The first
# two take the divisibility fold, which no command or benchmark round runs.
_SMITH_TABLE = [
    ("fold-2x2", [[2, 0], [0, 3]],
     ((1, 0), (0, 6)),
     ((-1, 3), (1, -2))),
    ("fold-diag", [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
     ((2, 0, 0), (0, 2, 0), (0, 0, 60)),
     ((-1, -3, 15), (1, 2, -10), (0, -1, 6))),
    ("negative-pivot", [[-2, 4, 6], [4, -6, 8]],
     ((2, 0, 0), (0, 2, 0)),
     ((1, 2, -17), (0, 1, -10), (0, 0, 1))),
    ("zero-rows-and-columns", [[0, 0, 0], [0, 5, 10], [0, 0, 0]],
     ((5, 0, 0), (0, 0, 0), (0, 0, 0)),
     ((0, 1, 0), (1, 0, -2), (0, 0, 1))),
    ("no-rows", [], (), ()),
    ("zero", [[0]], ((0,),), ((1,),)),
    ("row", [[6, 10, 15]],
     ((1, 0, 0),),
     ((1, -5, 5), (1, -3, 0), (-1, 4, -2))),
    ("column", [[4], [6]], ((2,), (0,)), ((1,),)),
    ("square", [[2, 4], [6, 8]], ((2, 0), (0, 4)), ((1, -2), (0, 1))),
    ("wide", [[3, -7, 0, 12], [5, 0, -9, 4], [-8, 6, 2, 0]],
     ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 16, 0)),
     ((0, -2, -3, 44), (0, -1, -3, 48), (1, -40, -11, 32), (0, 0, -1, 17))),
    # the quintic's charge matrix T and its transpose mirror T-hat
    ("quintic-T",
     [[1, 0, 0, 0, 0, 5], [0, 1, 0, 0, 0, -1], [0, 0, 1, 0, 0, -1], [0, 0, 0, 1, 0, -1],
      [0, 0, 0, 0, 1, -1]],
     ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
      (0, 0, 0, 0, 1, 0)),
     ((1, 0, 0, 0, 0, -5), (0, 1, 0, 0, 0, 1), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 1),
      (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 1))),
    ("quintic-T-hat",
     [[1, 1, 1, 1, 1, 1], [1, 5, 0, 0, 0, 0], [1, 0, 5, 0, 0, 0], [1, 0, 0, 5, 0, 0],
      [1, 0, 0, 0, 5, 0]],
     ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 5, 0, 0, 0), (0, 0, 0, 5, 0, 0),
      (0, 0, 0, 0, 5, 0)),
     ((1, -1, 0, 0, -5, -5), (0, 0, 0, 0, 1, 1), (0, 1, -1, 0, 1, 1), (0, 0, 1, -1, 1, 1),
      (0, 0, 0, 1, 2, 1), (0, 0, 0, 0, 0, 1))),
]


@pytest.mark.parametrize("rows, d, v", [case[1:] for case in _SMITH_TABLE],
                         ids=[case[0] for case in _SMITH_TABLE])
def test_smith_gives_the_frozen_d_and_v(rows, d, v) -> None:
    dec = smith_normal_form(rows)
    assert (dec.d, dec.v) == (d, v)


def _minor_gcd(a, k: int) -> int:
    """gcd of all k x k minors of a."""
    rows, cols = range(len(a)), range(len(a[0]))
    return math.gcd(
        *(
            int(gauss_jordan(QQ, [[Fraction(a[i][j]) for j in cs] for i in rs], k)[2])
            for rs in itertools.combinations(rows, k)
            for cs in itertools.combinations(cols, k)
        )
    )


def test_smith_decomposition_properties(seed: int = 20260822) -> None:
    # What callers read: the divisors (d_1 ... d_k is the gcd of the k x k
    # minors) and a unimodular V whose columns past the divisors span the
    # kernel, A V having column j divisible by d_j.
    rng = random.Random(seed)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = _random_int_matrix(rng, m, n)
        dec = smith_normal_form(a)
        unimodular_inverse(dec.v)  # raises ValueError unless unimodular
        divisors = dec.divisors
        for i in range(m):
            for j in range(n):
                expected = divisors[i] if i == j and i < len(divisors) else 0
                assert dec.d[i][j] == expected
        for k in range(1, min(m, n) + 1):
            want = math.prod(divisors[:k]) if k <= len(divisors) else 0
            assert _minor_gcd(a, k) == want
        av = integer_matmul(a, dec.v)
        for j in range(n):
            column = [row[j] for row in av]
            if j < len(divisors):
                assert all(x % divisors[j] == 0 for x in column)
            else:
                assert not any(column)
        for d, e in zip(divisors, divisors[1:]):
            assert d >= 0
            if d:
                assert e % d == 0
            else:
                assert e == 0


def test_integer_kernel_is_saturated() -> None:
    basis = integer_kernel_basis([[2, 2]])
    assert len(basis) == 1
    assert tuple(map(abs, basis[0])) == (1, 1)


def test_left_kernel_matches_transposed_kernel() -> None:
    rows = [[1, 0], [0, 1], [1, 1]]
    left = integer_left_kernel_basis(rows)
    assert len(left) == 1
    v = left[0]
    assert [sum(v[i] * rows[i][j] for i in range(3)) for j in range(2)] == [0, 0]


def test_canonical_sign_rules() -> None:
    assert canonical_sign((-1, 1)) == (1, -1)
    assert canonical_sign((-2, -3, 1)) == (2, 3, -1)
    assert canonical_sign((-5, 1, 1, 1, 1, 1)) == (-5, 1, 1, 1, 1, 1)
    assert canonical_sign((0, 0)) == (0, 0)


def test_canonical_kernel_basis_is_deterministic() -> None:
    first = canonical_kernel_basis([[1, 1, 1]])
    second = canonical_kernel_basis([[1, 1, 1]])
    assert first == second
    assert len(first) == 2
    for v in first:
        assert sum(v) == 0


def test_canonical_kernel_basis_depends_only_on_the_kernel(seed: int = 41) -> None:
    # Negating rows, permuting them and unimodular row operations keep the
    # kernel.  At corank 1 it has one primitive generator up to sign, and the
    # basis must not depend on how the rows are written: glsm's invariant
    # coordinates rely on that.  At corank >= 2 the basis is deterministic,
    # of the right rank and saturated (its Smith divisors are all 1).
    rng = random.Random(seed)
    coranks = []
    for trial in range(80):
        n = rng.randint(2, 6)
        corank = 1 if trial % 2 or n == 2 else rng.randint(2, n - 1)
        base = _random_int_matrix(rng, n - corank, n)
        if rational_rank(base) < n - corank:
            continue
        # rows past the rank: integer combinations of the base rows
        combos = _random_int_matrix(rng, rng.randint(0, 2), n - corank)
        a = base + [[dot(c, col) for col in zip(*base)] for c in combos]
        basis = canonical_kernel_basis(a)
        assert basis == canonical_kernel_basis([list(row) for row in a])
        assert len(basis) == corank
        assert all(dot(row, v) == 0 for row in a for v in basis)
        assert smith_normal_form(basis).divisors == (1,) * corank
        coranks.append(corank)
        if corank > 1:
            continue
        negated = [[-x for x in row] if rng.random() < 0.5 else row for row in a]
        permuted = rng.sample(a, len(a))
        moved = integer_matmul(_random_unimodular(rng, len(a)), a)
        mixed = integer_matmul(_random_unimodular(rng, len(a)), rng.sample(negated, len(a)))
        for rows in (negated, permuted, moved, mixed):
            assert canonical_kernel_basis(rows) == basis
    assert coranks.count(1) >= 30 and len(coranks) - coranks.count(1) >= 15


def test_integer_matmul_with_no_inner_rows() -> None:
    # an m x 0 matrix times no rows is m empty rows; a matrix with columns
    # times no rows is a shape error, and no rows times anything is none
    assert integer_matmul([[], []], []) == ((), ())
    assert integer_matmul([], [[1, 2]]) == ()
    with pytest.raises(ValueError, match="^inner dimensions do not match$"):
        integer_matmul([[1, 2]], [])


def test_unimodular_inverse_round_trip(seed: int = 9) -> None:
    rng = random.Random(seed)
    for _ in range(20):
        u = _random_unimodular(rng, rng.randint(2, 4))
        inv = unimodular_inverse(u)
        n = len(u)
        prod = integer_matmul(u, inv)
        assert prod == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )


def test_unimodular_inverse_rejects_non_unimodular() -> None:
    with pytest.raises(ValueError):
        unimodular_inverse([[2, 0], [0, 1]])


# -- dense exact matrices ----------------------------------------------------


def test_square_matrix_det_rank_inverse() -> None:
    m = SquareExactMatrix.from_rows(QQ, [[1, 2], [3, 5]])
    assert gauss_jordan(QQ, m.rows, 2)[2] == -1
    assert m.rank() == 2
    assert (m * m.inverse()).is_identity()
    singular = SquareExactMatrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert singular.rank() == 1
    with pytest.raises(ValueError):
        singular.inverse()


def test_square_matrix_powers() -> None:
    m = SquareExactMatrix.from_rows(QQ, [[1, 1], [0, 1]])
    assert (m**3).entry(0, 1) == 3
    assert (m**0).is_identity()


def test_square_matrix_over_cyclotomic_field() -> None:
    z = ZETA5_FIELD.zeta()
    m = SquareExactMatrix.from_rows(
        ZETA5_FIELD, [[z, ZETA5_FIELD.zero()], [ZETA5_FIELD.zero(), z**2]]
    )
    inv = m.inverse()
    assert (m * inv).is_identity()
    assert inv.entry(0, 0).coeffs == (z**4).coeffs
    assert gauss_jordan(ZETA5_FIELD, m.rows, 2)[2].coeffs == (z**3).coeffs
