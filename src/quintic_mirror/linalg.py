"""Exact linear algebra: rational elimination, integer normal forms, matrices.

Three layers live here, all exact:

* Gaussian elimination over the rationals (rank, solve, inverse) on plain
  lists of rows,
* integer lattice routines: Smith normal form with unimodular transforms,
  Hermite row reduction, saturated kernel bases, and a deterministic sign
  normalization for kernel generators,
* :class:`SquareExactMatrix`, a small dense square matrix over any of the
  coefficient rings from :mod:`quintic_mirror.exactnum` (field operations
  such as rank and inverse require a field).

Sizes throughout the package are tiny (at most 6x6), so the simple cubic
algorithms are the right tool.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._frozen import frozen
from .exactnum import Ring


# ---------------------------------------------------------------------------
# rational elimination on plain rows
# ---------------------------------------------------------------------------


def _fraction_rows(rows) -> list:
    out = [[Fraction(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def rational_rank(rows) -> int:
    """Rank of a rectangular matrix with rational entries."""
    a = _fraction_rows(rows)
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = Fraction(1) / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def solve_rational(rows, rhs) -> tuple | None:
    """One rational solution of A x = b with free variables set to zero.

    Returns None when the system is inconsistent.  The free-variable
    convention makes the answer deterministic.
    """
    a = _fraction_rows(rows)
    b = [Fraction(x) for x in rhs]
    if len(a) != len(b):
        raise ValueError("right-hand side length does not match row count")
    if not a:
        return tuple()
    m, n = len(a), len(a[0])
    aug = [a[i] + [b[i]] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        pivot = next((i for i in range(row, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = Fraction(1) / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for i in range(m):
            if i != row and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
        pivots.append((row, col))
        row += 1
    for i in range(row, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return tuple(x)


def rational_inverse(rows) -> tuple:
    """Inverse of a square rational matrix, as tuple rows of Fractions."""
    a = _fraction_rows(rows)
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix is not square")
    aug = [a[i] + [Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(aug[i][n:]) for i in range(n))


# ---------------------------------------------------------------------------
# integer lattice routines
# ---------------------------------------------------------------------------


def integer_matrix(rows, allow_negative: bool = True) -> tuple:
    """The rows of an integer matrix as tuples of ints.

    Raises ValueError on a bool, a non-integral entry, a negative entry
    when ``allow_negative`` is false, or ragged rows.  Callers that
    eliminate in place copy the rows into lists.
    """
    out = []
    for row in rows:
        new = []
        for x in row:
            try:
                xi = int(x)
            except (TypeError, ValueError, OverflowError):
                xi = None
            if isinstance(x, bool) or xi is None or xi != x:
                raise ValueError(f"entry {x!r} is not an integer")
            if not allow_negative and xi < 0:
                raise ValueError(f"entry {xi} is negative")
            new.append(xi)
        out.append(tuple(new))
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return tuple(out)


def integer_matmul(a, b) -> tuple:
    """Product of two integer matrices as tuple rows."""
    a = integer_matrix(a)
    b = integer_matrix(b)
    if not a or not b:
        return tuple()
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    n = len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(n))
        for i in range(len(a))
    )


@frozen
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D a diagonal divisor chain."""

    u: tuple
    d: tuple
    v: tuple

    @property
    def divisors(self) -> tuple:
        """The nonzero diagonal entries d_1 | d_2 | ... of D."""
        out = []
        for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)):
            if self.d[i][i] != 0:
                out.append(self.d[i][i])
        return tuple(out)


def smith_normal_form(rows) -> SmithDecomposition:
    """Smith normal form over the integers with both transform matrices.

    Pivots are chosen by minimal absolute value and reduced by Euclidean
    steps; a final divisibility sweep enforces d_i | d_{i+1}.
    """
    a = [list(r) for r in integer_matrix(rows)]
    m = len(a)
    n = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # Locate a minimal-magnitude nonzero pivot in the working block.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            clean = True
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        clean = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        clean = False
            if clean:
                # Fold in any entry the pivot fails to divide, then re-clean.
                offender = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if a[i][j] % a[t][t] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(t, offender, 1)
                continue
            # Remainders became new small entries; bring the smallest to the pivot.
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            swap_rows(t, best[0])
            swap_cols(t, best[1])
        t += 1

    return SmithDecomposition(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in v),
    )


def integer_kernel_basis(rows) -> list:
    """Basis of {x : A x = 0} over the integers (a saturated sublattice).

    Columns of the Smith V matrix that hit zero diagonal entries form the
    basis; V being unimodular makes it primitive.
    """
    a = integer_matrix(rows)
    m = len(a)
    n = len(a[0]) if a else 0
    if n == 0:
        return []
    snf = smith_normal_form(a)
    basis = []
    for j in range(n):
        diag = snf.d[j][j] if j < m else 0
        if diag == 0:
            basis.append(tuple(snf.v[i][j] for i in range(n)))
    return basis


def integer_left_kernel_basis(rows) -> list:
    """Basis of {y : y A = 0}, via the kernel of the transpose."""
    a = integer_matrix(rows)
    transpose = [list(col) for col in zip(*a)] if a else []
    return integer_kernel_basis(transpose)


def hermite_rows(rows) -> list:
    """Row-style Hermite reduction: echelon rows, positive pivots,
    entries above each pivot reduced into [0, pivot)."""
    b = [list(r) for r in integer_matrix(rows) if any(r)]
    if not b:
        return []
    m, n = len(b), len(b[0])
    r = 0
    for col in range(n):
        if r >= m:
            break
        while True:
            nonzero = [i for i in range(r, m) if b[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(b[i][col]))
            b[r], b[i0] = b[i0], b[r]
            if b[r][col] < 0:
                b[r] = [-x for x in b[r]]
            done = True
            for i in range(r + 1, m):
                if b[i][col] != 0:
                    q = b[i][col] // b[r][col]
                    b[i] = [x - q * y for x, y in zip(b[i], b[r])]
                    if b[i][col] != 0:
                        done = False
            if done:
                break
        if b[r][col] != 0:
            for i in range(r):
                q = b[i][col] // b[r][col]
                if q != 0:
                    b[i] = [x - q * y for x, y in zip(b[i], b[r])]
            r += 1
    return [row for row in b if any(row)]


def canonical_sign(vec) -> tuple:
    """Pick between v and -v: fewer negative entries wins; on a tie the
    first nonzero entry is made positive."""
    v = tuple(int(x) for x in vec)
    negatives = sum(1 for x in v if x < 0)
    positives = sum(1 for x in v if x > 0)
    if negatives > positives:
        return tuple(-x for x in v)
    if negatives == positives:
        first = next((x for x in v if x != 0), 0)
        if first < 0:
            return tuple(-x for x in v)
    return v


def canonical_kernel_basis(rows) -> list:
    """Deterministic kernel basis: Smith kernel, Hermite-reduced, then
    sign-normalized row by row."""
    basis = integer_kernel_basis(rows)
    if not basis:
        return []
    return [canonical_sign(row) for row in hermite_rows(basis)]


def unimodular_inverse(rows) -> tuple:
    """Inverse of a unimodular integer matrix, as integer tuple rows."""
    inv = rational_inverse(rows)
    out = []
    for row in inv:
        new = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            new.append(x.numerator)
        out.append(tuple(new))
    return tuple(out)


def is_unimodular(rows) -> bool:
    try:
        unimodular_inverse(rows)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# dense square matrices over an exact coefficient ring
# ---------------------------------------------------------------------------


@frozen
class SquareExactMatrix:
    """A square matrix with entries in one of the exact coefficient rings.

    The convention throughout the package is that matrices act on row
    vectors, gamma -> gamma M, so products compose left to right.
    """

    field: Ring
    rows: tuple

    @staticmethod
    def from_rows(field: Ring, rows: Sequence[Sequence]) -> "SquareExactMatrix":
        coerced = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        n = len(coerced)
        if any(len(r) != n for r in coerced):
            raise ValueError("matrix is not square")
        return SquareExactMatrix(field, coerced)

    @staticmethod
    def identity(field: Ring, n: int) -> "SquareExactMatrix":
        return SquareExactMatrix(
            field,
            tuple(
                tuple(field.one() if i == j else field.zero() for j in range(n))
                for i in range(n)
            ),
        )

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def _check(self, other: "SquareExactMatrix") -> None:
        if self.field != other.field:
            raise ValueError(f"fields differ: {self.field} vs {other.field}")
        if self.size != other.size:
            raise ValueError(f"sizes differ: {self.size} vs {other.size}")

    def __add__(self, other: "SquareExactMatrix") -> "SquareExactMatrix":
        self._check(other)
        return SquareExactMatrix(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other: "SquareExactMatrix") -> "SquareExactMatrix":
        self._check(other)
        return SquareExactMatrix(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self) -> "SquareExactMatrix":
        return SquareExactMatrix(
            self.field, tuple(tuple(-a for a in row) for row in self.rows)
        )

    def scale(self, scalar) -> "SquareExactMatrix":
        s = self.field.coerce(scalar)
        return SquareExactMatrix(
            self.field, tuple(tuple(s * a for a in row) for row in self.rows)
        )

    def __mul__(self, other: "SquareExactMatrix") -> "SquareExactMatrix":
        if not isinstance(other, SquareExactMatrix):
            return self.scale(other)
        self._check(other)
        n = self.size
        zero = self.field.zero()
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(tuple(row))
        return SquareExactMatrix(self.field, tuple(out))

    def __rmul__(self, scalar) -> "SquareExactMatrix":
        return self.scale(scalar)

    def __pow__(self, k: int) -> "SquareExactMatrix":
        if k < 0:
            return self.inverse() ** (-k)
        result = SquareExactMatrix.identity(self.field, self.size)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def transpose(self) -> "SquareExactMatrix":
        return SquareExactMatrix(self.field, tuple(zip(*self.rows)))

    def is_identity(self) -> bool:
        return self == SquareExactMatrix.identity(self.field, self.size)

    def rank(self) -> int:
        """Rank by Gaussian elimination; the coefficient ring must be a field."""
        a = [list(row) for row in self.rows]
        n = self.size
        rank = 0
        col = 0
        while rank < n and col < n:
            pivot = next(
                (i for i in range(rank, n) if not self.field.is_zero(a[i][col])), None
            )
            if pivot is None:
                col += 1
                continue
            a[rank], a[pivot] = a[pivot], a[rank]
            inv = self.field.invert(a[rank][col])
            a[rank] = [inv * x for x in a[rank]]
            for i in range(n):
                if i != rank and not self.field.is_zero(a[i][col]):
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
            rank += 1
            col += 1
        return rank

    def det(self):
        """Determinant by elimination; the coefficient ring must be a field."""
        a = [list(row) for row in self.rows]
        n = self.size
        det = self.field.one()
        for col in range(n):
            pivot = next(
                (i for i in range(col, n) if not self.field.is_zero(a[i][col])), None
            )
            if pivot is None:
                return self.field.zero()
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det = det * a[col][col]
            inv = self.field.invert(a[col][col])
            for i in range(col + 1, n):
                if not self.field.is_zero(a[i][col]):
                    f = a[i][col] * inv
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
        return det

    def inverse(self) -> "SquareExactMatrix":
        """Inverse by augmented elimination; the ring must be a field."""
        n = self.size
        one, zero = self.field.one(), self.field.zero()
        aug = [
            list(self.rows[i]) + [one if i == j else zero for j in range(n)]
            for i in range(n)
        ]
        for col in range(n):
            pivot = next(
                (i for i in range(col, n) if not self.field.is_zero(aug[i][col])), None
            )
            if pivot is None:
                raise ValueError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = self.field.invert(aug[col][col])
            aug[col] = [inv * x for x in aug[col]]
            for i in range(n):
                if i != col and not self.field.is_zero(aug[i][col]):
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
        return SquareExactMatrix(
            self.field, tuple(tuple(aug[i][n:]) for i in range(n))
        )

    def to_json(self) -> list:
        return [[self.field.element_to_json(x) for x in row] for row in self.rows]
