"""Exact linear algebra: rational elimination, integer normal forms, matrices.

Three layers live here, all exact:

* one Gauss-Jordan elimination over a field descriptor, behind rank and
  inverse on plain lists of rational rows and behind rank and inverse of
  :class:`SquareExactMatrix`,
* integer lattice routines: the product and dot product of integer
  matrices, Smith normal form with its unimodular column transform (one
  reduction loop with one pivot search, each column move applied to A and
  V at once), saturated kernel bases, and a deterministic sign
  normalization for kernel generators; a determinant is the third result
  of the elimination,
* :class:`SquareExactMatrix`, a small dense square matrix over any of the
  coefficient rings from :mod:`quintic_mirror.exactnum` (field operations
  such as rank and inverse require a field).

Sizes throughout the package are tiny (at most 6x6), so the simple cubic
algorithms are the right tool.
"""

from __future__ import annotations

import operator
import reprlib

from ._frozen import frozen
from .exactnum import QQ, Ring, fraction, power


# ---------------------------------------------------------------------------
# rational elimination on plain rows
# ---------------------------------------------------------------------------


def _fraction_rows(rows) -> list:
    out = [[fraction(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def gauss_jordan(field: Ring, rows, width: int) -> tuple:
    """Gauss-Jordan elimination over a field, pivoting in the first `width` columns.

    Returns (reduced rows, pivot columns, det).  The rows come back as lists
    in reduced row echelon form; the columns past `width` (an augmented
    right-hand side) are carried along.  det is the determinant of the
    first `width` columns when there are `width` rows, and zero whenever a
    column has no pivot.
    """
    a = [list(row) for row in rows]
    pivots = []
    det = one = field.one()  # the pivot's reciprocal is one / pivot, exact on ints too
    for col in range(width):
        r = len(pivots)
        if r == len(a):
            break
        pivot = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            det = -det
        det = det * a[r][col]
        inv = one / a[r][col]
        a[r] = [inv * x for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[col]:
                f = row[col]
                a[i] = [x - f * y for x, y in zip(row, a[r])]
        pivots.append(col)
    if len(pivots) < width:
        det = field.zero()
    return a, pivots, det


def rational_rank(rows) -> int:
    """Rank of a rectangular matrix with rational entries."""
    a = _fraction_rows(rows)
    return len(gauss_jordan(QQ, a, len(a[0]))[1]) if a else 0


def rational_inverse(rows) -> tuple:
    """Inverse of a square rational matrix, as tuple rows of Fractions."""
    a = _fraction_rows(rows)
    if any(len(r) != len(a) for r in a):
        raise ValueError("matrix is not square")
    return SquareExactMatrix(QQ, tuple(map(tuple, a))).inverse().rows


# ---------------------------------------------------------------------------
# integer lattice routines
# ---------------------------------------------------------------------------


def short_repr(x) -> str:
    """repr of x in at most 40 characters, a cut marked by ...; reprlib
    elides long strings and deep nesting without rendering them whole."""
    text = reprlib.repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


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
                raise ValueError(f"entry {short_repr(x)} is not an integer")
            if not allow_negative and xi < 0:
                raise ValueError(f"entry {xi} is negative")
            new.append(xi)
        out.append(tuple(new))
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return tuple(out)


def dot(a, b):
    """Sum of the products of matching entries.  The hull's inner loop runs
    on this, so it stays a single map over the two sequences."""
    return sum(map(operator.mul, a, b))


def integer_matmul(a, b) -> tuple:
    """Product of two integer matrices as tuple rows."""
    a = integer_matrix(a)
    b = integer_matrix(b)
    if not a or not b:
        return tuple()
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


@frozen
class SmithDecomposition:
    """U * A * V = D for some unimodular U, with V unimodular and D a
    diagonal divisor chain; U itself is not kept."""

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

    @property
    def kernel(self) -> list:
        """The columns of V at zero diagonal entries of D: a basis of
        {x : A x = 0} over the integers, saturated because V is unimodular."""
        return [col for j, col in enumerate(zip(*self.v)) if j >= len(self.d) or self.d[j][j] == 0]


def smith_normal_form(rows) -> SmithDecomposition:
    """Smith normal form over the integers with the column transform V.

    Each round brings the nonzero entry of least magnitude in the working
    block (the first in row order) to the pivot (t, t), makes it positive
    and clears column and row t by Euclidean steps.  A remainder sends the
    next round back to the search.  Once both are clear, a row holding an
    entry the pivot fails to divide is added to row t and the same pivot
    reduces again, which enforces d_t | d_{t+1}.  V is kept as rows m..
    of the working list, so every column move acts on A and V together.
    """
    a = [list(r) for r in integer_matrix(rows)]
    m, n = len(a), (len(a[0]) if a else 0)
    a += [[int(i == j) for j in range(n)] for i in range(n)]
    t, search = 0, True
    while t < min(m, n):
        if search:
            size = 0
            for r in range(t, m):
                row = a[r]
                for c in range(t, n):
                    if (x := abs(row[c])) and (x < size or not size):
                        size, i, j = x, r, c
            if not size:
                break
            a[t], a[i] = a[i], a[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        pivot = a[t][t]
        for i in range(t + 1, m):
            if q := a[i][t] // pivot:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, n):
            if q := a[t][j] // pivot:
                for row in a:
                    row[j] -= q * row[t]
        search = any(a[i][t] for i in range(t + 1, m)) or any(a[t][t + 1:])
        if not search:
            fold = next((i for i in range(t + 1, m) if any(x % pivot for x in a[i][t + 1:])), None)
            if fold is None:
                t, search = t + 1, True
            else:
                a[t] = [x + y for x, y in zip(a[t], a[fold])]
    return SmithDecomposition(tuple(map(tuple, a[:m])), tuple(map(tuple, a[m:])))


def integer_kernel_basis(rows) -> list:
    """Basis of {x : A x = 0} over the integers (a saturated sublattice):
    the kernel columns of the Smith form."""
    return smith_normal_form(rows).kernel


def integer_left_kernel_basis(rows) -> list:
    """Basis of {y : y A = 0}, via the kernel of the transpose."""
    a = integer_matrix(rows)
    transpose = [list(col) for col in zip(*a)] if a else []
    return integer_kernel_basis(transpose)


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
    """Deterministic kernel basis: the Smith kernel, sign-normalized row by
    row.  A kernel of rank 1 has one primitive generator up to sign, so its
    basis depends only on the kernel, not on how the rows are written."""
    return [canonical_sign(row) for row in integer_kernel_basis(rows)]


def unimodular_inverse(rows) -> tuple:
    """Inverse of a unimodular integer matrix, as integer tuple rows."""
    inv = rational_inverse(rows)
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("matrix is not unimodular")
    return tuple(tuple(x.numerator for x in row) for row in inv)


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
        one, zero = field.one(), field.zero()
        rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
        return SquareExactMatrix(field, rows)

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

    def __sub__(self, other: "SquareExactMatrix") -> "SquareExactMatrix":
        self._check(other)
        rows = tuple(tuple(map(operator.sub, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        return SquareExactMatrix(self.field, rows)

    def __mul__(self, other: "SquareExactMatrix") -> "SquareExactMatrix":
        self._check(other)
        out = []
        for row in self.rows:
            # sum_k a_ik (row k of other), skipping the many zero a_ik of M and M - I
            acc = None
            for a, other_row in zip(row, other.rows):
                if not a:
                    continue
                terms = [a * b for b in other_row]
                acc = terms if acc is None else list(map(operator.add, acc, terms))
            out.append((self.field.zero(),) * self.size if acc is None else tuple(acc))
        return SquareExactMatrix(self.field, tuple(out))

    def __pow__(self, k: int) -> "SquareExactMatrix":
        return power(self, k, SquareExactMatrix.identity(self.field, self.size))

    def is_identity(self) -> bool:
        return self == SquareExactMatrix.identity(self.field, self.size)

    def rank(self) -> int:
        """Rank by Gauss-Jordan elimination; the coefficient ring must be a field."""
        return len(gauss_jordan(self.field, self.rows, self.size)[1])

    def inverse(self) -> "SquareExactMatrix":
        """Inverse by augmented elimination; the ring must be a field."""
        n = self.size
        identity = SquareExactMatrix.identity(self.field, n).rows
        reduced, pivots, _ = gauss_jordan(
            self.field, [r + e for r, e in zip(self.rows, identity)], n
        )
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return SquareExactMatrix(self.field, tuple(tuple(r[n:]) for r in reduced))
