"""Charge data of gauged linear sigma models and the transpose mirror.

An exponent matrix P records the monomials of a superpotential (rows)
against the coordinates they involve (columns).  A factorization
P = S * T through integer matrices exhibits a torus subgroup acting on
the coordinates: the abelian group is the kernel of the character map
U(1)^n -> U(1)^d with weight rows T, computed exactly through the
elementary divisors of T.  Transposing all three matrices produces the
mirror model's data.

The only floating-point computation in the whole package lives here, in
:func:`kahler_parameter`, the one caller of ``decimal`` and ``numbers``,
which it imports when it runs.
"""

from __future__ import annotations

import math
import sys

from ._frozen import frozen
from .linalg import (
    canonical_kernel_basis,
    canonical_sign,
    dot,
    integer_matmul,
    integer_matrix,
    rational_rank,
    short_repr,
    smith_normal_form,
    unimodular_inverse,
)


class FactorizationError(ValueError):
    """A claimed factorization fails to verify."""


@frozen
class ExponentMatrix:
    """Monomial-by-coordinate exponents, non-negative integers."""

    rows: tuple

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "ExponentMatrix":
        return ExponentMatrix(integer_matrix(rows, allow_negative=False))

    @staticmethod
    def quintic() -> "ExponentMatrix":
        """Exponents of x0 x1 x2 x3 x4 x5 and the five x0 xj^5 monomials."""
        rows = [[1, 1, 1, 1, 1, 1]]
        for j in range(1, 6):
            row = [1, 0, 0, 0, 0, 0]
            row[j] = 5
            rows.append(row)
        return ExponentMatrix.from_rows(rows)

    @property
    def shape(self) -> tuple:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def rank(self) -> int:
        return rational_rank(self.rows)

    def transpose(self) -> "ExponentMatrix":
        return ExponentMatrix(tuple(zip(*self.rows)))


@frozen
class ChargeFactorization:
    """A factorization P = S * T with S an m x d and T a d x n integer matrix."""

    s_rows: tuple
    t_rows: tuple

    @staticmethod
    def from_rows(s_rows, t_rows) -> "ChargeFactorization":
        s = integer_matrix(s_rows)
        t = integer_matrix(t_rows)
        if s and t and len(s[0]) != len(t):
            raise ValueError("inner dimensions of S and T do not match")
        return ChargeFactorization(s, t)

    @staticmethod
    def quintic() -> "ChargeFactorization":
        """The factorization exhibiting the U(1) of charge (-5,1,1,1,1,1)."""
        s = [
            (1, 1, 1, 1, 1),
            (1, 5, 0, 0, 0),
            (1, 0, 5, 0, 0),
            (1, 0, 0, 5, 0),
            (1, 0, 0, 0, 5),
            (1, 0, 0, 0, 0),
        ]
        t = [
            (1, 0, 0, 0, 0, 5),
            (0, 1, 0, 0, 0, -1),
            (0, 0, 1, 0, 0, -1),
            (0, 0, 0, 1, 0, -1),
            (0, 0, 0, 0, 1, -1),
        ]
        return ChargeFactorization.from_rows(s, t)

    @property
    def inner_dim(self) -> int:
        return len(self.t_rows)

    def product(self) -> tuple:
        return integer_matmul(self.s_rows, self.t_rows)


@frozen
class FactorizationReport:
    """Diagnostics from verifying P = S * T and rank(P) = d."""

    ok: bool
    product_ok: bool
    rank_ok: bool
    rank: int
    inner_dim: int
    mismatches: tuple  # entries (i, j, expected, got)


def verify_factorization(p: ExponentMatrix, f: ChargeFactorization) -> FactorizationReport:
    """Check P = S * T entry by entry and rank(P) = d, reporting offenders."""
    m, n = p.shape
    if len(f.s_rows) != m or (f.t_rows and len(f.t_rows[0]) != n):
        raise ValueError("factorization shapes do not match the exponent matrix")
    product = f.product()
    mismatches = []
    for i in range(m):
        for j in range(n):
            if product[i][j] != p.rows[i][j]:
                mismatches.append((i, j, p.rows[i][j], product[i][j]))
    rank = p.rank()
    rank_ok = rank == f.inner_dim
    product_ok = not mismatches
    return FactorizationReport(
        ok=product_ok and rank_ok,
        product_ok=product_ok,
        rank_ok=rank_ok,
        rank=rank,
        inner_dim=f.inner_dim,
        mismatches=tuple(mismatches),
    )


@frozen
class AbelianGroupStructure:
    """Isomorphism type of a compact abelian group: torus rank and the
    elementary divisors > 1 of the finite part (each dividing the next)."""

    torus_rank: int
    torsion: tuple

    def describe(self) -> str:
        parts = []
        if self.torus_rank == 1:
            parts.append("U(1)")
        elif self.torus_rank > 1:
            parts.append(f"U(1)^{self.torus_rank}")
        i = 0
        while i < len(self.torsion):
            d = self.torsion[i]
            count = sum(1 for x in self.torsion if x == d)
            parts.append(f"Z_{d}" if count == 1 else f"(Z_{d})^{count}")
            i += count
        return " x ".join(parts) if parts else "trivial"


def group_from_charges(t_rows) -> tuple:
    """Kernel of the torus map U(1)^n -> U(1)^d with weight rows T.

    Returns the group structure together with integer charge vectors
    generating the torus part.  The structure falls out of the Smith
    form U T V = D: the cokernel-side divisors > 1 give the torsion, the
    zero columns give the torus rank, and the columns of V over them,
    sign-normalized as :func:`canonical_kernel_basis` does, give the
    generators.
    """
    t = integer_matrix(t_rows)
    if not t:
        raise ValueError("empty charge matrix")
    n = len(t[0])
    snf = smith_normal_form(t)
    divisors = snf.divisors
    rank = len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    structure = AbelianGroupStructure(torus_rank=n - rank, torsion=torsion)
    generators = [canonical_sign(v) for v in snf.kernel]
    return structure, generators


def transpose_mirror(p: ExponentMatrix, f: ChargeFactorization) -> tuple:
    """The mirror data (P^t, with S^t and T^t swapped); verified before return."""
    report = verify_factorization(p, f)
    if not report.ok:
        raise FactorizationError("input factorization does not verify")
    p_hat = p.transpose()
    f_hat = ChargeFactorization.from_rows(tuple(zip(*f.t_rows)), tuple(zip(*f.s_rows)))
    report_hat = verify_factorization(p_hat, f_hat)
    if not report_hat.ok:
        raise FactorizationError("transposed factorization does not verify")
    return p_hat, f_hat


def basis_change(f: ChargeFactorization, l_rows) -> ChargeFactorization:
    """Replace (S, T) by (S L^-1, L T) for unimodular L; the product is unchanged."""
    l = integer_matrix(l_rows)
    if len(l) != f.inner_dim or (l and len(l[0]) != f.inner_dim):
        raise ValueError("L must be square of the factorization's inner dimension")
    l_inv = unimodular_inverse(l)  # raises ValueError when L is not unimodular
    return ChargeFactorization.from_rows(
        integer_matmul(f.s_rows, l_inv), integer_matmul(l, f.t_rows)
    )


def invariant_coordinates(p: ExponentMatrix) -> list:
    """Exponent vectors of the coefficient monomials invariant under the torus.

    These are the integer relations among the rows of P: each kernel
    vector m encodes the Laurent monomial prod_j c_j^(m_j) in the
    coefficients.  Returned as :func:`canonical_kernel_basis` gives them:
    the Smith kernel, sign-normalized vector by vector.
    """
    return [tuple(v) for v in canonical_kernel_basis([list(col) for col in zip(*p.rows)])]


# Ceilings of kahler_parameter: the decimal logarithm of a magnitude costs
# about 2 ms at 1,000 digits of working precision and 0.3 s at 2,500, and the
# exact test for r = 0 takes up to a gcd per pair of magnitudes.
MAX_KAHLER_DIGITS = 1024
MAX_KAHLER_MAGNITUDES = 256


def kahler_parameter(magnitudes: Sequence[float], charges: Sequence[Sequence[int]]) -> tuple:
    """r = (-1/(2 pi)) sum_k log|c_k| chi_k, one charge vector chi_k per coordinate.

    The one floating-point output of the package.  Magnitudes must be at
    most MAX_KAHLER_MAGNITUDES positive and finite real numbers (not
    booleans or strings), charges integers.  Each magnitude is read as the
    exact value of its double, and each component of r is that sum
    correctly rounded to 12 significant digits, returned as the float
    nearest those digits: 0 exactly when prod_k c_k^chi_k = 1.  A term
    log|c| chi beyond a float, an r outside the normal floats, or a sum not
    rounded within MAX_KAHLER_DIGITS of working precision is rejected.
    """
    if len(magnitudes) != len(charges):
        raise ValueError("need one charge vector per magnitude")
    if not charges:
        raise ValueError("empty input")
    if len(charges) > MAX_KAHLER_MAGNITUDES:
        raise ValueError(f"{len(charges)} magnitudes, at most {MAX_KAHLER_MAGNITUDES} allowed")
    width = len(charges[0])
    if width == 0:
        raise ValueError("charge vectors are empty")
    if any(len(chi) != width for chi in charges):
        raise ValueError("charge vectors have inconsistent lengths")
    charges = integer_matrix(charges)
    import numbers  # only this check needs it: gw and periods do not load it
    values = []
    for c, chi in zip(magnitudes, charges):
        if isinstance(c, bool) or not isinstance(c, numbers.Real):
            raise ValueError(f"magnitude {short_repr(c)} is not a number")
        c = float(c)
        if not (0.0 < c < math.inf):
            raise ValueError(f"magnitude {c} is not positive and finite")
        factor = -math.log(c) / (2.0 * math.pi)
        if not all(math.isfinite(factor * x) for x in chi):
            raise ValueError("r overflows a float: a term log|c| chi is too large")
        values.append(c)
    # prod_k c_k^chi_k = 1 exactly when every prime's exponent in it is 0; a
    # double is m 2^e with m odd, and the exponents of the odd parts are read
    # over a coprime base of the m
    odd = [c.as_integer_ratio() for c in values]
    odd = [(m >> (t := (m & -m).bit_length() - 1), t + 1 - d.bit_length()) for m, d in odd]
    base = _coprime_base([m for m, _ in odd])
    exponents = [[e] + [_valuation(m, b) for b in base] for m, e in odd]
    columns = list(zip(*charges))
    nonzero = [a for a, w in enumerate(columns) if any(dot(w, e) for e in zip(*exponents))]
    out = [0.0] * width
    for a, value in zip(nonzero, _rounded_kahler(values, [columns[a] for a in nonzero])):
        out[a] = float(value)
        if not sys.float_info.min <= abs(out[a]) < math.inf:
            raise ValueError("r underflows a float" if abs(out[a]) < 1 else "r overflows a float")
    return tuple(out)


def _rounded_kahler(values: list, columns: list) -> list:
    """-(1/2 pi) sum_k w_k ln c_k for each weight vector w in columns, none 0,
    rounded to 12 significant digits by Ziv's loop: at working precision p
    each operation errs by at most half a unit in the p-th digit, so with n
    terms and A = sum_k |w_k ln c_k| the computed value is within
    E = (n + 8) 10^(1-p) A / 6 of the exact one (2 pi > 6, and the bound
    allows twice the error); once value - E and value + E round alike, the
    rounding is certain, else p doubles."""
    from decimal import Context, Decimal, localcontext
    out, digits, twelve = [None] * len(columns), 32, Context(prec=12)
    while None in out:
        if digits > MAX_KAHLER_DIGITS:
            raise ValueError(f"r cannot be rounded to 12 digits within {MAX_KAHLER_DIGITS} digits")
        with localcontext() as ctx:
            ctx.prec = digits
            logs, two_pi = [Decimal(c).ln() for c in values], 2 * _pi(digits)
            for a, weights in enumerate(columns):
                if out[a] is None:
                    terms = [w * x for w, x in zip(weights, logs)]
                    value = -sum(terms) / two_pi
                    error = (len(terms) + 8) * sum(map(abs, terms)) / 6 * Decimal(10) ** (1 - digits)
                    if twelve.subtract(value, error) == twelve.add(value, error):
                        out[a] = twelve.plus(value)
        digits *= 2
    return out


def _pi(digits: int) -> Decimal:
    """pi within 10^-digits (up to 6,000 digits), by Machin's formula on
    integers: each of its fewer than digits + 5 arctan terms is truncated at
    10^-(digits + 5) and errs by at most 16 such units."""
    from decimal import Decimal
    one, total = 10 ** (digits + 5), 0
    for factor, x in ((16, 5), (-4, 239)):
        power, k = one // x, 1
        while power:
            total += factor * (-1) ** (k // 2) * (power // k)
            power, k = power // (x * x), k + 2
    return Decimal(total).scaleb(-(digits + 5))


def _coprime_base(values: list) -> list:
    """Pairwise coprime integers > 1 such that every value is a product of
    their powers: each gcd > 1 of two numbers splits them into g, b/g, n/g."""
    base, todo = [], [n for n in values if n > 1]
    while todo:
        n = todo.pop()
        for b in base:
            if (g := math.gcd(n, b)) > 1:
                base.remove(b)
                todo += [m for m in (g, b // g, n // g) if m > 1]
                break
        else:
            base.append(n)
    return base


def _valuation(n: int, b: int) -> int:
    """The exponent of b in n."""
    k = 0
    while n % b == 0:
        n, k = n // b, k + 1
    return k
