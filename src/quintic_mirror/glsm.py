"""Charge data of gauged linear sigma models and the transpose mirror.

An exponent matrix P records the monomials of a superpotential (rows)
against the coordinates they involve (columns).  A factorization
P = S * T through integer matrices exhibits a torus subgroup acting on
the coordinates: the abelian group is the kernel of the character map
U(1)^n -> U(1)^d with weight rows T, computed exactly through the
elementary divisors of T.  Transposing all three matrices produces the
mirror model's data.

The only floating-point computation in the whole package lives here, in
:func:`kahler_parameter`.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

from ._frozen import frozen
from .linalg import (
    canonical_kernel_basis,
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

    def to_json(self) -> list:
        return [list(r) for r in self.rows]


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

    def to_json(self) -> dict:
        return {"S": [list(r) for r in self.s_rows], "T": [list(r) for r in self.t_rows]}


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
    zero columns give the torus rank, and the integer kernel of T gives
    the generators.
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
    generators = canonical_kernel_basis(t)
    return structure, generators


def transpose_mirror(p: ExponentMatrix, f: ChargeFactorization) -> tuple:
    """The mirror data (P^t, with S^t and T^t swapped); verified before return."""
    report = verify_factorization(p, f)
    if not report.ok:
        raise FactorizationError("input factorization does not verify")
    p_hat = p.transpose()
    f_hat = ChargeFactorization.from_rows(
        tuple(zip(*f.t_rows)), tuple(zip(*f.s_rows))
    )
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
    coefficients.  Returned Hermite-reduced and sign-normalized.
    """
    return [tuple(v) for v in canonical_kernel_basis([list(col) for col in zip(*p.rows)])]


def kahler_parameter(magnitudes: Sequence[float], charges: Sequence[Sequence[int]]) -> tuple:
    """r = (-1/(2 pi)) sum_k log|c_k| chi_k, one charge vector chi_k per coordinate.

    The one floating-point computation in the package; everything else
    is exact.  Magnitudes must be positive and finite real numbers (not
    booleans or strings), charges integers, and every component of r
    must come out finite: a sum that overflows a float is rejected, not
    returned as inf or nan.
    """
    if len(magnitudes) != len(charges):
        raise ValueError("need one charge vector per magnitude")
    if not charges:
        raise ValueError("empty input")
    width = len(charges[0])
    if width == 0:
        raise ValueError("charge vectors are empty")
    if any(len(chi) != width for chi in charges):
        raise ValueError("charge vectors have inconsistent lengths")
    charges = integer_matrix(charges)
    out = [0.0] * width
    for c, chi in zip(magnitudes, charges):
        if isinstance(c, bool) or not isinstance(c, numbers.Real):
            raise ValueError(f"magnitude {short_repr(c)} is not a number")
        c = float(c)
        if not (0.0 < c < math.inf):
            raise ValueError(f"magnitude {c} is not positive and finite")
        factor = -math.log(c) / (2.0 * math.pi)
        for a in range(width):
            out[a] += factor * chi[a]
    if not all(map(math.isfinite, out)):
        raise ValueError("r overflows a float: a term log|c| chi is too large")
    return tuple(out)
