"""Period operator of the quintic threefold and its boundary data.

The operator is D = theta^4 - 5 z (5 theta + 1)(5 theta + 2)(5 theta + 3)
(5 theta + 4) with theta = z d/dz, written as a sum of terms z^j p_j(theta)
with rational theta-polynomials p_j.  The series variable here is the one
in which the holomorphic solution sum (5n)!/(n!)^5 z^n has positive
coefficients; in this coordinate the non-toric degeneration sits at
z = 5^-5.

A single Frobenius computation over the nilpotent ring QQ[a]/(a^N)
produces the holomorphic solution together with its logarithmic partners:
the bundle Phi_a = sum_n A_n(a) z^(a+n) expands as
Phi^(0) + Phi^(1) a + Phi^(2) a^2 + ..., and component k is the plain
rational series multiplying a^k.  The recurrence for the bundle and the
operator residual both run on integer numerators over common denominators.

Monodromy matrices act on row vectors (gamma -> gamma M) throughout; this
orientation is what makes the displayed unipotent matrix at z = 0 come out
upper-triangular with bands 1, 1/2, 1/6.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from ._frozen import frozen
from .exactnum import (
    QQ,
    ZETA5_FIELD,
    NilpotentElement,
    NilpotentRing,
    TruncatedSeries,
    int_convolve,
    integer_form,
    series_product,
)
from .kontsevich import twist_matrix
from .linalg import SquareExactMatrix

BASIS_LAMBDA_AT_ZERO = "lambda-power-basis-at-zero"
BASIS_IDEMPOTENT_AT_INFINITY = "idempotent-basis-at-infinity"
BASIS_POWER_AT_INFINITY = "alpha-power-basis-at-infinity"


@frozen
class PeriodOperator:
    """An operator sum_j z^j p_j(theta); terms[j] holds the coefficients of p_j."""

    terms: tuple

    @staticmethod
    def quintic() -> "PeriodOperator":
        """theta^4 - 5 z (5 theta + 1)(5 theta + 2)(5 theta + 3)(5 theta + 4)."""
        p0 = (Fraction(0),) * 4 + (Fraction(1),)
        p1 = (Fraction(1),)
        for k in range(1, 5):
            p1 = series_product(p1, (Fraction(k), Fraction(5)), len(p1))
        p1 = tuple(Fraction(-5) * c for c in p1)
        return PeriodOperator((p0, p1))


def apply_operator(op: PeriodOperator, series: TruncatedSeries) -> TruncatedSeries:
    """Apply sum_j z^j p_j(theta) to x^shift * sum_n a_n x^n coefficientwise.

    The term z^j p_j(theta) sends a_m x^(shift+m) to
    p_j(shift + m) a_m x^(shift+m+j), so the residual coefficient at
    exponent shift + n is sum_j p_j(shift + n - j) a_{n-j}.  The ring is
    QQ[a]/(a^N), or QQ as the case N = 1.  Each a_n is cleared of
    denominators once, into a window of len(op.terms) integer forms, and
    the sum runs on ints mod a^N.
    """
    nilpotent = isinstance(series.ring, NilpotentRing)
    coords = (lambda x: x.coeffs) if nilpotent else (lambda x: (x,))
    shift, shift_den = integer_form(coords(series.shift))
    top = len(shift) - 1
    thetas = [integer_form(p) for p in op.terms]
    window = deque(maxlen=len(op.terms))
    out = []
    for n, a_n in enumerate(series.coeffs):
        window.appendleft(integer_form(coords(a_n)))
        terms = []
        for j, ((p, p_den), (a, a_den)) in enumerate(zip(thetas, window)):
            # shift_den^deg p_den p(shift + n - j), by Horner on ints mod a^N
            x = [shift[0] + (n - j) * shift_den] + shift[1:]
            value, scale = [0] * (top + 1), 1
            for c in reversed(p):
                value = int_convolve(value, x, top)
                value[0] += c * scale
                scale *= shift_den
            terms.append((int_convolve(value, a, top), p_den * scale // shift_den * a_den))
        den = math.lcm(*(d for _, d in terms))
        acc = [sum(v[k] * (den // d) for v, d in terms) for k in range(top + 1)]
        element = tuple(Fraction(c, den) for c in acc)
        out.append(NilpotentElement(element) if nilpotent else element[0])
    return TruncatedSeries(series.ring, tuple(out), series.shift)


@frozen
class FrobeniusBundle:
    """The Frobenius solution Phi_a = sum_n A_n(a) z^(a+n) over QQ[a]/(a^N)."""

    ring: NilpotentRing
    series: TruncatedSeries

    def component(self, k: int) -> TruncatedSeries:
        """The rational series multiplying a^k in the bundle."""
        if not 0 <= k < self.ring.modulus_degree:
            raise IndexError(f"component {k} outside 0..{self.ring.modulus_degree - 1}")
        return TruncatedSeries(
            QQ, tuple(c.coeffs[k] for c in self.series.coeffs), Fraction(0)
        )


def frobenius_at_zero(order: int, modulus_degree: int = 4) -> FrobeniusBundle:
    """Solve the quintic operator at z = 0 over QQ[a]/(a^modulus_degree).

    The coefficients A_n(a) = prod_{k=1}^{5n} (5a + k) / prod_{k=1}^{n}
    (a + k)^5 are built iteratively; A_0 = 1.  Setting a = 0 recovers the
    holomorphic coefficients (5n)!/(n!)^5.

    The recurrence runs on ints: with N = modulus_degree, A_n(a) is an
    integer numerator vector mod a^N over one common denominator.  As
    n^(N+4) / (a + n)^5 = Q_n(a) = sum_{j<N} C(-5, j) n^(N-1-j) a^j mod a^N,
    each step multiplies the numerators by P_n(a) = prod_{k=5n-4}^{5n}
    (5a + k) and Q_n(a) mod a^N and the denominator by n^(N+4), then
    divides out the gcd of all of them.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if modulus_degree < 1:
        raise ValueError("modulus degree must be >= 1")
    ring = NilpotentRing(modulus_degree)
    alpha = ring.generator() if modulus_degree >= 2 else ring.zero()
    top = modulus_degree - 1
    binomials = [(-1) ** j * math.comb(j + 4, 4) for j in range(modulus_degree)]
    num, den = [1] + [0] * top, 1
    coeffs = [ring.one()]
    for n in range(1, order + 1):
        step = [n ** (top - j) * c for j, c in enumerate(binomials)]
        for k in range(5 * n - 4, 5 * n + 1):
            step = int_convolve(step, (k, 5), top)
        num = int_convolve(num, step, top)
        den *= n ** (modulus_degree + 4)
        g = math.gcd(den, *num)
        num, den = [c // g for c in num], den // g
        coeffs.append(NilpotentElement(tuple(Fraction(c, den) for c in num)))
    return FrobeniusBundle(ring, TruncatedSeries(ring, tuple(coeffs), alpha))


@frozen
class MonodromyMatrix:
    """A monodromy matrix together with the basis its entries refer to.

    Matrices act on row vectors: transporting gamma once around the
    marked point sends it to gamma * matrix.
    """

    matrix: SquareExactMatrix
    basis_tag: str

    def to_json(self) -> dict:
        return {
            "version": 1,
            "basis": self.basis_tag,
            "entries": self.matrix.to_json(),
        }


def monodromy_at_zero() -> MonodromyMatrix:
    """Monodromy around z = 0 in the basis 1, L, L^2, L^3 (L = log branch step).

    The loop multiplies the bundle by the exponential of the branch step,
    and the matrix is literally multiplication by exp(L) = sum L^k / k! in
    QQ[L]/(L^4): unipotent with superdiagonal bands 1, 1/2, 1/6.  That is
    the cohomology twist by the hyperplane class, so the matrix is
    ``kontsevich.twist_matrix(1)``.
    """
    return MonodromyMatrix(twist_matrix(1), BASIS_LAMBDA_AT_ZERO)


def monodromy_at_infinity() -> MonodromyMatrix:
    """Monodromy around z = infinity in the idempotent basis: diag(zeta^1..zeta^4).

    Each solution w^(k/5) * (series in w) picks up the phase zeta_5^k when
    w winds once around 0, so the matrix is diagonal with the four
    primitive fifth roots of unity on the diagonal.  Its order is 5 and
    its determinant is zeta^10 = 1.
    """
    field = ZETA5_FIELD
    rows = [
        [field.zeta(k) if j == k - 1 else field.zero() for j in range(4)]
        for k in range(1, 5)
    ]
    matrix = SquareExactMatrix.from_rows(field, rows)
    return MonodromyMatrix(matrix, BASIS_IDEMPOTENT_AT_INFINITY)


def infinity_basis_change() -> SquareExactMatrix:
    """Row-convention base change from the power basis 1, a, a^2, a^3 to the
    idempotent basis at infinity: B[j][k-1] = (k/5)^j, a Vandermonde matrix.

    Coordinates transform as gamma_idem = gamma_power * B, so the power
    basis monodromy is B * diag(zeta^k) * B^-1.
    """
    field = ZETA5_FIELD
    rows = [
        [field.coerce(Fraction(k, 5) ** j) for k in range(1, 5)] for j in range(4)
    ]
    return SquareExactMatrix.from_rows(field, rows)


def monodromy_at_infinity_power_basis() -> MonodromyMatrix:
    """The infinity monodromy conjugated into the power basis 1, a, a^2, a^3."""
    b = infinity_basis_change()
    d = monodromy_at_infinity().matrix
    return MonodromyMatrix(b * d * b.inverse(), BASIS_POWER_AT_INFINITY)
