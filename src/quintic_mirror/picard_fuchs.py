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
rational series multiplying a^k.  A series holds only the A_n(a), with no
exponent prefactor: the Frobenius exponent a is the generator of the
series' own ring (0 when N = 1).  The recurrence for the bundle and the
operator residual both read and write the integer numerators and common
denominator of each QQ[a]/(a^N) element directly.

Monodromy matrices act on row vectors (gamma -> gamma M) throughout; this
orientation is what makes the displayed unipotent matrix at z = 0 come out
upper-triangular with bands 1, 1/2, 1/6.
"""

from __future__ import annotations

import math

from ._frozen import frozen
from .exactnum import (
    ZETA5_FIELD,
    NilpotentElement,
    NilpotentRing,
    RingMismatchError,
    TruncatedSeries,
    fraction,
    int_convolve,
    integer_form,
    over_lcm,
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
        p1 = [-5]
        for k in range(1, 5):
            p1 = int_convolve(p1, (k, 5), len(p1))
        return PeriodOperator(((0, 0, 0, 0, 1), tuple(p1)))


def _at(poly: list, width: int, n: int) -> list:
    """A polynomial in (a, m), held flat with a^k m^i at k * width + i for
    i < width, at m = n by Horner: one integer per power of a.  Below that
    m-degree, ``int_convolve(p, q, N * width - 1)`` is the product mod a^N."""
    out = []
    for k in range(0, len(poly), width):
        value = 0
        for c in reversed(poly[k : k + width]):
            value = value * n + c
        out.append(value)
    return out


def apply_operator(op: PeriodOperator, series: TruncatedSeries) -> TruncatedSeries:
    """Apply sum_j z^j p_j(theta) to the Frobenius ansatz sum_n c_n z^(a+n).

    The exponent a is the generator of the series' ring QQ[a]/(a^N), and 0
    when N = 1, which stands in for QQ; any other ring is refused.  The term
    z^j p_j(theta) sends c_m z^(a+m) to p_j(a + m) c_m z^(a+m+j), so the
    residual coefficient of z^(a+n) is sum_j p_j(a + n - j) c_{n-j}.  Each
    p_j(a + m), scaled to integer numerators, is expanded once as a
    polynomial in (a, m) (see :func:`_at`), so each n costs Horner steps and
    one convolution per term.  A vanishing coefficient is the ring's one
    shared zero element.
    """
    ring = series.ring
    if not isinstance(ring, NilpotentRing):
        raise RingMismatchError(f"the operator acts on series over QQ[a]/(a^N), not {ring}")
    a = ring.generator().num if ring.modulus_degree > 1 else (0,)
    top, width = len(a) - 1, max(map(len, op.terms))
    # a + m, flat as in _at
    x = [a[k // width] if k % width == 0 else int(k == 1) for k in range(len(a) * width)]
    expanded = []
    for p in op.terms:
        p, p_den = integer_form(p)
        value = [p[-1]] + [0] * (len(x) - 1)
        for c in reversed(p[:-1]):
            value = int_convolve(value, x, len(x) - 1)
            value[0] += c
        expanded.append((value, p_den))
    out, zero, coeffs = [], ring.zero(), series.coeffs
    for n in range(len(coeffs)):
        terms = (
            (int_convolve(_at(value, width, n - j), coeffs[n - j].num, top), p_den * coeffs[n - j].den)
            for j, (value, p_den) in enumerate(expanded[: n + 1])
        )
        acc, den = next(terms)
        for v, d in terms:
            # acc/den + v/d = (acc d/g + v den/g) / (den d/g) with g = gcd(den, d)
            g = math.gcd(den, d)
            widen, scale = d // g, den // g
            acc, den = [x * widen + y * scale for x, y in zip(acc, v)], den * widen
        out.append(NilpotentElement.from_integers(acc, den) if any(acc) else zero)
    return TruncatedSeries(ring, tuple(out))


@frozen
class FrobeniusBundle:
    """The Frobenius solution Phi_a = sum_n A_n(a) z^(a+n) over QQ[a]/(a^N).

    ``series`` holds the A_n(a) alone; the exponent a of z^(a+n) is the
    generator of ``ring``, as :func:`apply_operator` reads it.
    """

    ring: NilpotentRing
    series: TruncatedSeries

    def component(self, k: int) -> TruncatedSeries:
        """The rational series multiplying a^k in the bundle."""
        if not 0 <= k < self.ring.modulus_degree:
            raise IndexError(f"component {k} outside 0..{self.ring.modulus_degree - 1}")
        cs = self.series.coeffs
        return TruncatedSeries.from_integers(*over_lcm([c.num[k] for c in cs], [c.den for c in cs]))


def frobenius_at_zero(order: int, modulus_degree: int = 4) -> FrobeniusBundle:
    """Solve the quintic operator at z = 0 over QQ[a]/(a^modulus_degree).

    The coefficients A_n(a) = prod_{k=1}^{5n} (5a + k) / prod_{k=1}^{n}
    (a + k)^5 are built iteratively; A_0 = 1.  Setting a = 0 recovers the
    holomorphic coefficients (5n)!/(n!)^5.

    The recurrence runs on ints: with N = modulus_degree, A_n(a) is an
    integer numerator vector mod a^N over one common denominator.  As
    n^(N+4) / (a + n)^5 = sum_{j<N} C(-5, j) n^(N-1-j) a^j mod a^N, the
    step n^(N+4) / (a + n)^5 prod_{k=5n-4}^{5n} (5a + k) is, mod a^N, a
    polynomial in n, expanded once (see :func:`_at`).  Each n multiplies
    the numerators by its value and the denominator by n^(N+4), and
    ``NilpotentElement.from_integers`` puts the result in lowest terms.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if modulus_degree < 1:
        raise ValueError("modulus degree must be >= 1")
    ring = NilpotentRing(modulus_degree)
    top, width = modulus_degree - 1, modulus_degree + 5
    step = [0] * (modulus_degree * width)
    for j in range(modulus_degree):
        step[j * width + top - j] = (-1) ** j * math.comb(j + 4, 4)
    for i in range(5):  # times 5a + 5n - i
        step = int_convolve(step, [-i, 5] + [0] * (width - 2) + [5], len(step) - 1)
    coeffs = [ring.one()]
    for n in range(1, order + 1):
        last = coeffs[-1]
        num = int_convolve(last.num, _at(step, width, n), top)
        coeffs.append(NilpotentElement.from_integers(num, last.den * n ** (modulus_degree + 4)))
    return FrobeniusBundle(ring, TruncatedSeries(ring, tuple(coeffs)))


@frozen
class MonodromyMatrix:
    """A monodromy matrix together with the basis its entries refer to.

    Matrices act on row vectors: transporting gamma once around the
    marked point sends it to gamma * matrix.
    """

    matrix: SquareExactMatrix
    basis_tag: str


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
    rows = [[field.coerce(fraction(k, 5) ** j) for k in range(1, 5)] for j in range(4)]
    return SquareExactMatrix.from_rows(field, rows)


def monodromy_at_infinity_power_basis() -> MonodromyMatrix:
    """The infinity monodromy conjugated into the power basis 1, a, a^2, a^3."""
    b = infinity_basis_change()
    d = monodromy_at_infinity().matrix
    return MonodromyMatrix(b * d * b.inverse(), BASIS_POWER_AT_INFINITY)
