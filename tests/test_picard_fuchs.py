from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from quintic_mirror.exactnum import QQ, NilpotentElement, NilpotentRing, TruncatedSeries
from quintic_mirror.kontsevich import twist_matrix
from quintic_mirror.picard_fuchs import (
    PeriodOperator,
    apply_operator,
    frobenius_at_zero,
    monodromy_at_infinity,
    monodromy_at_infinity_power_basis,
    monodromy_at_zero,
)


def _theta_poly_at(coeffs, x, ring):
    """A theta-polynomial evaluated at a ring element, by Horner."""
    acc = ring.zero()
    for c in reversed(coeffs):
        acc = acc * x + ring.coerce(Fraction(c))
    return acc


def _holomorphic_oracle(n: int) -> Fraction:
    """(5n)! / (n!)^5 straight from factorials, independent of the recurrence."""
    return Fraction(math.factorial(5 * n), math.factorial(n) ** 5)


# -- the operator ------------------------------------------------------------


def test_operator_theta_polynomials() -> None:
    op = PeriodOperator.quintic()
    assert op.terms[0] == (0, 0, 0, 0, 1)
    assert op.terms[1] == (-120, -1250, -4375, -6250, -3125)


def test_theta_polynomial_evaluation() -> None:
    op = PeriodOperator.quintic()
    # p1(t) = -5 (5t+1)(5t+2)(5t+3)(5t+4)
    assert op.terms[1][0] == -120
    assert _theta_poly_at(op.terms[1], Fraction(1), QQ) == -5 * 6 * 7 * 8 * 9
    assert _theta_poly_at(op.terms[1], Fraction(-1, 5), QQ) == 0


# -- series solution at z = 0 ------------------------------------------------


def test_holomorphic_coefficients_match_factorials() -> None:
    bundle = frobenius_at_zero(12)
    phi0 = bundle.component(0)
    for n in range(13):
        assert phi0.coefficient(n) == _holomorphic_oracle(n)


def test_first_logarithmic_coefficients() -> None:
    bundle = frobenius_at_zero(2)
    phi1 = bundle.component(1)
    assert phi1.coefficient(0) == 0
    assert phi1.coefficient(1) == 770
    # harmonic-sum oracle: d/da A_n(a) at 0 is A_n * 5 * (H_{5n} - H_n)
    for n in (1, 2):
        h = sum(Fraction(1, j) for j in range(n + 1, 5 * n + 1))
        assert phi1.coefficient(n) == _holomorphic_oracle(n) * 5 * h


def test_operator_annihilates_bundle_mod_alpha4() -> None:
    bundle = frobenius_at_zero(50)
    residual = apply_operator(PeriodOperator.quintic(), bundle.series)
    assert residual.is_zero()


def test_residual_is_alpha4_mod_alpha5() -> None:
    bundle = frobenius_at_zero(50, modulus_degree=5)
    residual = apply_operator(PeriodOperator.quintic(), bundle.series)
    alpha4 = bundle.ring.generator() ** 4
    assert residual.coefficient(0).coeffs == alpha4.coeffs
    for n in range(1, 51):
        assert residual.coefficient(n).is_zero()


def _frobenius_oracle(order: int, degree: int) -> list:
    """A_n(a) mod a^degree in closed form, with no recurrence in n.

    log A_n(a) - log A_n(0) = sum_{k<=5n} log(1 + 5a/k) - 5 sum_{k<=n}
    log(1 + a/k) = sum_j c_j(n) a^j with c_j(n) = (-1)^(j+1)/j [sum_{k<=5n}
    (5/k)^j - 5 sum_{k<=n} (1/k)^j]; A_n(a) is A_n(0) times its exponential.
    """
    out = []
    for n in range(order + 1):
        log_part = [Fraction(0)] + [
            Fraction((-1) ** (j + 1), j)
            * (
                sum(Fraction(5, k) ** j for k in range(1, 5 * n + 1))
                - 5 * sum(Fraction(1, k) ** j for k in range(1, n + 1))
            )
            for j in range(1, degree)
        ]
        exp_part = [Fraction(1)] + [Fraction(0)] * (degree - 1)
        power = list(exp_part)
        for m in range(1, degree):
            power = [
                sum(power[i] * log_part[k - i] for i in range(k + 1)) / m
                for k in range(degree)
            ]
            exp_part = [e + p for e, p in zip(exp_part, power)]
        out.append(tuple(_holomorphic_oracle(n) * e for e in exp_part))
    return out


@pytest.mark.parametrize("degree", [1, 2, 4, 5])
def test_frobenius_matches_closed_form(degree) -> None:
    bundle = frobenius_at_zero(60, modulus_degree=degree)
    got = [c.coeffs for c in bundle.series.coeffs]
    assert got == _frobenius_oracle(60, degree)
    assert all(type(x) is Fraction for c in got for x in c)


def test_corrupted_coefficient_shows_in_two_residual_terms() -> None:
    # A_37 enters the residual at n = 37 through p0 and at n = 38 through p1.
    bundle = frobenius_at_zero(60)
    coeffs = list(bundle.series.coeffs)
    coeffs[37] = coeffs[37] + bundle.ring.generator() ** 2 * Fraction(1, 7)
    corrupted = TruncatedSeries(bundle.ring, tuple(coeffs), bundle.series.shift)
    residual = apply_operator(PeriodOperator.quintic(), corrupted)
    nonzero = [n for n, c in enumerate(residual.coeffs) if not c.is_zero()]
    assert nonzero == [37, 38]


def _reference_residual(op, series) -> tuple:
    """sum_j p_j(shift + n - j) a_(n-j), one ring operation at a time."""
    ring = series.ring
    return tuple(
        sum(
            (
                _theta_poly_at(pj, series.shift + ring.coerce(n - j), ring) * series.coeffs[n - j]
                for j, pj in enumerate(op.terms)
                if j <= n
            ),
            ring.zero(),
        )
        for n in range(series.order + 1)
    )


@pytest.mark.parametrize("ring", [QQ, NilpotentRing(1), NilpotentRing(4)], ids=str)
def test_residual_matches_term_by_term_reference(ring) -> None:
    # Three theta-polynomials with rational coefficients, a shift with a
    # denominator and a nilpotent part, and zero coefficients in the series.
    rng = random.Random(15)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def element():
        if ring == QQ:
            return rational()
        return NilpotentElement(tuple(rational() for _ in range(ring.modulus_degree)))

    for _ in range(5):
        terms = tuple(tuple(rational() for _ in range(rng.randint(1, 5))) for _ in range(3))
        op = PeriodOperator(terms)
        coeffs = [element() for _ in range(12)]
        coeffs[3] = coeffs[4] = ring.zero()
        series = TruncatedSeries(ring, tuple(coeffs), element())
        residual = apply_operator(op, series)
        assert residual.coeffs == _reference_residual(op, series)
        assert residual.shift == series.shift


def test_operator_over_qq_annihilates_holomorphic_period() -> None:
    # QQ is the modulus-one case: phi0 alone solves the operator, phi1 does not.
    op = PeriodOperator.quintic()
    bundle = frobenius_at_zero(30)
    assert apply_operator(op, bundle.component(0)).is_zero()
    assert not apply_operator(op, bundle.component(1)).is_zero()


def test_modulus_one_gives_plain_holomorphic_series() -> None:
    bundle = frobenius_at_zero(3, modulus_degree=1)
    assert not bundle.series.has_shift()
    for n in range(4):
        assert bundle.component(0).coefficient(n) == _holomorphic_oracle(n)


# -- monodromy ---------------------------------------------------------------


def test_monodromy_at_zero_is_unipotent_twist() -> None:
    m = monodromy_at_zero().matrix
    assert m == twist_matrix(1)
    n = m - m.identity(m.field, m.size)
    assert (n**4).rank() == 0
    assert (n**3).rank() == 1


def test_monodromy_at_infinity_has_order_five() -> None:
    m = monodromy_at_infinity().matrix
    assert not m.is_identity()
    assert (m**5).is_identity()
    for k in range(1, 5):
        assert not (m**k).is_identity()


def test_infinity_monodromy_trace_and_det() -> None:
    m = monodromy_at_infinity().matrix
    trace = m.entry(0, 0)
    for i in range(1, 4):
        trace = trace + m.entry(i, i)
    # zeta + zeta^2 + zeta^3 + zeta^4 = -1
    assert trace.is_rational()
    assert trace.rational_part == -1
    assert m.det().coeffs == (1, 0, 0, 0)


def test_power_basis_conjugate_keeps_order_and_trace() -> None:
    m = monodromy_at_infinity_power_basis().matrix
    assert (m**5).is_identity()
    assert not m.is_identity()
    trace = m.entry(0, 0)
    for i in range(1, 4):
        trace = trace + m.entry(i, i)
    assert trace.rational_part == -1


def test_monodromy_json_carries_basis_tag() -> None:
    doc = monodromy_at_zero().to_json()
    assert doc["version"] == 1
    assert doc["basis"] == "lambda-power-basis-at-zero"
    assert doc["entries"][0][0] == "1/1"
