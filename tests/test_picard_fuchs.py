from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest

from quintic_mirror.exactnum import (
    QQ,
    ZETA5_FIELD,
    CyclotomicElement,
    NilpotentElement,
    NilpotentRing,
    RingMismatchError,
    TruncatedSeries,
)
from quintic_mirror.kontsevich import twist_matrix
from quintic_mirror.linalg import gauss_jordan
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


def test_a_vanishing_residual_coefficient_is_the_rings_one_zero() -> None:
    ring = NilpotentRing()
    residual = apply_operator(PeriodOperator.quintic(), frobenius_at_zero(50).series)
    assert len(residual.coeffs) == 51
    assert len({id(c) for c in residual.coeffs}) == 1
    assert residual.coeffs[0] == ring.zero()
    bundle5 = frobenius_at_zero(50, modulus_degree=5)
    residual5 = apply_operator(PeriodOperator.quintic(), bundle5.series)
    assert residual5.coeffs[0] == bundle5.ring.generator() ** 4
    assert len({id(c) for c in residual5.coeffs[1:]}) == 1
    assert residual5.coeffs[1] == bundle5.ring.zero()


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


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
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
    corrupted = TruncatedSeries(bundle.ring, tuple(coeffs))
    residual = apply_operator(PeriodOperator.quintic(), corrupted)
    nonzero = [n for n, c in enumerate(residual.coeffs) if not c.is_zero()]
    assert nonzero == [37, 38]


def _reference_residual(op, series) -> tuple:
    """sum_j p_j(a + n - j) c_(n-j), one ring operation at a time, where the
    exponent a is the generator of the series' ring (0 for N = 1)."""
    ring = series.ring
    a = ring.generator() if ring.modulus_degree > 1 else ring.zero()
    return tuple(
        sum(
            (
                _theta_poly_at(pj, a + ring.coerce(n - j), ring) * series.coeffs[n - j]
                for j, pj in enumerate(op.terms)
                if j <= n
            ),
            ring.zero(),
        )
        for n in range(series.order + 1)
    )


@pytest.mark.parametrize("ring", [NilpotentRing(d) for d in (1, 2, 4, 5)], ids=str)
def test_residual_matches_term_by_term_reference(ring) -> None:
    # Theta-polynomials with rational coefficients, the exponent a of the
    # ring, and zero coefficients in the series.
    # The last three operators add constant theta-polynomials (all of them,
    # in the last), and one has more terms than the series has coefficients.
    rng = random.Random(15)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def element():
        return NilpotentElement(tuple(rational() for _ in range(ring.modulus_degree)))

    cases = [(3, 12, ())] * 5 + [(4, 12, (1,)), (6, 4, (0, 5)), (2, 5, (0, 1))]
    for terms_count, length, constant in cases:
        terms = tuple(
            tuple(rational() for _ in range(1 if j in constant else rng.randint(1, 5)))
            for j in range(terms_count)
        )
        op = PeriodOperator(terms)
        coeffs = [element() for _ in range(length)]
        coeffs[3:5] = [ring.zero()] * len(coeffs[3:5])
        series = TruncatedSeries(ring, tuple(coeffs))
        residual = apply_operator(op, series)
        assert residual.coeffs == _reference_residual(op, series)
        assert residual.ring == ring


def test_theta_of_one_leaves_the_exponent() -> None:
    # theta z^a = a z^a: over QQ[a]/(a^2) the series 1 leaves the residual a,
    # which an operator applied at exponent 0 would miss
    theta = PeriodOperator(((0, 1),))
    residual = apply_operator(theta, TruncatedSeries.one(NilpotentRing(2), 0))
    assert [c.coeffs for c in residual.coeffs] == [(0, 1)]


def test_operator_over_qq_annihilates_holomorphic_period() -> None:
    # QQ is the modulus-one case: phi0 alone solves the operator, phi1 does not.
    op = PeriodOperator.quintic()
    bundle = frobenius_at_zero(30)
    phi0, phi1 = (
        TruncatedSeries.from_coefficients(NilpotentRing(1), bundle.component(k).coeffs)
        for k in (0, 1)
    )
    assert apply_operator(op, phi0).is_zero()
    assert not apply_operator(op, phi1).is_zero()


@pytest.mark.parametrize("ring", [QQ, ZETA5_FIELD], ids=str)
def test_operator_refuses_a_series_outside_the_nilpotent_rings(ring) -> None:
    # the ansatz exponent is the generator of QQ[a]/(a^N); NilpotentRing(1)
    # stands in for QQ, and a series over QQ itself is a ring mismatch
    with pytest.raises(RingMismatchError, match=f", not {re.escape(str(ring))}$"):
        apply_operator(PeriodOperator.quintic(), TruncatedSeries.one(ring, 3))


def test_component_index_names_the_modulus_bound() -> None:
    bundle = frobenius_at_zero(2, modulus_degree=3)
    for k in (-1, 3):
        with pytest.raises(IndexError, match=rf"^component {k} outside 0\.\.2$"):
            bundle.component(k)


def test_order_zero_gives_the_one_term_bundle() -> None:
    bundle = frobenius_at_zero(0)
    assert bundle.series.order == 0
    assert bundle.series.coeffs == (NilpotentRing(4).one(),)
    assert [bundle.component(k).coeffs for k in range(4)] == [(1,), (0,), (0,), (0,)]
    with pytest.raises(ValueError, match="order must be >= 0"):
        frobenius_at_zero(-1)


def test_modulus_one_gives_plain_holomorphic_series() -> None:
    bundle = frobenius_at_zero(3, modulus_degree=1)
    assert apply_operator(PeriodOperator.quintic(), bundle.series).is_zero()
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
    assert trace == CyclotomicElement.constant(-1)
    assert gauss_jordan(m.field, m.rows, m.size)[2].coeffs == (1, 0, 0, 0)


def test_power_basis_conjugate_keeps_order_and_trace() -> None:
    m = monodromy_at_infinity_power_basis().matrix
    assert (m**5).is_identity()
    assert not m.is_identity()
    trace = m.entry(0, 0)
    for i in range(1, 4):
        trace = trace + m.entry(i, i)
    assert trace == CyclotomicElement.constant(-1)
