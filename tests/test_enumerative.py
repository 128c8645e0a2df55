from __future__ import annotations

import math
from fractions import Fraction

import pytest

from quintic_mirror import enumerative, exactnum
from quintic_mirror.enumerative import (
    IntegralityError,
    PrepotentialError,
    build_mirror_map,
    extract_instantons,
    quantum_ring,
    unnormalized_coupling,
    yukawa_normalized,
)
from quintic_mirror.exactnum import QQ, TruncatedSeries
from quintic_mirror.picard_fuchs import frobenius_at_zero

LINES = 2875
CONICS = 609250
TWISTED_CUBICS = 317206375


# -- an oracle for the mirror map, built from plain list arithmetic ---------
#
# The two ingredients have closed forms: a_n = (5n)!/(n!)^5 and the
# logarithmic correction b_n = a_n * 5 * (H_{5n} - H_n) with harmonic
# numbers H_m.  The oracle computes q(z) = z * exp(b/a) using naive
# polynomial division and exponentiation on coefficient lists, touching
# none of the series machinery under test.


def _oracle_a(n: int) -> Fraction:
    return Fraction(math.factorial(5 * n), math.factorial(n) ** 5)


def _oracle_b(n: int) -> Fraction:
    h = sum(Fraction(1, j) for j in range(n + 1, 5 * n + 1))
    return _oracle_a(n) * 5 * h


def _list_mul(p: list, q: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(p):
        if i > order:
            break
        for j, b in enumerate(q):
            if i + j > order:
                break
            out[i + j] += a * b
    return out


def _oracle_q_of_z(order: int) -> list:
    a = [_oracle_a(n) for n in range(order + 1)]
    b = [_oracle_b(n) for n in range(order + 1)]
    # r = b / a by forward substitution
    r = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        acc = b[n]
        for k in range(n):
            acc -= r[k] * a[n - k]
        r[n] = acc / a[0]
    # exp(r) as sum r^k / k!; r has no constant term so the sum stops
    e = [Fraction(0)] * (order + 1)
    e[0] = Fraction(1)
    power = e[:]
    for k in range(1, order + 1):
        power = _list_mul(power, r, order)
        for n in range(order + 1):
            e[n] += power[n] / math.factorial(k)
    # multiply by z
    return [Fraction(0)] + e[:order]


def test_mirror_map_matches_list_oracle() -> None:
    mirror = build_mirror_map(8)
    oracle = _oracle_q_of_z(8)
    for n in range(9):
        assert mirror.q_of_z.coefficient(n) == oracle[n]


def test_mirror_map_frozen_leading_terms() -> None:
    mirror = build_mirror_map(4)
    assert mirror.q_of_z.coefficient(0) == 0
    assert mirror.q_of_z.coefficient(1) == 1
    assert mirror.q_of_z.coefficient(2) == 770
    assert mirror.q_of_z.coefficient(3) == 1014275
    assert mirror.z_of_q.coefficient(2) == -770
    assert mirror.z_of_q.coefficient(3) == 171525


def test_mirror_map_round_trip() -> None:
    mirror = build_mirror_map(6)
    back = mirror.q_of_z.compose(mirror.z_of_q)
    for n in range(back.order + 1):
        assert back.coefficient(n) == (1 if n == 1 else 0)


def test_mirror_map_rejects_tiny_order() -> None:
    with pytest.raises(ValueError):
        build_mirror_map(1)


# -- couplings ---------------------------------------------------------------


def test_unnormalized_coupling_is_geometric() -> None:
    y = unnormalized_coupling(6)
    for n in range(7):
        assert y.coefficient(n) == 5 * Fraction(3125) ** n


def test_yukawa_frozen_coefficients() -> None:
    kappa = yukawa_normalized(4)
    assert kappa.coefficient(0) == 5
    assert kappa.coefficient(1) == 2875
    assert kappa.coefficient(2) == 4876875
    assert kappa.coefficient(3) == 8564575000
    assert kappa.coefficient(4) == 15517926796875


def test_coupling_by_inverse_matches_composition() -> None:
    # Y(z(q)) = 5 (1 - 3125 z(q))^-1 agrees with Y composed with z(q) at
    # every retained order, because z(q) = q + O(q^2).
    z_of_q = build_mirror_map(8).z_of_q
    by_inverse = (z_of_q.scale(3125).scale(-1) + 1).inverse().scale(5)
    by_composition = unnormalized_coupling(8).compose(z_of_q)
    assert by_inverse.truncate(8).coeffs == by_composition.coeffs


def test_kappa_from_the_pass_matches_the_composition_route() -> None:
    # kappa(q) = Y(z(q)) (theta_q z / z)^3 / phi0(z(q))^2, with phi0 and Y
    # composed with z(q), against K(z(q)) from the Lagrange-Buermann pass.
    for n in range(2, 41):
        mirror = build_mirror_map(n)
        z_of_q = mirror.z_of_q
        phi0 = frobenius_at_zero(n, modulus_degree=2).component(0)
        # theta_q z / z, with the factor q sliced off both
        top, bottom = (TruncatedSeries(QQ, s.coeffs[1:]) for s in (z_of_q.theta(), z_of_q))
        log_derivative = top / bottom
        phi0_of_q = phi0.compose(z_of_q)
        y_of_q = unnormalized_coupling(n).compose(z_of_q)
        kappa = y_of_q * log_derivative**3 * (phi0_of_q * phi0_of_q).inverse()
        assert mirror.kappa.coeffs == kappa.truncate(n).coeffs


def test_coupling_from_one_mirror_map_matches_yukawa() -> None:
    mirror = build_mirror_map(6)
    for order in range(1, 7):
        assert mirror.normalized_coupling(order).coeffs == yukawa_normalized(order).coeffs
    for order in (0, 7):
        with pytest.raises(ValueError):
            mirror.normalized_coupling(order)


def test_yukawa_small_orders() -> None:
    kappa = yukawa_normalized(1)
    assert kappa.order == 1
    assert kappa.coefficient(1) == 2875
    with pytest.raises(ValueError):
        yukawa_normalized(0)


# -- instanton extraction ----------------------------------------------------


def test_first_three_instanton_numbers() -> None:
    table = extract_instantons(yukawa_normalized(3), 3)
    assert table.n[1] == LINES
    assert table.n[2] == CONICS
    assert table.n[3] == TWISTED_CUBICS


def test_instantons_integral_through_degree_ten() -> None:
    table = extract_instantons(yukawa_normalized(12), 10)
    assert table.degrees() == tuple(range(1, 11))
    for d in table.degrees():
        assert isinstance(table.n[d], int)
        assert table.n[d] > 0
    assert table.n[4] == 242467530000
    assert table.n[5] == 229305888887625


def test_extraction_uses_lattice_sum_not_plain_coefficients() -> None:
    # c_2 = n_2 * 8 + n_1 (degree-1 curves contribute to the q^2 term)
    kappa = yukawa_normalized(2)
    table = extract_instantons(kappa, 2)
    assert kappa.coefficient(2) == 8 * table.n[2] + table.n[1]


def test_non_integral_count_is_loud() -> None:
    fake = TruncatedSeries.from_coefficients(QQ, [5, Fraction(1, 2)])
    with pytest.raises(IntegralityError) as info:
        extract_instantons(fake, 1)
    assert info.value.degree == 1
    assert info.value.value == Fraction(1, 2)


def test_non_integral_count_above_degree_one_reports_its_value() -> None:
    # kappa_2 = n_1 + 2^3 n_2: a third above n_1 = 2875 makes n_2 = 1/24, where
    # the denominator is kappa's 3 times 2^3, which degree 1 cannot tell from 3
    fake = TruncatedSeries.from_coefficients(QQ, [5, LINES, LINES + Fraction(1, 3)])
    with pytest.raises(IntegralityError, match=r"^n_2 = 1/24 is not an integer$") as info:
        extract_instantons(fake, 2)
    assert (info.value.degree, info.value.value) == (2, Fraction(1, 24))


def test_prepotential_gate_names_the_first_broken_degree(monkeypatch) -> None:
    # Y off by one at z^3 leaves kappa's first three coefficients alone
    def bumped(order):
        coeffs = list(unnormalized_coupling(order).coeffs)
        coeffs[3] += 1
        return TruncatedSeries(QQ, tuple(coeffs))

    monkeypatch.setattr(enumerative, "unnormalized_coupling", bumped)
    with pytest.raises(PrepotentialError) as info:
        build_mirror_map(8)
    assert info.value.degree == 3


@pytest.mark.parametrize("order", [2, 8])
def test_prepotential_gate_checks_kappas_top_degree(monkeypatch, order) -> None:
    # Y off by one at z^order changes kappa at q^order alone, its last coefficient
    def bumped(n):
        coeffs = list(unnormalized_coupling(n).coeffs)
        coeffs[n] += 1
        return TruncatedSeries(QQ, tuple(coeffs))

    monkeypatch.setattr(enumerative, "unnormalized_coupling", bumped)
    with pytest.raises(PrepotentialError, match=f"at q\\^{order}$") as info:
        build_mirror_map(order)
    assert info.value.degree == order


def test_extraction_needs_enough_coefficients() -> None:
    with pytest.raises(ValueError):
        extract_instantons(yukawa_normalized(2), 5)


# -- the quantum ring --------------------------------------------------------


def test_ring_unit_and_grading() -> None:
    ring = quantum_ring(3)
    one = ring.basis_element(0)
    lam = ring.basis_element(1)
    assert ring.product(one, lam) == lam
    top = ring.product(lam, ring.basis_element(3))
    assert all(c.is_zero() for c in top)


def test_ring_middle_product_carries_yukawa() -> None:
    ring = quantum_ring(3)
    lam = ring.basis_element(1)
    coupling = ring.pairing(ring.product(lam, lam), lam)
    kappa = yukawa_normalized(3)
    assert coupling.coeffs == kappa.coeffs
    assert coupling.coefficient(0) == 5
    assert coupling.coefficient(1) == LINES


def test_ring_frobenius_identity() -> None:
    ring = quantum_ring(3)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                left = ring.pairing(
                    ring.product(ring.basis_element(a), ring.basis_element(b)),
                    ring.basis_element(c),
                )
                right = ring.pairing(
                    ring.basis_element(a),
                    ring.product(ring.basis_element(b), ring.basis_element(c)),
                )
                assert left.coeffs == right.coeffs


def test_ring_associativity_on_basis() -> None:
    ring = quantum_ring(3)
    basis = [ring.basis_element(k) for k in range(4)]
    for x in basis:
        for y in basis:
            for z in basis:
                left = ring.product(ring.product(x, y), z)
                right = ring.product(x, ring.product(y, z))
                for l_comp, r_comp in zip(left, right):
                    assert l_comp.coeffs == r_comp.coeffs


def test_classical_limit_ring() -> None:
    ring = quantum_ring(0)
    assert ring.order == 0
    lam = ring.basis_element(1)
    square = ring.product(lam, lam)
    assert square[2].coefficient(0) == 1
    assert ring.pairing(lam, ring.basis_element(2)).coefficient(0) == 5
    # the quantum ring degenerates to the classical one at q = 0
    quantum = quantum_ring(3)
    q_square = quantum.product(quantum.basis_element(1), quantum.basis_element(1))
    assert q_square[2].coefficient(0) == 1


def test_structure_constants_table() -> None:
    ring = quantum_ring(2)
    e = ring.basis_element
    table = {
        (a, b, c): ring.pairing(ring.product(e(a), e(b)), e(c))
        for a in range(4)
        for b in range(4)
        for c in range(4)
    }
    assert table[(1, 1, 1)].coefficient(1) == LINES
    assert table[(0, 0, 3)].coefficient(0) == 5
    assert table[(3, 3, 3)].is_zero()


def test_mirror_map_runs_on_integer_numerators_without_fraction_round_trips(monkeypatch) -> None:
    # every QQ series stage reads and returns integer numerators over one
    # denominator, so none converts a tuple of Fractions to that form
    calls = []
    integer_form = exactnum.integer_form
    monkeypatch.setattr(exactnum, "integer_form", lambda coeffs: calls.append(1) or integer_form(coeffs))
    mirror = build_mirror_map(32)
    assert calls == []
    assert extract_instantons(mirror.kappa, 3).n == {1: LINES, 2: CONICS, 3: TWISTED_CUBICS}
    TruncatedSeries(QQ, mirror.kappa.coeffs)  # the counter does see a conversion
    assert calls == [1]
