from __future__ import annotations

import math
import random
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
    rational_str,
    series_product,
)


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


# -- rationals ---------------------------------------------------------------


def test_rational_str_normalizes() -> None:
    assert rational_str(Fraction(3, 4)) == "3/4"
    assert rational_str(Fraction(-6, 8)) == "-3/4"
    assert rational_str(0) == "0/1"
    assert rational_str(7) == "7/1"


# -- nilpotent ring ----------------------------------------------------------


def test_nilpotent_generator_truncates() -> None:
    a = NilpotentElement.generator(4)
    assert (a**3).coeffs == (0, 0, 0, 1)
    assert (a**4).is_zero()
    assert (a * a * a * a).is_zero()


def test_nilpotent_geometric_inverse() -> None:
    a = NilpotentElement.generator(4)
    one = NilpotentElement.constant(1, 4)
    inv = (one + a).inverse()
    assert inv.coeffs == (1, -1, 1, -1)
    assert ((one + a) * inv).coeffs == (1, 0, 0, 0)


def test_nilpotent_random_units_invert(seed: int = 20260822) -> None:
    rng = random.Random(seed)
    ring = NilpotentRing(5)
    for _ in range(25):
        coeffs = [_random_fraction(rng) for _ in range(5)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        x = NilpotentElement(tuple(coeffs))
        assert (x * x.inverse()).coeffs == ring.one().coeffs


def test_nilpotent_nonunit_inverse_fails() -> None:
    a = NilpotentElement.generator(3)
    with pytest.raises(ZeroDivisionError):
        a.inverse()


def test_nilpotent_degree_mismatch() -> None:
    a3 = NilpotentElement.generator(3)
    a4 = NilpotentElement.generator(4)
    with pytest.raises(RingMismatchError):
        _ = a3 + a4


# -- cyclotomic field --------------------------------------------------------


def test_zeta_fifth_power_is_one() -> None:
    z = CyclotomicElement.zeta()
    assert (z**5).coeffs == (1, 0, 0, 0)
    assert (z**7).coeffs == (z**2).coeffs


def test_zeta_power_sum_vanishes() -> None:
    z = CyclotomicElement.zeta()
    total = CyclotomicElement.constant(1)
    for k in range(1, 5):
        total = total + z**k
    assert total.is_zero()


def test_cyclotomic_random_inverse(seed: int = 20260822) -> None:
    rng = random.Random(seed)
    for _ in range(25):
        x = CyclotomicElement(tuple(_random_fraction(rng) for _ in range(4)))
        if x.is_zero():
            x = CyclotomicElement.constant(1)
        assert (x * x.inverse()).coeffs == (1, 0, 0, 0)


def test_cyclotomic_zero_inverse_fails() -> None:
    with pytest.raises(ZeroDivisionError):
        CyclotomicElement.constant(0).inverse()


# QQ(zeta_5) on four Fractions, the schoolbook way: the reference the
# integer-numerator element is checked against below.


def _fold(work) -> tuple:
    # coefficients of 1, z, .., z^4 with z^5 = 1; z^4 = -(1 + z + z^2 + z^3)
    return tuple(work[i] - work[4] for i in range(4))


def _ref_mul(a, b) -> tuple:
    work = [Fraction(0)] * 5
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            work[(i + j) % 5] += x * y
    return _fold(work)


def _ref_galois(a, k: int) -> tuple:
    work = [Fraction(0)] * 5
    for e, c in enumerate(a):
        work[(e * k) % 5] += c
    return _fold(work)


def _ref_inverse(a) -> tuple:
    conj = _ref_mul(_ref_mul(_ref_galois(a, 2), _ref_galois(a, 3)), _ref_galois(a, 4))
    norm = _ref_mul(a, conj)
    assert norm[1:] == (0, 0, 0)
    return tuple(c / norm[0] for c in conj)


def _ref_pow(a, k: int) -> tuple:
    if k < 0:
        a, k = _ref_inverse(a), -k
    out = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _wide_fraction(rng: random.Random) -> Fraction:
    """Large numerators, denominators of either sign and unrelated sizes, some zeros."""
    if rng.random() < 0.15:
        return Fraction(0)
    den = rng.choice([1, -1, 2, -6, 7**9, -(10**12 + 39), rng.randint(-(10**25), -1)])
    return Fraction(rng.randint(-(10**30), 10**30), den)


def _assert_canonical(x: CyclotomicElement) -> None:
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    assert all(isinstance(c, Fraction) for c in x.coeffs)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_cyclotomic_integer_form_matches_the_fraction_reference(seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(30):
        a = tuple(_wide_fraction(rng) for _ in range(4))
        b = tuple(_wide_fraction(rng) for _ in range(4))
        x, y = CyclotomicElement(a), CyclotomicElement(b)
        assert x.coeffs == a and y.coeffs == b
        cases = [
            (x * y, _ref_mul(a, b)),
            (x + y, tuple(p + q for p, q in zip(a, b))),
            (x - y, tuple(p - q for p, q in zip(a, b))),
            (-x, tuple(-p for p in a)),
            (x * b[0], tuple(p * b[0] for p in a)),
            (b[1] - x, tuple(int(i == 0) * b[1] - p for i, p in enumerate(a))),
        ]
        cases += [(x**k, _ref_pow(a, k)) for k in (0, 1, 2, 3, 5)]
        if any(a):
            cases += [(x.inverse(), _ref_inverse(a)), (x**-2, _ref_pow(a, -2))]
            cases += [(y / x, _ref_mul(b, _ref_inverse(a)))]
            assert x * x.inverse() == CyclotomicElement.constant(1)
        for got, want in cases:
            _assert_canonical(got)
            assert got.coeffs == want
            assert got == CyclotomicElement(want)
            assert hash(got) == hash(CyclotomicElement(want))


def test_cyclotomic_equal_values_by_different_routes_are_equal() -> None:
    z = CyclotomicElement.zeta()
    pairs = [
        (CyclotomicElement.constant(Fraction(2, 4)), CyclotomicElement.constant(Fraction(1, 2))),
        ((z * 6) / 6, z),
        (z * Fraction(-3, 7) / Fraction(3, -7), z),
        (CyclotomicElement((2, 4, 6, 8)) * Fraction(1, 2), CyclotomicElement((1, 2, 3, 4))),
        (z + Fraction(1, 3) - Fraction(1, 3), z),
        (z**5, CyclotomicElement.constant(1)),
        (z * z.inverse(), CyclotomicElement((1, 0, 0, 0))),
        (CyclotomicElement.zeta(4), -(1 + z + z**2 + z**3)),
    ]
    for left, right in pairs:
        assert left == right
        assert hash(left) == hash(right)
        assert (left.num, left.den) == (right.num, right.den)
    assert len({left for left, _ in pairs} | {right for _, right in pairs}) == 5
    assert CyclotomicElement.constant(Fraction(1, 2)) != CyclotomicElement.constant(1)


def test_cyclotomic_element_keeps_its_rational_api() -> None:
    x = CyclotomicElement((Fraction(3, 4), 0, Fraction(-5, 6), 2))
    assert x.coeffs == (Fraction(3, 4), 0, Fraction(-5, 6), 2)
    assert all(isinstance(c, Fraction) for c in x.coeffs)
    assert (x.num, x.den) == ((9, 0, -10, 24), 12)
    assert x.rational_part == Fraction(3, 4) and not x.is_rational()
    assert CyclotomicElement.constant(Fraction(-7, 3)).is_rational()
    assert CyclotomicElement((0, 0, 0, 0)).is_zero()
    assert CyclotomicElement((0, 0, 0, 0)).den == 1
    with pytest.raises(ValueError):
        CyclotomicElement((1, 2, 3))
    with pytest.raises(TypeError):
        CyclotomicElement((1.5, 0, 0, 0))
    with pytest.raises(AttributeError):
        x.den = 1


# -- truncated series --------------------------------------------------------


def test_series_order_is_inclusive() -> None:
    s = TruncatedSeries.from_coefficients(QQ, [1, 2, 3])
    assert s.order == 2
    assert s.coefficient(2) == 3
    with pytest.raises(IndexError):
        s.coefficient(3)


def test_series_geometric_inverse() -> None:
    one_minus_x = TruncatedSeries.from_coefficients(QQ, [1, -1, 0, 0, 0, 0])
    inv = one_minus_x.inverse()
    assert inv.coeffs == tuple(Fraction(1) for _ in range(6))


def test_series_exp_coefficients_are_reciprocal_factorials() -> None:
    x = TruncatedSeries.variable(QQ, 8)
    assert x.exp().coeffs == tuple(Fraction(1, math.factorial(n)) for n in range(9))


def test_series_exp_turns_sums_into_products(seed: int = 11) -> None:
    rng = random.Random(seed)
    for _ in range(15):
        f, g = (
            TruncatedSeries.from_coefficients(
                QQ, [0] + [_random_fraction(rng) for _ in range(6)]
            )
            for _ in range(2)
        )
        assert (f + g).exp().coeffs == (f.exp() * g.exp()).coeffs


def test_series_binomial_power() -> None:
    f = TruncatedSeries.from_coefficients(QQ, [1, 1, 0, 0, 0, 0])
    assert (f**5).coeffs == (1, 5, 10, 10, 5, 1)


def test_series_theta_matches_x_ddx() -> None:
    f = TruncatedSeries.from_coefficients(QQ, [3, 1, 4, 1, 5])
    assert f.theta().coeffs == (0, 1, 8, 3, 20)


def test_series_shift_addition_rules() -> None:
    base = TruncatedSeries.from_coefficients(QQ, [1, 2], shift=Fraction(1, 5))
    other = TruncatedSeries.from_coefficients(QQ, [1, 0], shift=Fraction(2, 5))
    product = base * other
    assert product.shift == Fraction(3, 5)
    with pytest.raises(ValueError):
        _ = base + other


def test_series_shifted_theta_sees_exponent() -> None:
    # theta(x^(1/5) * 1) = (1/5) x^(1/5)
    s = TruncatedSeries.from_coefficients(QQ, [1, 1], shift=Fraction(1, 5))
    assert s.theta().coeffs == (Fraction(1, 5), Fraction(6, 5))


def test_mul_by_power_grows_and_div_shrinks() -> None:
    f = TruncatedSeries.from_coefficients(QQ, [1, 2, 3])
    g = f.mul_by_power(2)
    assert g.order == 4
    assert g.coeffs == (0, 0, 1, 2, 3)
    back = g.div_by_power(2)
    assert back.coeffs == f.coeffs
    with pytest.raises(ValueError):
        f.div_by_power(1)


def test_truncate_cannot_extend() -> None:
    f = TruncatedSeries.from_coefficients(QQ, [1, 2, 3])
    assert f.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        f.truncate(5)


def test_compose_matches_polynomial_substitution() -> None:
    outer = TruncatedSeries.from_coefficients(QQ, [1, 1, 1, 0, 0])
    inner = TruncatedSeries.from_coefficients(QQ, [0, 2, 1, 0, 0])
    got = outer.compose(inner)
    # 1 + (2x + x^2) + (2x + x^2)^2 = 1 + 2x + 5x^2 + 4x^3 + x^4
    assert got.coeffs == (1, 2, 5, 4, 1)


def test_compose_truncates_to_min_order() -> None:
    outer = TruncatedSeries.from_coefficients(QQ, [1, 1, 1, 1, 1, 1])
    inner = TruncatedSeries.from_coefficients(QQ, [0, 1, 1])
    assert outer.compose(inner).order == 2


def test_reversion_catalan_oracle() -> None:
    # The inverse of f = z + z^2 solves g + g^2 = z, whose coefficients are
    # signed Catalan numbers; freeze the first few and re-check by
    # back-substitution.
    f = TruncatedSeries.from_coefficients(QQ, [0, 1, 1, 0, 0, 0])
    g = f.reversion()
    assert g.coeffs == (0, 1, -1, 2, -5, 14)
    assert (g + g * g).truncate(5).coeffs == (0, 1, 0, 0, 0, 0)


def test_reversion_round_trip(seed: int = 5) -> None:
    rng = random.Random(seed)
    for _ in range(10):
        coeffs = [Fraction(0), Fraction(1)] + [_random_fraction(rng) for _ in range(6)]
        f = TruncatedSeries.from_coefficients(QQ, coeffs)
        g = f.reversion()
        ident = f.compose(g)
        assert ident.coeffs == tuple(
            Fraction(1) if n == 1 else Fraction(0) for n in range(ident.order + 1)
        )


def test_reversion_requires_unit_linear_term() -> None:
    f = TruncatedSeries.from_coefficients(QQ, [0, 0, 1, 0])
    with pytest.raises(ValueError):
        f.reversion()


def test_series_over_nilpotent_ring() -> None:
    # Series over QQ[a]/(a^N) and QQ(zeta_5) are containers: they add and
    # serialize, but products and inverses run over QQ only.
    ring = NilpotentRing(2)
    a = ring.generator()
    f = TruncatedSeries.from_coefficients(ring, [1, a, 0])
    g = TruncatedSeries.from_coefficients(ring, [1, -a, 0])
    assert (f + g).coeffs == TruncatedSeries.constant(ring, 2, 2).coeffs
    with pytest.raises(RingMismatchError):
        f * g
    with pytest.raises(RingMismatchError):
        f.inverse()
    with pytest.raises(RingMismatchError):
        TruncatedSeries.variable(QQ, 2) * g
    h = TruncatedSeries.from_coefficients(ZETA5_FIELD, [1, 1, 0])
    with pytest.raises(RingMismatchError):
        h * h


def test_series_json_shape() -> None:
    plain = TruncatedSeries.from_coefficients(QQ, [1, Fraction(1, 2)])
    doc = plain.to_json()
    assert doc["coefficients"] == ["1/1", "1/2"]
    assert "shift" not in doc
    shifted = TruncatedSeries.from_coefficients(QQ, [1], shift=Fraction(2, 5))
    assert shifted.to_json()["shift"] == "2/5"


# -- Lagrange reversion and the integer QQ product ---------------------------


def _nonzero_fraction(rng: random.Random) -> Fraction:
    value = _random_fraction(rng)
    while value == 0:
        value = _random_fraction(rng)
    return value


def _random_reversible(ring, rng: random.Random, order: int) -> TruncatedSeries:
    rest = [_random_fraction(rng) for _ in range(order - 1)]
    return TruncatedSeries.from_coefficients(ring, [0, _nonzero_fraction(rng)] + rest)


def _naive_product(ring, p, q, order: int) -> list:
    out = [ring.zero()] * (order + 1)
    for i in range(min(len(p), order + 1)):
        for j in range(min(len(q), order + 1 - i)):
            out[i + j] = out[i + j] + p[i] * q[j]
    return out


def _naive_compose(ring, outer, inner, order: int) -> list:
    result = [ring.zero()] * (order + 1)
    for c in reversed(outer[: order + 1]):
        result = _naive_product(ring, result, inner, order)
        result[0] = result[0] + c
    return result


def _reference_reversion(f: TruncatedSeries) -> tuple:
    """O(n^4) reversion: fix each coefficient from the defect of f(b) - x."""
    ring = f.ring
    a1_inv = ring.invert(f.coeffs[1])
    b = [ring.zero(), a1_inv]
    for m in range(2, f.order + 1):
        defect = _naive_compose(ring, f.coeffs[: m + 1], b + [ring.zero()], m)[m]
        b.append(-(a1_inv * defect))
    return tuple(b)


@pytest.mark.parametrize("ring", [QQ], ids=str)
def test_lagrange_reversion_is_a_two_sided_inverse(ring) -> None:
    rng = random.Random(11)
    for order in (1, 2, 5, 7):
        f = _random_reversible(ring, rng, order)
        b = f.reversion()
        x = TruncatedSeries.variable(ring, order).coeffs
        assert b.order == order
        assert f.compose(b).coeffs == x
        assert b.compose(f).coeffs == x


@pytest.mark.parametrize("ring", [QQ], ids=str)
def test_lagrange_reversion_matches_term_by_term_reference(ring) -> None:
    rng = random.Random(12)
    for order in (1, 3, 6):
        f = _random_reversible(ring, rng, order)
        assert f.reversion().coeffs == _reference_reversion(f)


def test_reversion_pass_composes_outer_series_with_the_inverse() -> None:
    # The one Lagrange-Buermann pass gives g(b) for each outer g, truncated
    # at the smaller order, equal to composing g with b afterwards.
    rng = random.Random(16)
    for order in range(1, 10):
        for _ in range(3):
            f = _random_reversible(QQ, rng, order)
            g1, g2 = (
                TruncatedSeries.from_coefficients(
                    QQ, [_nonzero_fraction(rng)] + [_random_fraction(rng) for _ in range(k)]
                )
                for k in rng.sample([k for k in range(12) if k != order], 2)
            )
            b = f.reversion()
            assert f.reversion(g1, g2) == (b, g1.compose(b), g2.compose(b))
            assert f.reversion(g1)[1].order == min(g1.order, order)


def test_reversion_pass_rejects_shifted_or_foreign_outer_series() -> None:
    f = TruncatedSeries.from_coefficients(QQ, [0, 1, 1])
    with pytest.raises(ValueError):
        f.reversion(TruncatedSeries.from_coefficients(QQ, [1, 1], shift=Fraction(1, 5)))
    with pytest.raises(RingMismatchError):
        f.reversion(TruncatedSeries.one(NilpotentRing(2), 2))


def test_qq_integer_product_matches_fraction_convolution() -> None:
    # Mixed denominators, runs of zero coefficients and unequal lengths.
    rng = random.Random(13)
    for _ in range(40):
        p = [_random_fraction(rng) for _ in range(rng.randint(1, 9))]
        q = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(rng.randint(1, 9))]
        start = rng.randrange(len(p))
        p[start : start + 3] = [Fraction(0)] * len(p[start : start + 3])
        full = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                full[i + j] += a * b
        order = rng.randrange(len(full))
        got = series_product(tuple(p), tuple(q), order)
        assert got == tuple(full[: order + 1])
        assert all(type(c) is Fraction for c in got)
        product = TruncatedSeries.from_coefficients(QQ, p) * TruncatedSeries.from_coefficients(QQ, q)
        assert product.coeffs == tuple(full[: min(len(p), len(q))])


def test_qq_integer_inverse_matches_fraction_recurrence() -> None:
    # Constant terms other than 1 (negative, non-integer), mixed
    # denominators, zero runs and a shift, against the triangular solve
    # sum_{j=0}^{k} a_j b_{k-j} = [k == 0] done one Fraction at a time.
    rng = random.Random(14)
    for _ in range(40):
        a = [_random_fraction(rng) for _ in range(rng.randint(1, 12))]
        a[0] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**3))
        start = rng.randrange(len(a))
        a[start + 1 : start + 4] = [Fraction(0)] * len(a[start + 1 : start + 4])
        b = [1 / a[0]]
        for k in range(1, len(a)):
            b.append(-sum(a[j] * b[k - j] for j in range(1, k + 1)) / a[0])
        series = TruncatedSeries.from_coefficients(QQ, a, shift=Fraction(2, 5))
        inverse = series.inverse()
        assert inverse.coeffs == tuple(b)
        assert all(type(c) is Fraction for c in inverse.coeffs)
        assert inverse.shift == Fraction(-2, 5)
    with pytest.raises(ValueError):
        TruncatedSeries.from_coefficients(QQ, [0, 1]).inverse()
