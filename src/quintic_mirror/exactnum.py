"""Exact coefficient rings and truncated power series.

Everything here is exact.  Three coefficient rings are provided:

* the rationals QQ (plain ``fractions.Fraction``),
* the nilpotent ring QQ[a]/(a^N), used to carry a solution and its
  logarithmic partners in a single series,
* the cyclotomic field QQ(zeta_5), used for monodromy eigenvalues, held
  as integer numerators of 1, zeta, zeta^2, zeta^3 over one denominator.

On top of these sits :class:`TruncatedSeries`, a power series truncated at
a fixed order, with an optional symbolic exponent shift so that objects
like x^s * (sum of c_n x^n) can be manipulated without ever leaving exact
arithmetic.  Series products and inverses run over QQ only, through one
kernel each (:func:`series_product`, :func:`series_inverse`) on integer
numerators over one denominator; ``NilpotentElement`` uses the same two,
as QQ[a]/(a^N) is the ring of QQ series in a truncated at order N - 1.
Series over the other rings are containers (the Frobenius bundle, the
operator residual): they add, scale and serialize, and their products
raise :class:`RingMismatchError`.  No floats appear in this module.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from ._frozen import frozen


class RingMismatchError(ValueError):
    """Raised when an operation mixes elements of different rings."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def power(x, k: int, one):
    """x**k by square-and-multiply from the unit `one`; k < 0 powers the inverse."""
    if k < 0:
        x, k = x.inverse(), -k
    result = one
    while k:
        if k & 1:
            result = result * x
        k >>= 1
        if k:
            x = x * x
    return result


def rational_str(q) -> str:
    """Serialize a rational as ``"num/den"`` with den > 0; zero is ``"0/1"``."""
    q = _as_fraction(q)
    return f"{q.numerator}/{q.denominator}"


class _Element:
    """Subtraction, division and powers of a ring element, from its own
    ``_coerce`` (None for a foreign operand), +, unary -, * and ``inverse``."""

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __pow__(self, k: int):
        return power(self, k, self._coerce(1))


@frozen
class NilpotentElement(_Element):
    """An element c_0 + c_1 a + ... + c_{N-1} a^{N-1} of QQ[a]/(a^N)."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def constant(value, degree: int) -> "NilpotentElement":
        c = [Fraction(0)] * degree
        c[0] = _as_fraction(value)
        return NilpotentElement(tuple(c))

    @staticmethod
    def generator(degree: int) -> "NilpotentElement":
        """The class of a, which satisfies a^N = 0."""
        if degree < 2:
            raise ValueError("generator needs modulus degree >= 2")
        c = [Fraction(0)] * degree
        c[1] = Fraction(1)
        return NilpotentElement(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _coerce(self, other):
        if isinstance(other, NilpotentElement):
            if other.degree != self.degree:
                raise RingMismatchError(
                    f"modulus degrees differ: {self.degree} vs {other.degree}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return NilpotentElement.constant(other, self.degree)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NilpotentElement(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "NilpotentElement":
        return NilpotentElement(tuple(-a for a in self.coeffs))

    # QQ[a]/(a^N) is the ring of QQ series in a truncated at order N - 1,
    # so its product and inverse are the series kernels.
    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NilpotentElement(series_product(self.coeffs, o.coeffs, self.degree - 1))

    __rmul__ = __mul__

    def inverse(self) -> "NilpotentElement":
        return NilpotentElement(series_inverse(self.coeffs))


def _zeta_product(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Power-basis numerators of a*b: the 4x4 convolution, with z^5 = 1 and
    then z^4 = -(1 + z + z^2 + z^3) folded back into 1, z, z^2, z^3."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    w4 = a1 * b3 + a2 * b2 + a3 * b1
    return (
        a0 * b0 + a2 * b3 + a3 * b2 - w4,
        a0 * b1 + a1 * b0 + a3 * b3 - w4,
        a0 * b2 + a1 * b1 + a2 * b0 - w4,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - w4,
    )


def _zeta_galois(num: Sequence[int], k: int) -> tuple:
    """Power-basis numerators of the image of num under zeta -> zeta^k."""
    work = [0] * 5
    for e, c in enumerate(num):
        work[(e * k) % 5] += c
    return tuple(w - work[4] for w in work[:4])


def _cyclotomic(num: tuple, den: int) -> "CyclotomicElement":
    """The element num/den in canonical form, without the checking constructor."""
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    if g != 1:
        num, den = tuple(n // g for n in num), den // g
    x = object.__new__(CyclotomicElement)
    x.__dict__.update(num=num, den=den)
    return x


@frozen
class CyclotomicElement(_Element):
    """An element of QQ(zeta_5) in the power basis 1, zeta, zeta^2, zeta^3.

    Held as integer numerators ``num`` of the four basis elements over one
    positive denominator ``den``, with gcd(den, *num) = 1, so equal
    elements have equal fields.  ``CyclotomicElement(coeffs)`` takes four
    rationals; ``coeffs`` gives them back as Fractions.
    """

    num: tuple[int, int, int, int]
    den: int

    def __init__(self, coeffs: Sequence):
        coeffs = [_as_fraction(c) for c in coeffs]
        if len(coeffs) != 4:
            raise ValueError("QQ(zeta_5) elements have four power-basis coefficients")
        num, den = integer_form(coeffs)
        self.__dict__.update(_cyclotomic(tuple(num), den).__dict__)

    @staticmethod
    def constant(value) -> "CyclotomicElement":
        q = _as_fraction(value)
        return _cyclotomic((q.numerator, 0, 0, 0), q.denominator)

    @staticmethod
    def zeta(power: int = 1) -> "CyclotomicElement":
        """zeta_5^power, reduced into the power basis."""
        return _cyclotomic(_zeta_galois((0, 1, 0, 0), power), 1)

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.constant(other)
        return None

    def _combine(self, other, op):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _cyclotomic(tuple(map(op, self.num, o.num)), da)
        return _cyclotomic(tuple(op(a * db, b * da) for a, b in zip(self.num, o.num)), da * db)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElement":
        return _cyclotomic(tuple(-n for n in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _cyclotomic(_zeta_product(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Invert using the product of Galois conjugates: 1/x = conj(x)/N(x).

        On numerators: conj(x) = c/den^3 and N(x) = n/den^4, so 1/x = c den/n.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in QQ(zeta_5)")
        num = self.num
        c = _zeta_product(
            _zeta_product(_zeta_galois(num, 2), _zeta_galois(num, 3)), _zeta_galois(num, 4)
        )
        n, *rest = _zeta_product(num, c)
        if any(rest):
            raise AssertionError("norm computation left the rationals")
        return _cyclotomic(tuple(x * self.den for x in c), n)


def integer_form(coeffs: Sequence) -> tuple:
    """Rationals as (integer numerators, common denominator)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def int_convolve(a: Sequence[int], b: Sequence[int], order: int) -> list:
    """Coefficients 0..order of the product of two integer sequences."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


def series_product(a: Sequence, b: Sequence, order: int) -> tuple:
    """Coefficients 0..order of the product of two rational sequences.

    Each operand is scaled once to integers over the lcm of its
    denominators, the convolution runs on Python ints, and each output
    coefficient becomes one Fraction over the product of the two
    denominators.
    """
    a, den_a = integer_form(a[: order + 1])
    b, den_b = integer_form(b[: order + 1])
    den = den_a * den_b
    return tuple(Fraction(c, den) for c in int_convolve(a, b, order))


def series_inverse(a: Sequence) -> tuple:
    """Coefficients 0..len(a)-1 of 1/a for a rational sequence a with a_0 != 0.

    With a = A/d on ints: b_k = d B_k / A_0^(k+1), where B_0 = 1 and
    B_k = -sum_{j>=1} A_j A_0^(j-1) B_(k-j).
    """
    if a[0] == 0:
        raise ZeroDivisionError("constant term is zero; not a unit")
    num, den = integer_form(a)
    scaled = [c * num[0] ** (j - 1) for j, c in enumerate(num) if j]
    b = [1]
    for k in range(1, len(num)):
        b.append(-sum(map(operator.mul, scaled[:k], reversed(b))))
    return tuple(Fraction(den * c, num[0] ** (k + 1)) for k, c in enumerate(b))


@frozen
class RationalField:
    """Descriptor for QQ; elements are ``fractions.Fraction``."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return _as_fraction(value)
        raise RingMismatchError(f"cannot coerce {value!r} into QQ")

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(1) / x

    def element_to_json(self, x):
        return rational_str(x)

    def __str__(self) -> str:
        return "QQ"


@frozen
class NilpotentRing:
    """Descriptor for QQ[a]/(a^modulus_degree)."""

    modulus_degree: int = 4

    def __post_init__(self):
        if self.modulus_degree < 1:
            raise ValueError("modulus degree must be positive")

    def zero(self):
        return NilpotentElement.constant(0, self.modulus_degree)

    def one(self):
        return NilpotentElement.constant(1, self.modulus_degree)

    def generator(self):
        return NilpotentElement.generator(self.modulus_degree)

    def coerce(self, value):
        if isinstance(value, NilpotentElement):
            if value.degree != self.modulus_degree:
                raise RingMismatchError(
                    f"element lives in a^{value.degree} quotient, ring is a^{self.modulus_degree}"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return NilpotentElement.constant(value, self.modulus_degree)
        raise RingMismatchError(f"cannot coerce {value!r} into {self}")

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def invert(self, x):
        return self.coerce(x).inverse()

    def element_to_json(self, x):
        return [rational_str(c) for c in x.coeffs]

    def __str__(self) -> str:
        return f"QQ[a]/(a^{self.modulus_degree})"


@frozen
class CyclotomicField:
    """Descriptor for QQ(zeta_5)."""

    def zero(self):
        return CyclotomicElement.constant(0)

    def one(self):
        return CyclotomicElement.constant(1)

    def zeta(self, power: int = 1):
        return CyclotomicElement.zeta(power)

    def coerce(self, value):
        if isinstance(value, CyclotomicElement):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicElement.constant(value)
        raise RingMismatchError(f"cannot coerce {value!r} into QQ(zeta_5)")

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def invert(self, x):
        return self.coerce(x).inverse()

    def element_to_json(self, x):
        return [rational_str(c) for c in x.coeffs]

    def __str__(self) -> str:
        return "QQ(zeta_5)"


QQ = RationalField()
ZETA5_FIELD = CyclotomicField()

Ring = RationalField | NilpotentRing | CyclotomicField


@frozen
class TruncatedSeries:
    """A power series x^shift * sum_{n=0}^{order} coeffs[n] x^n, exact and truncated.

    ``order`` is the largest retained exponent (inclusive); arithmetic
    truncates everything beyond it and shrinks the order to whatever is
    actually known, never inventing coefficients.  ``shift`` is a symbolic
    exponent prefactor living in the coefficient ring; series with different
    shifts cannot be added, and shifts add under multiplication.
    """

    ring: Ring
    coeffs: tuple
    shift: object

    # -- construction -------------------------------------------------

    @staticmethod
    def from_coefficients(ring: Ring, coeffs: Sequence, shift=None) -> "TruncatedSeries":
        sh = ring.coerce(shift) if shift is not None else ring.zero()
        return TruncatedSeries(ring, tuple(ring.coerce(c) for c in coeffs), sh)

    @staticmethod
    def constant(ring: Ring, value, order: int) -> "TruncatedSeries":
        coeffs = [ring.zero()] * (order + 1)
        coeffs[0] = ring.coerce(value)
        return TruncatedSeries(ring, tuple(coeffs), ring.zero())

    @staticmethod
    def zero(ring: Ring, order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(ring, 0, order)

    @staticmethod
    def one(ring: Ring, order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(ring, 1, order)

    @staticmethod
    def variable(ring: Ring, order: int) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("order must be >= 1 to hold the variable itself")
        coeffs = [ring.zero()] * (order + 1)
        coeffs[1] = ring.one()
        return TruncatedSeries(ring, tuple(coeffs), ring.zero())

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside retained range 0..{self.order}")
        return self.coeffs[n]

    def has_shift(self) -> bool:
        return not self.ring.is_zero(self.shift)

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        return TruncatedSeries(self.ring, self.coeffs[: order + 1], self.shift)

    def _check_ring(self, other: "TruncatedSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(f"series rings differ: {self.ring} vs {other.ring}")

    def _check_qq(self, *others: "TruncatedSeries") -> None:
        for series in (self, *others):
            if series.ring != QQ:
                raise RingMismatchError(f"series products run over QQ, not {series.ring}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.ring, other, self.order)
            # constants carry shift zero; fall through to the strict check
        self._check_ring(other)
        if self.shift != other.shift:
            raise ValueError("cannot add series with different exponent shifts")
        n = min(self.order, other.order)
        return TruncatedSeries(
            self.ring,
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)),
            self.shift,
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.ring, tuple(-c for c in self.coeffs), self.shift)

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.ring, other, self.order)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, scalar) -> "TruncatedSeries":
        s = self.ring.coerce(scalar)
        return TruncatedSeries(self.ring, tuple(s * c for c in self.coeffs), self.shift)

    def __mul__(self, other):
        """Product over QQ by :func:`series_product`, truncated at the smaller
        order; shifts add."""
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_qq(other)
        n = min(self.order, other.order)
        out = series_product(self.coeffs, other.coeffs, n)
        return TruncatedSeries(QQ, out, self.shift + other.shift)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return power(self, k, TruncatedSeries.one(self.ring, self.order))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse over QQ by :func:`series_inverse`; needs a
        nonzero constant term."""
        self._check_qq()
        if self.coeffs[0] == 0:
            raise ValueError("series inverse needs a unit constant term")
        return TruncatedSeries(QQ, series_inverse(self.coeffs), -self.shift)

    def __truediv__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(self.ring.invert(self.ring.coerce(other)))
        return self * other.inverse()

    # -- exponent bookkeeping -----------------------------------------

    def mul_by_power(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k (k >= 0); the retained order grows accordingly."""
        if k < 0:
            raise ValueError("use div_by_power for negative powers")
        zeros = tuple(self.ring.zero() for _ in range(k))
        return TruncatedSeries(self.ring, zeros + self.coeffs, self.shift)

    def div_by_power(self, k: int) -> "TruncatedSeries":
        """Divide by x^k; the first k coefficients must vanish."""
        if k < 0:
            raise ValueError("power must be >= 0")
        if any(not self.ring.is_zero(c) for c in self.coeffs[:k]):
            raise ValueError(f"series is not divisible by x^{k}")
        return TruncatedSeries(self.ring, self.coeffs[k:], self.shift)

    # -- calculus ------------------------------------------------------

    def theta(self) -> "TruncatedSeries":
        """x d/dx, valid for any shift: coefficient n picks up (shift + n)."""
        out = tuple(
            (self.shift + self.ring.coerce(n)) * self.coeffs[n]
            for n in range(self.order + 1)
        )
        return TruncatedSeries(self.ring, out, self.shift)

    # -- transcendental operations ------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Series exponential; needs shift zero and constant term 0.

        With e = exp(self), x d/dx gives n e_n = sum_{k=1}^{n} k a_k e_{n-k}.
        """
        if self.has_shift():
            raise ValueError("exp needs a shift-free series")
        if not self.ring.is_zero(self.coeffs[0]):
            raise ValueError("exp needs constant term exactly 0")
        n = self.order
        e = [self.ring.zero() for _ in range(n + 1)]
        e[0] = self.ring.one()
        for m in range(1, n + 1):
            acc = self.ring.zero()
            for k in range(1, m + 1):
                acc = acc + self.ring.coerce(k) * self.coeffs[k] * e[m - k]
            e[m] = acc * self.ring.invert(self.ring.coerce(m))
        return TruncatedSeries(self.ring, tuple(e), self.ring.zero())

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)); the inner series must have constant term 0."""
        self._check_ring(inner)
        if self.has_shift() or inner.has_shift():
            raise ValueError("composition needs shift-free series")
        if not self.ring.is_zero(inner.coeffs[0]):
            raise ValueError("inner series must vanish at 0")
        n = min(self.order, inner.order)
        inner_t = inner.truncate(n)
        result = TruncatedSeries.constant(self.ring, self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner_t + TruncatedSeries.constant(self.ring, self.coeffs[k], n)
        return result

    def reversion(self, *outer: "TruncatedSeries"):
        """Compositional inverse b with self(b(x)) = x, and g(b) for each g in outer.

        Needs shift-free QQ series, self with constant term 0 and a nonzero
        linear coefficient.  Lagrange-Buermann: with h = (self/x)^-1,

            [x^m] b = (1/m) [x^(m-1)] h^m,
            [x^m] g(b) = (1/m) [x^(m-1)] g' h^m   (m >= 1),   g(b)_0 = g_0.

        One loop builds the powers h^m on integer numerators, one product at
        a time: n products, O(n^3) integer operations at order n, plus one
        O(m) dot product per g and m.  Each g(b) stops at the smaller of g's
        order and self's.  Returns b alone, or (b, g_1(b), ...) given outer.
        """
        if any(g.has_shift() for g in (self, *outer)):
            raise ValueError("reversion needs shift-free series")
        self._check_qq(*outer)
        if self.coeffs[0] != 0:
            raise ValueError("reversion needs constant term 0")
        if self.order < 1 or self.coeffs[1] == 0:
            raise ValueError("reversion needs a unit linear coefficient")
        n = self.order
        h, den = integer_form(self.div_by_power(1).inverse().coeffs)
        # b itself is g(b) for g = x; k g_k as integer numerators over one
        # denominator per g
        gs = (TruncatedSeries.variable(QQ, n), *outer)
        slopes = [integer_form([k * c for k, c in enumerate(g.coeffs[: n + 1])]) for g in gs]
        composed = [[g.coeffs[0]] for g in gs]
        power, power_den = [1], 1  # h^m = power / power_den
        for m in range(1, n + 1):
            power, power_den = int_convolve(power, h, n - 1), power_den * den
            for (num, num_den), out in zip(slopes, composed):
                if m < len(num):
                    dot = sum(map(operator.mul, num[1 : m + 1], reversed(power[:m])))
                    out.append(Fraction(dot, m * power_den * num_den))
        series = tuple(TruncatedSeries(QQ, tuple(c), Fraction(0)) for c in composed)
        return series if outer else series[0]

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        """Structured form: coefficients (and shift) rendered as num/den strings."""
        doc = {"coefficients": [self.ring.element_to_json(c) for c in self.coeffs]}
        if self.has_shift():
            doc["shift"] = self.ring.element_to_json(self.shift)
        return doc

    def __str__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[: min(5, len(self.coeffs))])
        tail = ", ..." if self.order >= 5 else ""
        base = f"series[{self.ring}; order {self.order}]({shown}{tail})"
        if self.has_shift():
            return f"x^({self.shift}) * {base}"
        return base
