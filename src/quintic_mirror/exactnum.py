"""Exact coefficient rings and truncated power series.

Everything here is exact.  Three coefficient rings are provided:

* the rationals QQ (plain ``fractions.Fraction``),
* the nilpotent ring QQ[a]/(a^N), used to carry a solution and its
  logarithmic partners in a single series,
* the cyclotomic field QQ(zeta_5), used for monodromy eigenvalues.

On top of these sits :class:`TruncatedSeries`, a power series truncated at
a fixed order, with an optional symbolic exponent shift so that objects
like x^s * (sum of c_n x^n) can be manipulated without ever leaving exact
arithmetic.  No floats appear in this module.
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


def rational_str(q) -> str:
    """Serialize a rational as ``"num/den"`` with den > 0; zero is ``"0/1"``."""
    q = _as_fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a bare integer string) into a Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


@frozen
class NilpotentElement:
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

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

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

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.degree
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                b = o.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return NilpotentElement(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "NilpotentElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = NilpotentElement.constant(1, self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "NilpotentElement":
        """Invert via the terminating geometric series in the nilpotent part."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("constant term is zero; element is not a unit")
        # self = c0 * (1 + m) with m nilpotent, so 1/self = (1/c0) * sum (-m)^k.
        m = NilpotentElement((Fraction(0),) + tuple(c / c0 for c in self.coeffs[1:]))
        total = NilpotentElement.constant(1, self.degree)
        term = NilpotentElement.constant(1, self.degree)
        for k in range(1, self.degree):
            term = term * m
            if term.is_zero():
                break
            total = total + term if k % 2 == 0 else total - term
        return NilpotentElement(tuple(c / c0 for c in total.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()


_ZETA_DIM = 4  # QQ(zeta_5) has degree 4 over QQ; basis 1, z, z^2, z^3


@frozen
class CyclotomicElement:
    """An element of QQ(zeta_5) in the power basis 1, zeta, zeta^2, zeta^3."""

    coeffs: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def constant(value) -> "CyclotomicElement":
        return CyclotomicElement((_as_fraction(value), Fraction(0), Fraction(0), Fraction(0)))

    @staticmethod
    def zeta(power: int = 1) -> "CyclotomicElement":
        """zeta_5^power, reduced into the power basis."""
        work = [Fraction(0)] * 5
        work[power % 5] = Fraction(1)
        return CyclotomicElement._reduce(work)

    @staticmethod
    def _reduce(work: Sequence[Fraction]) -> "CyclotomicElement":
        # work holds coefficients of 1, z, z^2, z^3, z^4 with z^5 = 1;
        # eliminate z^4 using 1 + z + z^2 + z^3 + z^4 = 0.
        c4 = work[4]
        return CyclotomicElement(tuple(work[i] - c4 for i in range(4)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    @property
    def rational_part(self) -> Fraction:
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CyclotomicElement(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        work = [Fraction(0)] * 5
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b != 0:
                    work[(i + j) % 5] += a * b
        return CyclotomicElement._reduce(work)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CyclotomicElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicElement.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k: int) -> "CyclotomicElement":
        """Apply the field automorphism zeta -> zeta^k (k coprime to 5)."""
        if k % 5 == 0:
            raise ValueError("zeta -> zeta^k needs k coprime to 5")
        work = [Fraction(0)] * 5
        for e, c in enumerate(self.coeffs):
            work[(e * k) % 5] += c
        return CyclotomicElement._reduce(work)

    def inverse(self) -> "CyclotomicElement":
        """Invert using the product of Galois conjugates: 1/x = conj(x)/N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in QQ(zeta_5)")
        conj = self.galois(2) * self.galois(3) * self.galois(4)
        norm = self * conj
        if not norm.is_rational():
            raise AssertionError("norm computation left the rationals")
        n = norm.rational_part
        return CyclotomicElement(tuple(c / n for c in conj.coeffs))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()


def _convolve(ring, a: Sequence, b: Sequence, order: int) -> tuple:
    """Coefficients 0..order of the product of a and b, one ring operation at a time."""
    out = [ring.zero() for _ in range(order + 1)]
    for i in range(min(len(a), order + 1)):
        x = a[i]
        if ring.is_zero(x):
            continue
        for j in range(min(len(b), order + 1 - i)):
            y = b[j]
            if not ring.is_zero(y):
                out[i + j] = out[i + j] + x * y
    return tuple(out)


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

    def is_unit(self, x) -> bool:
        return x != 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(1) / x

    def series_product(self, a: Sequence, b: Sequence, order: int) -> tuple:
        """Coefficients 0..order of the product of a and b.

        Each operand is scaled once to integers over the lcm of its
        denominators, the convolution runs on Python ints, and each output
        coefficient becomes one Fraction over the product of the two
        denominators.
        """
        a, den_a = integer_form(a[: order + 1])
        b, den_b = integer_form(b[: order + 1])
        den = den_a * den_b
        return tuple(Fraction(c, den) for c in int_convolve(a, b, order))

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

    def is_unit(self, x) -> bool:
        return x.constant_term != 0

    def invert(self, x):
        return self.coerce(x).inverse()

    def series_product(self, a: Sequence, b: Sequence, order: int) -> tuple:
        return _convolve(self, a, b, order)

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

    def is_unit(self, x) -> bool:
        return not x.is_zero()

    def invert(self, x):
        return self.coerce(x).inverse()

    def series_product(self, a: Sequence, b: Sequence, order: int) -> tuple:
        return _convolve(self, a, b, order)

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
        """Product truncated at the smaller order; shifts add.

        The convolution is the ring descriptor's ``series_product``: over QQ
        it runs on integer numerators over one common denominator per
        operand, over the other rings one ring operation at a time.
        """
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._check_ring(other)
        n = min(self.order, other.order)
        out = self.ring.series_product(self.coeffs, other.coeffs, n)
        return TruncatedSeries(self.ring, out, self.shift + other.shift)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = TruncatedSeries.one(self.ring, self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; needs a unit constant term.

        Over QQ, with self = A/d on ints: b_k = d B_k / A_0^(k+1), where
        B_0 = 1 and B_k = -sum_{j>=1} A_j A_0^(j-1) B_(k-j).  The other rings
        solve sum_{j<=k} a_j b_(k-j) = [k == 0] one ring operation at a time.
        """
        ring, a0 = self.ring, self.coeffs[0]
        if not ring.is_unit(a0):
            raise ValueError("series inverse needs a unit constant term")
        if ring == QQ:
            num, den = integer_form(self.coeffs)
            scaled = [c * num[0] ** (j - 1) for j, c in enumerate(num) if j]
            b = [1]
            for k in range(1, len(num)):
                b.append(-sum(map(operator.mul, scaled[:k], reversed(b))))
            out = [Fraction(den * c, num[0] ** (k + 1)) for k, c in enumerate(b)]
        else:
            inv0 = ring.invert(a0)
            out = [inv0]
            for k in range(1, self.order + 1):
                terms = (self.coeffs[j] * out[k - j] for j in range(1, k + 1))
                out.append(-(inv0 * sum(terms, ring.zero())))
        return TruncatedSeries(ring, tuple(out), -self.shift)

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

    def derivative(self) -> "TruncatedSeries":
        """d/dx of a shift-free series; the order drops by one."""
        if self.has_shift():
            raise ValueError("derivative is only provided for shift-free series")
        if self.order == 0:
            return TruncatedSeries.zero(self.ring, 0)
        out = tuple(
            self.ring.coerce(n) * self.coeffs[n] for n in range(1, self.order + 1)
        )
        return TruncatedSeries(self.ring, out, self.ring.zero())

    def theta(self) -> "TruncatedSeries":
        """x d/dx, valid for any shift: coefficient n picks up (shift + n)."""
        out = tuple(
            (self.shift + self.ring.coerce(n)) * self.coeffs[n]
            for n in range(self.order + 1)
        )
        return TruncatedSeries(self.ring, out, self.shift)

    # -- transcendental operations ------------------------------------

    def log(self) -> "TruncatedSeries":
        """Series logarithm; needs shift zero and constant term 1.

        With self = exp(l), comparing x d/dx of both sides gives the
        triangular recurrence n a_n = sum_{k=1}^{n} k l_k a_{n-k}.
        """
        if self.has_shift():
            raise ValueError("log needs a shift-free series")
        if self.coeffs[0] != self.ring.one():
            raise ValueError("log needs constant term exactly 1")
        n = self.order
        l = [self.ring.zero() for _ in range(n + 1)]
        for m in range(1, n + 1):
            acc = self.ring.zero()
            for k in range(1, m):
                acc = acc + self.ring.coerce(k) * l[k] * self.coeffs[m - k]
            l[m] = (self.ring.coerce(m) * self.coeffs[m] - acc) * self.ring.invert(
                self.ring.coerce(m)
            )
        return TruncatedSeries(self.ring, tuple(l), self.ring.zero())

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

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse b with self(b(x)) = x.

        Needs constant term 0 and a unit linear coefficient.  Lagrange
        inversion: with h = (self/x)^-1, [x^m] b = (1/m) [x^(m-1)] h^m.
        The powers h^m are built one product at a time, so an order-n
        reversion costs n series products, O(n^3) ring operations.
        """
        if self.has_shift():
            raise ValueError("reversion needs a shift-free series")
        if not self.ring.is_zero(self.coeffs[0]):
            raise ValueError("reversion needs constant term 0")
        if self.order < 1 or not self.ring.is_unit(self.coeffs[1]):
            raise ValueError("reversion needs a unit linear coefficient")
        ring = self.ring
        h = self.div_by_power(1).inverse()
        b = [ring.zero(), h.coeffs[0]]
        power = h
        for m in range(2, self.order + 1):
            power = power * h
            b.append(power.coeffs[m - 1] * ring.invert(ring.coerce(m)))
        return TruncatedSeries(ring, tuple(b), ring.zero())

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
