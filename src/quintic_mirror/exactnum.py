"""Exact coefficient rings and truncated power series.

Everything here is exact.  Three coefficient rings are provided:

* the rationals QQ (plain ``fractions.Fraction``),
* the nilpotent ring QQ[a]/(a^N), used to carry a solution and its
  logarithmic partners in a single series,
* the cyclotomic field QQ(zeta_5), used for monodromy eigenvalues, in the
  power basis 1, zeta, zeta^2, zeta^3.

Elements of the last two share one slotted base (no ``__dict__``):
integer numerators over one positive denominator in lowest terms, with
sums, quotients and powers in common; each ring adds only its product of
numerator tuples (a convolution truncated at a^N, or the 4x4 one folded
by zeta^5 = 1) and its inverse, and QQ[a]/(a^N) its own quotient, one
triangular solve.  The ring descriptors coerce.

On top of these sits :class:`TruncatedSeries`, a power series truncated at
a fixed order, with no exponent prefactor: the Frobenius exponent a of a
series sum c_n z^(a+n) is the generator of its ring QQ[a]/(a^N) (see
``picard_fuchs.apply_operator``).  A QQ series truncated at order n is
held as an element of QQ[a]/(a^(n+1)), so product, quotient, exp,
compose and reversion all read and return integer numerators over one
denominator.  Fractions appear only when ``coeffs`` or ``coefficient`` is
read or QQ coerces, built by :func:`fraction`, which imports ``fractions``
at its first call (``gw`` and ``periods`` build none); an int or Fraction
is told by its ``denominator`` attribute, with no import.  Series
over the other rings are containers (the Frobenius bundle, the operator
residual): they add, and the rest raises :class:`RingMismatchError`.
No floats here.
"""

from __future__ import annotations

import math
import operator

from ._frozen import frozen


class RingMismatchError(ValueError):
    """Raised when an operation mixes elements of different rings."""


_Fraction = None  # fractions.Fraction, once fraction() has imported it


def fraction(num, den=None):
    """Fraction(num, den), with ``fractions`` imported at the first call only."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(num, den)


def _rational(value):
    """value, if it is an int or a Fraction (it has a denominator); else a TypeError."""
    if hasattr(value, "denominator"):
        return value
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def power(x, k: int, one):
    """x**k by square-and-multiply; k < 0 powers the inverse.  The unit
    `one` is the answer for k = 0 only, so no product is by one."""
    if k < 0:
        x, k = x.inverse(), -k
    if not k:
        return one
    while not k & 1:
        x, k = x * x, k >> 1
    result, k = x, k >> 1
    while k:
        x = x * x
        if k & 1:
            result = result * x
        k >>= 1
    return result


@frozen
class _Element:
    """A ring element as integer numerators ``num`` over one denominator ``den``.

    den > 0 and gcd(den, *num) = 1, so equal elements have equal fields
    and hashes.  ``Class(coeffs)`` takes rationals and ``coeffs`` gives
    them back as Fractions; :meth:`from_integers` is the canonical
    constructor on ints.  A subclass supplies its constructors,
    ``_product`` of two numerator tuples and ``inverse``.  Elements are
    slotted: the two fields and no ``__dict__``.
    """

    __slots__ = ("num", "den")
    num: tuple
    den: int

    def __init__(self, coeffs: Sequence):
        # over the lcm of reduced denominators, gcd(den, *num) is already 1
        num, den = integer_form([_rational(c) for c in coeffs])
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __reduce__(self):
        return self.from_integers, (self.num, self.den)

    @classmethod
    def from_integers(cls, num: Sequence[int], den: int):
        """The element num/den, with common factors and the sign of den divided out."""
        # last numerator first: num[0] of a Frobenius coefficient is a multiple of den
        g = math.gcd(den, *reversed(num))
        g = g if den > 0 else -g
        if g != 1:
            num, den = [n // g for n in num], den // g
        x = object.__new__(cls)
        object.__setattr__(x, "num", tuple(num))
        object.__setattr__(x, "den", den)
        return x

    @classmethod
    def _constant(cls, value, length: int):
        q = _rational(value)
        return cls.from_integers((q.numerator,) + (0,) * (length - 1), q.denominator)

    @property
    def coeffs(self) -> tuple:
        return tuple(fraction(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def _coerce(self, other):
        """other in self's ring: ints and Fractions become constants, and
        None marks a foreign operand."""
        if isinstance(other, type(self)):
            if len(other.num) != len(self.num):
                raise RingMismatchError(f"modulus degrees differ: {len(self.num)} vs {len(other.num)}")
            return other
        if hasattr(other, "denominator"):
            return self._constant(other, len(self.num))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return self.from_integers(tuple(map(operator.add, self.num, o.num)), da)
        return self.from_integers([a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return self.from_integers([-n for n in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.from_integers(self._product(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, k: int):
        return power(self, k, self._coerce(1))


class NilpotentElement(_Element):
    """An element c_0 + c_1 a + ... + c_{N-1} a^{N-1} of QQ[a]/(a^N).

    QQ[a]/(a^N) is the ring of QQ series in a truncated at order N - 1:
    its product :func:`int_convolve` and its :meth:`inverse` are the one
    product and the one inverse of QQ series, ``TruncatedSeries`` included.
    """

    __slots__ = ()

    @staticmethod
    def constant(value, degree: int) -> "NilpotentElement":
        return NilpotentElement._constant(value, degree)

    @staticmethod
    def generator(degree: int) -> "NilpotentElement":
        """The class of a, which satisfies a^N = 0."""
        if degree < 2:
            raise ValueError("generator needs modulus degree >= 2")
        return NilpotentElement.from_integers((0, 1) + (0,) * (degree - 2), 1)

    @staticmethod
    def _product(a: Sequence[int], b: Sequence[int]) -> list:
        return int_convolve(a, b, len(a) - 1)

    def __truediv__(self, other):
        """With self = Y/e and other = A/d on ints, [a^k] of the quotient is
        d C_k A_0^(N-1-k) / (e A_0^N), where C_k = Y_k A_0^k - sum_{j>=1}
        A_j A_0^(j-1) C_(k-j): one triangular solve, with no inverse formed."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, n = o.num, len(o.num)
        if not a[0]:
            raise ZeroDivisionError("constant term is zero; not a unit")
        scaled = [c * a[0] ** (j - 1) for j, c in enumerate(a) if j]
        c = []
        for k, y in enumerate(self.num):
            c.append(y * a[0] ** k - sum(map(operator.mul, scaled[:k], reversed(c))))
        num = [o.den * x * a[0] ** (n - 1 - k) for k, x in enumerate(c)]
        return NilpotentElement.from_integers(num, self.den * a[0] ** n)

    def inverse(self) -> "NilpotentElement":
        return NilpotentElement.constant(1, len(self.num)) / self


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


class CyclotomicElement(_Element):
    """An element of QQ(zeta_5) in the power basis 1, zeta, zeta^2, zeta^3."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        if len(coeffs) != 4:
            raise ValueError("QQ(zeta_5) elements have four power-basis coefficients")
        super().__init__(coeffs)

    @staticmethod
    def constant(value) -> "CyclotomicElement":
        return CyclotomicElement._constant(value, 4)

    @staticmethod
    def zeta(power: int = 1) -> "CyclotomicElement":
        """zeta_5^power, reduced into the power basis."""
        return CyclotomicElement.from_integers(_zeta_galois((0, 1, 0, 0), power), 1)

    _product = staticmethod(_zeta_product)

    def inverse(self) -> "CyclotomicElement":
        """Invert using the product of Galois conjugates: 1/x = conj(x)/N(x).

        On numerators: conj(x) = c/den^3 and N(x) = n/den^4, so 1/x = c den/n.
        """
        if not self:
            raise ZeroDivisionError("zero has no inverse in QQ(zeta_5)")
        num = self.num
        c = _zeta_product(
            _zeta_product(_zeta_galois(num, 2), _zeta_galois(num, 3)), _zeta_galois(num, 4)
        )
        n, *rest = _zeta_product(num, c)
        if any(rest):
            raise AssertionError("norm computation left the rationals")
        return CyclotomicElement.from_integers([x * self.den for x in c], n)


def integer_form(coeffs: Sequence) -> tuple:
    """Rationals as (integer numerators, common denominator)."""
    return over_lcm([c.numerator for c in coeffs], [c.denominator for c in coeffs])


def over_lcm(nums: Sequence[int], dens: Sequence[int]) -> tuple:
    """The fractions nums[k]/dens[k] as integer numerators over the lcm of dens."""
    den = math.lcm(*dens)
    return [n * (den // d) for n, d in zip(nums, dens)], den


def int_convolve(a: Sequence[int], b: Sequence[int], order: int) -> list:
    """Coefficients 0..order of the product of two integer sequences."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x:
            for j, y in enumerate(b[: order + 1 - i]):
                out[i + j] += x * y
    return out


class _Ring:
    """A ring descriptor's zero and one, from its ``coerce``."""

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)


@frozen
class RationalField(_Ring):
    """Descriptor for QQ; elements are ``fractions.Fraction``."""

    def coerce(self, value):
        if type(value) is _Fraction:
            return value
        if hasattr(value, "denominator"):  # a Fraction even for an int: elimination divides
            return fraction(value)
        raise RingMismatchError(f"cannot coerce {value!r} into QQ")

    def __str__(self) -> str:
        return "QQ"


class _ElementRing(_Ring):
    """Coercion for a ring of :class:`_Element`s; the descriptor's ``_zero``
    gives the element that coerces."""

    def coerce(self, value):
        x = self._zero()._coerce(value)
        if x is None:
            raise RingMismatchError(f"cannot coerce {value!r} into {self}")
        return x


@frozen
class NilpotentRing(_ElementRing):
    """Descriptor for QQ[a]/(a^modulus_degree)."""

    modulus_degree: int = 4

    def __post_init__(self):
        if self.modulus_degree < 1:
            raise ValueError("modulus degree must be positive")

    def _zero(self):
        return NilpotentElement.constant(0, self.modulus_degree)

    def generator(self):
        return NilpotentElement.generator(self.modulus_degree)

    def __str__(self) -> str:
        return f"QQ[a]/(a^{self.modulus_degree})"


@frozen
class CyclotomicField(_ElementRing):
    """Descriptor for QQ(zeta_5)."""

    def _zero(self):
        return CyclotomicElement.constant(0)

    def zeta(self, power: int = 1):
        return CyclotomicElement.zeta(power)

    def __str__(self) -> str:
        return "QQ(zeta_5)"


QQ = RationalField()
ZETA5_FIELD = CyclotomicField()

Ring = RationalField | NilpotentRing | CyclotomicField


@frozen
class TruncatedSeries:
    """A power series sum_{n=0}^{order} c_n x^n, exact and truncated.

    ``order`` is the largest retained exponent (inclusive); arithmetic
    truncates everything beyond it and shrinks the order to whatever is
    actually known, never inventing coefficients.  Over QQ, ``terms`` is
    the :class:`NilpotentElement` of QQ[a]/(a^(order+1)) with the same
    coefficients (integer numerators over one positive denominator in
    lowest terms; a sequence of rationals is converted), which every QQ
    operation reads and returns, and ``coeffs`` builds the Fractions only
    when read.  Over the other rings ``terms`` is the coefficient tuple.
    """

    ring: Ring
    terms: object

    def __post_init__(self):
        if self.ring == QQ and not isinstance(self.terms, NilpotentElement):
            object.__setattr__(self, "terms", NilpotentElement(self.terms))

    # -- construction -------------------------------------------------

    @staticmethod
    def from_integers(num: Sequence[int], den: int = 1) -> "TruncatedSeries":
        """The QQ series sum_n (num[n]/den) x^n."""
        return TruncatedSeries(QQ, NilpotentElement.from_integers(num, den))

    @staticmethod
    def from_coefficients(ring: Ring, coeffs: Sequence) -> "TruncatedSeries":
        return TruncatedSeries(ring, tuple(ring.coerce(c) for c in coeffs))

    @staticmethod
    def constant(ring: Ring, value, order: int) -> "TruncatedSeries":
        if ring != QQ:
            return TruncatedSeries(ring, (ring.coerce(value),) + (ring.zero(),) * order)
        value = value if isinstance(value, int) else QQ.coerce(value)
        return TruncatedSeries(QQ, NilpotentElement.constant(value, order + 1))

    @staticmethod
    def one(ring: Ring, order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(ring, 1, order)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return self.terms.coeffs if self.ring == QQ else self.terms

    @property
    def order(self) -> int:
        return len(self.terms.num if self.ring == QQ else self.terms) - 1

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside retained range 0..{self.order}")
        t = self.terms
        return fraction(t.num[n], t.den) if self.ring == QQ else t[n]

    def is_zero(self) -> bool:
        return not any(self.terms.num if self.ring == QQ else self.terms)

    def truncate(self, order: int) -> "TruncatedSeries":
        self._check_qq()
        if order > self.order:
            raise ValueError(f"cannot extend a series from order {self.order} to {order}")
        t = self.terms
        return self if order == self.order else self.from_integers(t.num[: order + 1], t.den)

    def _check_qq(self, *others: "TruncatedSeries") -> None:
        for series in (self, *others):
            if series.ring != QQ:
                raise RingMismatchError(f"series arithmetic past + runs over QQ, not {series.ring}")

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.ring, other, self.order)
        if self.ring != other.ring:
            raise RingMismatchError(f"series rings differ: {self.ring} vs {other.ring}")
        if self.ring != QQ:
            return TruncatedSeries(self.ring, tuple(map(operator.add, self.terms, other.terms)))
        n = min(self.order, other.order)
        return TruncatedSeries(QQ, self.truncate(n).terms + other.truncate(n).terms)

    __radd__ = __add__

    def scale(self, scalar) -> "TruncatedSeries":
        self._check_qq()
        s = scalar if isinstance(scalar, int) else QQ.coerce(scalar)
        t = self.terms
        return self.from_integers([s.numerator * c for c in t.num], s.denominator * t.den)

    def __mul__(self, other):
        """Product over QQ, truncated at the smaller order: the operands cut
        to that order multiply as elements of :class:`NilpotentElement`."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_qq(other)
        n = min(self.order, other.order)
        return TruncatedSeries(QQ, self.truncate(n).terms * other.truncate(n).terms)

    def __pow__(self, k: int):
        return power(self, k, TruncatedSeries.one(self.ring, self.order))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse over QQ; needs a nonzero constant term."""
        return TruncatedSeries.one(self.ring, self.order) / self

    def __truediv__(self, other):
        """Quotient over QQ, truncated at the smaller order: one triangular
        solve of :class:`NilpotentElement` division."""
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_qq(other)
        if not other.terms.num[0]:
            raise ValueError("series division needs a unit constant term")
        n = min(self.order, other.order)
        return TruncatedSeries(QQ, self.truncate(n).terms / other.truncate(n).terms)

    # -- exponent bookkeeping and calculus ----------------------------

    def mul_by_power(self, k: int) -> "TruncatedSeries":
        """Multiply by x^k (k >= 0); the retained order grows accordingly."""
        self._check_qq()
        if k < 0:
            raise ValueError("power must be >= 0")
        return self.from_integers((0,) * k + self.terms.num, self.terms.den)

    def theta(self) -> "TruncatedSeries":
        """x d/dx: coefficient n picks up a factor n."""
        self._check_qq()
        t = self.terms
        return self.from_integers([n * c for n, c in enumerate(t.num)], t.den)

    # -- transcendental operations ------------------------------------

    def exp(self) -> "TruncatedSeries":
        """Series exponential over QQ; needs constant term 0.

        x d/dx gives m e_m = sum_{k=1}^{m} k a_k e_(m-k).  With a = A/d and
        e_j = E_j/D over one running denominator D, that is e_m = S/(m d D)
        for the integer dot product S = sum_k k A_k E_(m-k): E_m = S/(m d)
        when exact, else D and the E_j first grow by the least factor that
        makes it so.  On an integral series D stays 1.
        """
        self._check_qq()
        num, d = self.terms.num, self.terms.den
        if num[0]:
            raise ValueError("exp needs constant term exactly 0")
        slopes = [k * c for k, c in enumerate(num)]
        e, den = [1], 1  # e_j = e[j] / den
        for m in range(1, len(num)):
            s = sum(map(operator.mul, slopes[1 : m + 1], reversed(e)))
            g = math.gcd(s, m * d)
            scale = m * d // g
            if scale != 1:
                e, den = [x * scale for x in e], den * scale
            e.append(s // g)
        return self.from_integers(e, den)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)); the inner series must have constant term 0.  With
        self = A/d, Horner's rule sums A_k inner^k on the elements of
        QQ[a]/(a^(n+1)) and divides by d once."""
        self._check_qq(inner)
        if inner.terms.num[0]:
            raise ValueError("inner series must vanish at 0")
        n = min(self.order, inner.order)
        x, (*rest, top) = inner.truncate(n).terms, self.terms.num[: n + 1]
        result = NilpotentElement.constant(top, n + 1)
        for c in reversed(rest):
            result = result * x + c
        return self.from_integers(result.num, result.den * self.terms.den)

    def reversion(self, *outer: "TruncatedSeries"):
        """Compositional inverse b with self(b(x)) = x, and g(b) for each g in outer.

        Needs QQ series, self with constant term 0 and a nonzero
        linear coefficient.  Lagrange-Buermann: with h = (self/x)^-1,

            [x^m] b = (1/m) [x^(m-1)] h^m,
            [x^m] g(b) = (1/m) [x^(m-1)] g' h^m   (m >= 1),   g(b)_0 = g_0.

        Step m reads only coefficients 0..m-1 of h^m, on integer numerators.
        The head N of h^p, p = m-1, is kept from step m-1; one step of
        J.C.P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7), from
        h (h^p)' = p h' h^p, extends it to N_k, k = m-1, by the exact division
        k h_0 N_k = sum_{j=1}^{k} ((p+1) j - k) h_j N_(k-j), and one product
        with h truncated at m-1 gives the head of h^m: about n^3/6 integer
        products at order n.  Each g(b)_m is one dot product over its own
        denominator, and each g(b) one lcm at the end; it stops at the
        smaller of g's order and self's.  Returns b, or (b, g_1(b), ...).
        """
        self._check_qq(*outer)
        num, n = self.terms.num, self.order
        if num[0]:
            raise ValueError("reversion needs constant term 0")
        if n < 1 or not num[1]:
            raise ValueError("reversion needs a unit linear coefficient")
        h = NilpotentElement.from_integers(num[1:], self.terms.den).inverse()
        h, den = h.num, h.den
        # b itself is g(b) for g = x; k g_k as numerators over g's denominator
        gs = (NilpotentElement.generator(n + 1), *(g.terms for g in outer))
        slopes = [([k * c for k, c in enumerate(g.num[: n + 1])], g.den) for g in gs]
        composed = [([g.num[0]], [g.den]) for g in gs]
        head, power_den = [1], 1  # h^m through x^(m-1) = head / power_den
        for m in range(1, n + 1):
            if m > 1:  # Miller's step: N_(m-1) of h^(m-1)
                weights = [(m * j - m + 1) * c for j, c in enumerate(h[1:m], 1)]
                head.append(sum(map(operator.mul, weights, reversed(head))) // ((m - 1) * h[0]))
            head, power_den = int_convolve(head, h, m - 1), power_den * den
            for (slope, slope_den), (nums, dens) in zip(slopes, composed):
                if m < len(slope):
                    nums.append(sum(map(operator.mul, slope[1 : m + 1], reversed(head))))
                    dens.append(m * power_den * slope_den)
        series = tuple(self.from_integers(*over_lcm(*c)) for c in composed)
        return series if outer else series[0]
