"""Mirror map, Yukawa coupling, curve counts, quantum ring.

The pipeline runs entirely over exact rationals, and each stage runs
once: one Frobenius solve gives phi0, phi1 and phi2, one exp gives the
mirror map q = z exp(phi1/phi0), and one Lagrange-Buermann pass gives
z(q), the normalized coupling kappa(q) = K(z(q)) and G(z(q)), where

    K(z) = Y(z) / (phi0^2 (theta_z t)^3),   Y(z) = 5 / (1 - 3125 z),
    t = log q = log z + phi1/phi0,   theta_z t = 1 + theta_z (phi1/phi0)

(Candelas, de la Ossa, Green and Parkes 1991; theta_q z / z = 1/theta_z t).
K is formed in z with one series division and no composition.  The
prepotential identity kappa = 5 + 5 theta_q^2 G, with the logarithm-free
G = phi2/phi0 - (phi1/phi0)^2/2, is checked at each q^m with m >= 1.  It
never reads Y, so it catches a wrong Y that keeps every count integral
(a doubled one).  The triangular extraction of the counts n_d then solves

    kappa(q) = 5 + sum_{d >= 1} n_d d^3 q^d / (1 - q^d).

The series variable z here is the one in which phi0 has positive
coefficients 1, 120, 113400, ...; its conifold point sits at z = 5^-5,
which fixes the sign in Y.  The calibration is n_1 = 2875: any
convention slip flips the sign or breaks integrality, and extraction
fails hard on a non-integer rather than rounding.

The quantum ring is the rank-one-per-degree Frobenius algebra on
1, L, L^2, L^3 with trace 5 * (L^3 component) and the single deformed
product L * L = (kappa/5) L^2.
"""

from __future__ import annotations

from ._frozen import frozen
from .exactnum import QQ, TruncatedSeries, fraction
from .picard_fuchs import frobenius_at_zero

UNNORMALIZED_COUPLING_POLE = 5**5  # reciprocal of the conifold location


class IntegralityError(ArithmeticError):
    """A curve count came out non-integral; upstream conventions are wrong."""

    def __init__(self, degree: int, value):
        super().__init__(f"n_{degree} = {value} is not an integer")
        self.degree = degree
        self.value = value


class PrepotentialError(ArithmeticError):
    """kappa(q) and 5 theta_q^2 G(z(q)) differ; Y or a period is wrong."""

    def __init__(self, degree: int):
        super().__init__(f"kappa(q) breaks the prepotential identity at q^{degree}")
        self.degree = degree


@frozen
class MirrorMap:
    """q as a series in z, its compositional inverse, and the coupling kappa(q)."""

    q_of_z: TruncatedSeries
    z_of_q: TruncatedSeries
    kappa: TruncatedSeries

    def normalized_coupling(self, order: int) -> TruncatedSeries:
        """kappa(q) = 5 + 2875 q + ... through q^order."""
        if not 1 <= order <= self.kappa.order:
            raise ValueError(f"coupling order must lie in 1..{self.kappa.order}")
        return self.kappa.truncate(order)


def build_mirror_map(order: int) -> MirrorMap:
    """Mirror map from the period solutions, truncated past z^order.

    Needs order >= 2 so that the first correction coefficient (770) is
    actually present.  Every series, K(z) and G included, is integer
    numerators over one denominator; the prepotential gate cross-multiplies
    them and raises PrepotentialError at the first q^m where kappa fails it.
    """
    if order < 2:
        raise ValueError("mirror map needs truncation order >= 2")
    bundle = frobenius_at_zero(order, modulus_degree=3)
    phi0 = bundle.component(0)
    ratio = bundle.component(1) / phi0
    if ratio.terms.num[0]:
        raise ValueError("logarithm-free period ratio has a constant term")
    q_of_z = ratio.exp().mul_by_power(1)
    theta_t = 1 + ratio.theta()
    coupling = unnormalized_coupling(order) / ((phi0 * theta_t) ** 2 * theta_t)
    r2 = (ratio * ratio).terms  # G = phi2/phi0 - r^2/2 with r = phi1/phi0
    g = bundle.component(2) / phi0 + TruncatedSeries.from_integers([-n for n in r2.num], 2 * r2.den)
    # q_of_z runs one order past phi0, so z(q) keeps the extra coefficient
    # and kappa stops at phi0's order.
    z_of_q, kappa, g_of_q = q_of_z.reversion(coupling, g)
    k, gq = kappa.terms, g_of_q.terms
    for m in range(1, kappa.order + 1):  # 5 m^2 [q^m] G(z(q)) = [q^m] kappa, cross-multiplied
        if 5 * m * m * gq.num[m] * k.den != k.num[m] * gq.den:
            raise PrepotentialError(m)
    return MirrorMap(q_of_z, z_of_q, kappa)


def unnormalized_coupling(order: int) -> TruncatedSeries:
    """Y(z) = 5/(1 - 3125 z) as a rational series in z."""
    return TruncatedSeries.from_integers([5 * UNNORMALIZED_COUPLING_POLE**n for n in range(order + 1)])


def yukawa_normalized(order: int) -> TruncatedSeries:
    """The coupling kappa(q) = 5 + 2875 q + ... through q^order."""
    if order < 1:
        raise ValueError("coupling needs truncation order >= 1")
    return build_mirror_map(max(order, 2)).normalized_coupling(order)


@frozen
class InstantonTable:
    """Curve counts n_d, keyed by degree; values are honest ints."""

    n: dict

    def degrees(self) -> tuple:
        return tuple(sorted(self.n))


def extract_instantons(kappa: TruncatedSeries, d_max: int) -> InstantonTable:
    """Solve kappa = 5 + sum n_d d^3 q^d/(1 - q^d) for the n_d.

    The system is triangular: the coefficient of q^m only involves n_d
    for divisors d of m.  Non-integral output raises IntegralityError.
    """
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    if kappa.order < d_max:
        raise ValueError(f"coupling truncated at order {kappa.order}, below d_max {d_max}")
    num, den = kappa.terms.num, kappa.terms.den
    counts = {}
    for m in range(1, d_max + 1):
        # n_m m^3 = kappa_m - sum over proper divisors d of m of n_d d^3
        residue = num[m] - den * sum(counts[d] * d**3 for d in range(1, m) if m % d == 0)
        counts[m], rest = divmod(residue, den * m**3)
        if rest:
            raise IntegralityError(m, fraction(residue, den * m**3))
    return InstantonTable(counts)


_RANK = 4  # basis 1, L, L^2, L^3


@frozen
class QuantumRing:
    """Frobenius algebra on 1, L, L^2, L^3 with q-series coefficients.

    Elements are 4-tuples of series in q (scalars are coerced), the
    trace is 5 times the L^3 component, and the only deformed basis
    product is L * L = (kappa/5) L^2; everything else is classical or
    vanishes by degree.
    """

    kappa: TruncatedSeries

    @property
    def order(self) -> int:
        return self.kappa.order

    def _series(self, value) -> TruncatedSeries:
        if isinstance(value, TruncatedSeries):
            if value.order < self.order:
                raise ValueError("component series truncated below ring order")
            return value.truncate(self.order)
        return TruncatedSeries.constant(QQ, value, self.order)

    def element(self, components) -> tuple:
        comps = tuple(self._series(c) for c in components)
        if len(comps) != _RANK:
            raise ValueError(f"need exactly {_RANK} components")
        return comps

    def basis_element(self, k: int) -> tuple:
        if not 0 <= k < _RANK:
            raise ValueError("basis index out of range")
        return self.element(tuple(1 if i == k else 0 for i in range(_RANK)))

    def product(self, x, y) -> tuple:
        """x[a] * y[b] summed into slot a + b below rank, with kappa/5 as the
        factor for L * L."""
        x = self.element(x)
        y = self.element(y)
        out = [TruncatedSeries.constant(QQ, 0, self.order)] * _RANK
        for a in range(_RANK):
            for b in range(_RANK - a):
                term = x[a] * y[b]
                if (a, b) == (1, 1):
                    term = term * self.kappa.scale(fraction(1, 5))
                out[a + b] = out[a + b] + term
        return tuple(out)

    def trace(self, x) -> TruncatedSeries:
        return self.element(x)[3].scale(5)

    def pairing(self, x, y) -> TruncatedSeries:
        return self.trace(self.product(x, y))


def quantum_ring(d_max: int) -> QuantumRing:
    """Ring with couplings validated through degree d_max.

    d_max = 0 yields the classical ring (kappa identically 5, empty
    instanton table); otherwise the extraction gate runs first so a
    broken convention cannot produce a ring at all.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if d_max == 0:
        return QuantumRing(TruncatedSeries.constant(QQ, 5, 0))
    kappa = yukawa_normalized(d_max)
    extract_instantons(kappa, d_max)
    return QuantumRing(kappa)
