"""Cohomology-level monodromy transforms of the quintic threefold.

Even cohomology is the truncated polynomial ring QQ[L]/(L^4) on the
hyperplane class L, with integration functional int(gamma) = 5 gamma_3.
Two transforms act on it: the twist gamma -> gamma ^ e^(k L), and the
reflection gamma -> gamma - (int(gamma ^ Todd)) * 1 attached to the
structure sheaf.  Both are realized as exact 4x4 rational matrices
acting on row vectors in the basis 1, L, L^2, L^3, and their displayed
identities ((twist * reflection)^5 = 1 among them) are checked exactly.

Characteristic classes come from the adjunction expansion
(1 + L)^5 / (1 + 5 L), giving c1 = 0, c2 = 10 L^2, c3 = -40 L^3 and
Euler number -200.
"""

from __future__ import annotations

from fractions import Fraction

from ._frozen import frozen
from .exactnum import QQ, TruncatedSeries
from .linalg import SquareExactMatrix

_DIM = 4  # basis 1, L, L^2, L^3


@frozen
class CohomologyElement:
    """An element g0 + g1 L + g2 L^2 + g3 L^3 with L^4 = 0."""

    components: tuple

    @staticmethod
    def from_components(components) -> "CohomologyElement":
        comps = tuple(Fraction(c) for c in components)
        if len(comps) != _DIM:
            raise ValueError(f"need exactly {_DIM} components")
        return CohomologyElement(comps)

    @staticmethod
    def unit() -> "CohomologyElement":
        return CohomologyElement.from_components((1, 0, 0, 0))

    @staticmethod
    def hyperplane(power: int = 1) -> "CohomologyElement":
        """L^power, which vanishes for power >= 4."""
        if power < 0:
            raise ValueError("power must be >= 0")
        comps = [Fraction(0)] * _DIM
        if power < _DIM:
            comps[power] = Fraction(1)
        return CohomologyElement(tuple(comps))

    def __add__(self, other: "CohomologyElement") -> "CohomologyElement":
        return CohomologyElement(
            tuple(a + b for a, b in zip(self.components, other.components))
        )

    def __sub__(self, other: "CohomologyElement") -> "CohomologyElement":
        return CohomologyElement(
            tuple(a - b for a, b in zip(self.components, other.components))
        )

    def __neg__(self) -> "CohomologyElement":
        return CohomologyElement(tuple(-a for a in self.components))

    def scale(self, scalar) -> "CohomologyElement":
        s = Fraction(scalar)
        return CohomologyElement(tuple(s * a for a in self.components))

    def __mul__(self, other) -> "CohomologyElement":
        if not isinstance(other, CohomologyElement):
            return self.scale(other)
        out = [Fraction(0)] * _DIM
        for i, a in enumerate(self.components):
            if a == 0:
                continue
            for j in range(_DIM - i):
                b = other.components[j]
                if b != 0:
                    out[i + j] += a * b
        return CohomologyElement(tuple(out))

    __rmul__ = __mul__

    def integrate(self) -> Fraction:
        """Integration over the quintic: 5 times the L^3 component."""
        return 5 * self.components[3]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)


@frozen
class CharacteristicClasses:
    """Chern data of the tangent bundle, with the Todd class alongside."""

    c1: CohomologyElement
    c2: CohomologyElement
    c3: CohomologyElement
    todd: CohomologyElement


def _todd_from(c1: CohomologyElement, c2: CohomologyElement) -> CohomologyElement:
    """1 + c1/2 + (c1^2 + c2)/12 + c1 c2 / 24, the threefold Todd expansion."""
    one = CohomologyElement.unit()
    return (
        one
        + c1.scale(Fraction(1, 2))
        + (c1 * c1 + c2).scale(Fraction(1, 12))
        + (c1 * c2).scale(Fraction(1, 24))
    )


def chern_from_adjunction(hypersurface_degree: int = 5, ambient_dim: int = 4) -> CharacteristicClasses:
    """Tangent classes of the quintic from (1 + L)^5 / (1 + 5 L).

    The parameters are fixed to the one wired instance; anything else is
    rejected rather than silently miscomputed in the 4-component basis.
    """
    if hypersurface_degree != 5 or ambient_dim != 4:
        raise ValueError("only the quintic hypersurface in dimension 4 is wired up")
    num = TruncatedSeries.from_coefficients(QQ, [1, 5, 10, 10])  # (1 + L)^5 to L^3
    den = TruncatedSeries.from_coefficients(QQ, [1, 5, 0, 0])  # 1 + 5 L
    total = num / den
    classes = [
        CohomologyElement(
            tuple(
                total.coefficient(k) if i == k else Fraction(0) for i in range(_DIM)
            )
        )
        for k in range(1, 4)
    ]
    c1, c2, c3 = classes
    return CharacteristicClasses(c1, c2, c3, _todd_from(c1, c2))


def todd_class(c: CharacteristicClasses) -> CohomologyElement:
    """Recompute the Todd class from c1 and c2."""
    return _todd_from(c.c1, c.c2)


def euler_number(c: CharacteristicClasses) -> Fraction:
    """The integral of the top Chern class."""
    return c.c3.integrate()


def twist_matrix(k: int) -> SquareExactMatrix:
    """Matrix of gamma -> gamma ^ e^(k L) on row vectors in 1, L, L^2, L^3."""
    exp_kl = CohomologyElement.from_components(
        (1, Fraction(k), Fraction(k * k, 2), Fraction(k**3, 6))
    )
    rows = [
        (CohomologyElement.hyperplane(i) * exp_kl).components for i in range(_DIM)
    ]
    return SquareExactMatrix.from_rows(QQ, rows)


def spherical_matrix(todd: CohomologyElement) -> SquareExactMatrix:
    """Matrix of gamma -> gamma - (int(gamma ^ Todd)) * 1 on row vectors."""
    rows = []
    for i in range(_DIM):
        gamma = CohomologyElement.hyperplane(i)
        defect = (gamma * todd).integrate()
        row = list(gamma.components)
        row[0] -= defect
        rows.append(tuple(row))
    return SquareExactMatrix.from_rows(QQ, rows)


def quintic_twist() -> SquareExactMatrix:
    return twist_matrix(1)


def quintic_spherical() -> SquareExactMatrix:
    return spherical_matrix(chern_from_adjunction().todd)


def matrix_order(m: SquareExactMatrix, max_order: int) -> int | None:
    """Smallest k <= max_order with M^k = I, or None when none exists below it."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    identity = SquareExactMatrix.identity(m.field, m.size)
    power = m
    for k in range(1, max_order + 1):
        if power == identity:
            return k
        power = power * m
    return None


def jordan_profile(m: SquareExactMatrix) -> tuple:
    """Ranks of (M - I)^k for k = 1..dim; constant-zero tail means unipotency."""
    identity = SquareExactMatrix.identity(m.field, m.size)
    n = m - identity
    out = []
    power = SquareExactMatrix.identity(m.field, m.size)
    for _ in range(m.size):
        power = power * n
        out.append(power.rank())
    return tuple(out)
