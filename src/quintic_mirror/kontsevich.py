"""Cohomology-level monodromy transforms of the quintic threefold.

Even cohomology is the truncated polynomial ring QQ[L]/(L^4) on the
hyperplane class L, held as the nilpotent ring ``NilpotentRing(4)`` of
:mod:`quintic_mirror.exactnum`, with integration functional
int(gamma) = 5 gamma_3.
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

import math

from ._frozen import frozen
from .exactnum import QQ, NilpotentElement, fraction
from .linalg import SquareExactMatrix


def hyperplane(power: int = 1) -> NilpotentElement:
    """L^power in QQ[L]/(L^4), which vanishes for power >= 4."""
    if power < 0:
        raise ValueError("power must be >= 0")
    return NilpotentElement.generator(4) ** power


def integrate(gamma: NilpotentElement):
    """Integration over the quintic: 5 times the L^3 component, a Fraction."""
    return 5 * gamma.coeffs[3]


@frozen
class CharacteristicClasses:
    """Chern data of the tangent bundle, with the Todd class alongside."""

    c1: NilpotentElement
    c2: NilpotentElement
    c3: NilpotentElement
    todd: NilpotentElement


def _todd_from(c1: NilpotentElement, c2: NilpotentElement) -> NilpotentElement:
    """1 + c1/2 + (c1^2 + c2)/12 + c1 c2 / 24, the threefold Todd expansion."""
    return 1 + c1 * fraction(1, 2) + (c1 * c1 + c2) * fraction(1, 12) + c1 * c2 * fraction(1, 24)


def chern_from_adjunction() -> CharacteristicClasses:
    """Tangent classes of the quintic from (1 + L)^5 / (1 + 5 L)."""
    lam = hyperplane()
    total = (1 + lam) ** 5 / (1 + 5 * lam)
    c1, c2, c3 = (total.coeffs[k] * hyperplane(k) for k in range(1, 4))
    return CharacteristicClasses(c1, c2, c3, _todd_from(c1, c2))


def euler_number(c: CharacteristicClasses):
    """The integral of the top Chern class, a Fraction."""
    return integrate(c.c3)


def twist_matrix(k: int) -> SquareExactMatrix:
    """Matrix of gamma -> gamma ^ e^(k L) on row vectors in 1, L, L^2, L^3."""
    exp_kl = NilpotentElement(tuple(fraction(k**j, math.factorial(j)) for j in range(4)))
    return SquareExactMatrix.from_rows(QQ, [(hyperplane(i) * exp_kl).coeffs for i in range(4)])


def spherical_matrix(todd: NilpotentElement) -> SquareExactMatrix:
    """Matrix of gamma -> gamma - (int(gamma ^ Todd)) * 1 on row vectors."""
    rows = [(gamma - integrate(gamma * todd)).coeffs for gamma in map(hyperplane, range(4))]
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
    if m != identity and is_unipotent(m):
        return None  # over a field of characteristic 0, M = I + N has infinite order
    power = m
    for k in range(1, max_order + 1):
        if power == identity:
            return k
        power = power * m
    return None


def is_unipotent(m: SquareExactMatrix) -> bool:
    """(M - I)^size = 0, by squaring; a nonzero trace of M - I rules it out
    with no product."""
    n = m - SquareExactMatrix.identity(m.field, m.size)
    if sum((n.rows[i][i] for i in range(n.size)), n.field.zero()):
        return False
    power, k = n, 1
    while k < n.size:
        power, k = power * power, 2 * k
    return not any(map(any, power.rows))


def jordan_profile(m: SquareExactMatrix) -> tuple:
    """Ranks of (M - I)^k for k = 1..dim; constant-zero tail means unipotency.

    Once a rank repeats the one before it, every later power has that rank
    too, so the remaining entries repeat it without forming more powers.
    """
    n = m - SquareExactMatrix.identity(m.field, m.size)
    ranks, power = [m.size], n  # ranks[k] = rank (M - I)^k
    while True:
        ranks.append(power.rank())
        if len(ranks) > m.size or ranks[-1] == ranks[-2]:
            return tuple(ranks[1:] + ranks[-1:] * (m.size + 1 - len(ranks)))
        power = power * n
