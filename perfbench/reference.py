"""Reference values computed without importing quintic_mirror.

Everything here follows a different route from the program:

* period components phi_0..phi_3 from the closed form
  A_n(a) = A_n(0) exp(sum_j c_j(n) a^j),
  c_j(n) = (-1)^(j+1)/j [sum_{k<=5n} (5/k)^j - 5 sum_{k<=n} (1/k)^j],
  instead of the recurrence over QQ[a]/(a^N);
* the inverse mirror map z(q) and the coupling kappa(q) by Lagrange
  inversion, [q^n] H(z(q)) = (1/n) [z^(n-1)] H'(z) (z/q(z))^n, with
  z/q(z) = exp(-phi_1/phi_0) an integer series, and the prepotential
  identity theta_q^2 (phi_2/phi_0 - (phi_1/phi_0)^2/2) = (kappa - 5)/5,
  instead of series reversion and composition;
* convex hulls of small point sets by exact determinants;
* exact arithmetic in QQ(zeta_5) and on small rational matrices.

Running this file recomputes the stored table of published curve counts
by the Lagrange route and prints whether the two agree:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

# n_1..n_10 as published by Candelas, de la Ossa, Green and Parkes,
# Nucl. Phys. B359 (1991) 21, table 2.
PUBLISHED_COUNTS = (
    2875,
    609250,
    317206375,
    242467530000,
    229305888887625,
    248249742118022000,
    295091050570845659250,
    375632160937476603550000,
    503840510416985243645106250,
    704288164978454686113488249750,
)


# ---------------------------------------------------------------------------
# period series and curve counts
# ---------------------------------------------------------------------------


def period_components(order: int, count: int = 4) -> list:
    """phi_0..phi_{count-1} through z^order from the closed form of A_n(a)."""
    sums5 = [Fraction(0)] * 4  # sum_{k<=5n} (5/k)^j, j = 1..3
    sums1 = [Fraction(0)] * 4  # sum_{k<=n} (1/k)^j
    a0 = 1
    comps = [[] for _ in range(count)]
    for n in range(order + 1):
        if n:
            for k in range(5 * n - 4, 5 * n + 1):
                a0 *= k
                for j in range(1, 4):
                    sums5[j] += Fraction(5**j, k**j)
            a0 //= n**5
            for j in range(1, 4):
                sums1[j] += Fraction(1, n**j)
        c = [Fraction(0)] + [
            Fraction((-1) ** (j + 1), j) * (sums5[j] - 5 * sums1[j]) for j in range(1, 4)
        ]
        expo = (
            Fraction(1),
            c[1],
            c[2] + c[1] * c[1] / 2,
            c[3] + c[1] * c[2] + c[1] ** 3 / 6,
        )
        for k in range(count):
            comps[k].append(a0 * expo[k])
    return comps


def _series_mul(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def _series_inv(a, n):
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1) / a[0]
    for k in range(1, n + 1):
        out[k] = -out[0] * sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return out


def _series_exp(a, n):
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for m in range(1, n + 1):
        out[m] = sum(k * a[k] * out[m - k] for k in range(1, m + 1)) / m
    return out


def _as_int_series(series, what):
    out = []
    for c in series:
        if c.denominator != 1:
            raise ArithmeticError(f"{what} has a non-integral coefficient {c}")
        out.append(c.numerator)
    return out


def mirror_data(order: int) -> dict:
    """q(z) and z(q) through degree order + 1, kappa(q) and n_d through order."""
    n = order + 1
    phi0, phi1, phi2 = period_components(n, 3)
    inv0 = _series_inv(phi0, n)
    ratio = _series_mul(phi1, inv0, n)
    q_over_z = _as_int_series(_series_exp(ratio, n), "q(z)/z")
    z_over_q = _as_int_series(_series_inv([Fraction(c) for c in q_over_z], n), "z/q(z)")
    # g = phi2/phi0 - ratio^2/2 and its derivative in z
    g = [x - y / 2 for x, y in zip(_series_mul(phi2, inv0, n), _series_mul(ratio, ratio, n))]
    g_prime = [(k + 1) * g[k + 1] for k in range(n)]

    z_of_q = [0]
    kappa = [Fraction(5)]
    power = [1] + [0] * n  # (z/q)^m, truncated at z^n
    for m in range(1, n + 1):
        power = _series_mul(power, z_over_q, n)
        z_m = Fraction(power[m - 1], m)
        z_of_q.append(z_m)
        if m <= order:
            g_m = sum(g_prime[k] * power[m - 1 - k] for k in range(m)) / m
            kappa.append(5 * m * m * g_m)
    counts = instantons_from_kappa(kappa, order)
    return {
        "q_of_z": ([0] + q_over_z)[: n + 1],
        "z_of_q": _as_int_series(z_of_q, "z(q)"),
        "kappa": kappa,
        "counts": counts,
    }


def instantons_from_kappa(kappa, d_max: int) -> list:
    """n_1..n_dmax from kappa = 5 + sum_d n_d d^3 q^d / (1 - q^d)."""
    counts = [None]
    for m in range(1, d_max + 1):
        rest = kappa[m] - sum(counts[d] * d**3 for d in range(1, m) if m % d == 0)
        value = rest / m**3
        if value.denominator != 1:
            raise ArithmeticError(f"n_{m} = {value} is not an integer")
        counts.append(value.numerator)
    return counts[1:]


def compose_int(outer, inner, n):
    """outer(inner(x)) through x^n for integer series with inner(0) = 0."""
    result = [0] * (n + 1)
    for c in reversed(outer[: n + 1]):
        result = _series_mul(result, inner, n)
        result[0] += c
    return result


# ---------------------------------------------------------------------------
# lattice polytopes
# ---------------------------------------------------------------------------


def det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _normal(diffs, d):
    """Generalized cross product of d - 1 vectors in Z^d, made primitive."""
    normal = []
    for i in range(d):
        minor = [[v[j] for j in range(d) if j != i] for v in diffs]
        normal.append((-1) ** i * det(minor))
    g = 0
    for x in normal:
        g = math.gcd(g, x)
    return tuple(x // g for x in normal) if g else None


def facets(points) -> list:
    """Facets (normal, offset) with <normal, x> <= offset of a full-dimensional hull."""
    d = len(points[0])
    found = set()
    for subset in itertools.combinations(points, d):
        base = subset[0]
        normal = _normal([[x - b for x, b in zip(p, base)] for p in subset[1:]], d)
        if normal is None:
            continue
        offset = sum(a * b for a, b in zip(normal, base))
        values = [sum(a * b for a, b in zip(normal, p)) for p in points]
        if max(values) == offset:
            found.add((normal, offset))
        elif min(values) == offset:
            found.add((tuple(-x for x in normal), -offset))
    return sorted(found)


def rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank, col = 0, 0
    width = len(m[0]) if m else 0
    while rank < len(m) and col < width:
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def hull_report(points) -> dict:
    """What `polytope --in` reports for a full-dimensional point set."""
    pts = sorted({tuple(p) for p in points})
    d = len(pts[0])
    fs = facets(pts)
    vertices = [
        p
        for p in pts
        if rank([n for n, c in fs if sum(a * b for a, b in zip(n, p)) == c]) == d
    ]
    report = {"vertices": vertices, "dimension": d, "facets": fs}
    if any(c <= 0 for _, c in fs):
        report["reflexive"] = False
        return report
    dual = [tuple(Fraction(-x, c) for x in n) for n, c in fs]
    report["reflexive"] = all(x.denominator == 1 for v in dual for x in v)
    if report["reflexive"]:
        dual_pts = sorted({tuple(x.numerator for x in v) for v in dual})
        report["dual_vertices"] = dual_pts
        report["dual_lattice_point_count"] = lattice_point_count(dual_pts)
    return report


def lattice_point_count(vertices) -> int:
    fs = facets(sorted(vertices))
    d = len(vertices[0])
    ranges = [range(min(v[i] for v in vertices), max(v[i] for v in vertices) + 1) for i in range(d)]
    return sum(
        1
        for p in itertools.product(*ranges)
        if all(sum(a * b for a, b in zip(n, p)) <= c for n, c in fs)
    )


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def apply(g, points):
    """Images g x of column vectors x, as sorted tuples."""
    return sorted(tuple(sum(gij * xj for gij, xj in zip(row, x)) for row in g) for x in points)


def int_inverse(g):
    """Inverse of a unimodular integer matrix by the adjugate."""
    n = len(g)
    dt = det(g)
    if abs(dt) != 1:
        raise ValueError("matrix is not unimodular")
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[g[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return [[x * dt for x in row] for row in adj]


def transpose(m):
    return [list(col) for col in zip(*m)]


# ---------------------------------------------------------------------------
# small exact matrices and QQ(zeta_5)
# ---------------------------------------------------------------------------


def cyc_mul(a, b):
    """Product in QQ(zeta_5), elements as coefficients of 1, z, z^2, z^3."""
    work = [Fraction(0)] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            work[i + j] += x * y
    for k in (6, 5, 4):  # z^4 = -(1 + z + z^2 + z^3)
        c, work[k] = work[k], Fraction(0)
        for i in range(k - 4, k):
            work[i] -= c
    return work[:4]


def cyc_matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = [Fraction(0)] * 4
            for k in range(n):
                acc = [x + y for x, y in zip(acc, cyc_mul(a[i][k], b[k][j]))]
            row.append(acc)
        out.append(row)
    return out


def zeta_power(k):
    k %= 5
    if k == 4:
        return [Fraction(-1)] * 4
    out = [Fraction(0)] * 4
    out[k] = Fraction(1)
    return out


def rat_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def rat_order(m, limit):
    """Least k <= limit with m^k = I, or None."""
    n = len(m)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = m
    for k in range(1, limit + 1):
        if power == ident:
            return k
        power = rat_matmul(power, m)
    return None


def kahler_r(magnitudes, charges):
    """r_a = -(1/2pi) sum_k log|c_k| chi_k[a], in the same summation order."""
    out = [0.0] * len(charges[0])
    for c, chi in zip(magnitudes, charges):
        factor = -math.log(float(c)) / (2.0 * math.pi)
        for a in range(len(out)):
            out[a] += factor * chi[a]
    return out


def main() -> int:
    counts = mirror_data(len(PUBLISHED_COUNTS))["counts"]
    for d, (stored, recomputed) in enumerate(zip(PUBLISHED_COUNTS, counts), 1):
        print(f"n_{d} = {recomputed}" + ("" if stored == recomputed else f"  (stored {stored})"))
    same = tuple(counts) == PUBLISHED_COUNTS
    print("stored table " + ("matches" if same else "DIFFERS"))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
