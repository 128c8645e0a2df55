"""Inputs for the benchmark workloads: fixed polytopes and seeded draws.

The workload functions in run.py draw from a ``random.Random`` seeded with
the workload name and ``--seed``, write the files the program reads, and
keep what the checks need beside them (the transform that was applied,
the expected vertex type), so no check has to trust the program.
"""

from __future__ import annotations

import itertools
import random

import reference as ref

CUBE3 = list(itertools.product((-1, 0, 1), repeat=3))
CUBE3_VERTICES = list(itertools.product((-1, 1), repeat=3))
OCTAHEDRON3 = [(0, 0, 0)] + [
    tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)
]
FAN_SIMPLEX4 = [tuple(int(i == j) for i in range(4)) for j in range(4)] + [(-1,) * 4, (0,) * 4]
NEWTON_SIMPLEX4_VERTICES = [tuple(4 if i == j else -1 for i in range(4)) for j in range(4)] + [
    (-1,) * 4
]


def unimodular(rng: random.Random, d: int, steps: int, bound: int) -> list:
    """A random GL(d, Z) matrix whose entries, and those of its inverse,
    stay within +-bound: a signed permutation times elementary row moves."""
    while True:
        perm = list(range(d))
        rng.shuffle(perm)
        g = [[rng.choice((1, -1)) if perm[i] == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(steps):
            i, j = rng.sample(range(d), 2)
            s = rng.choice((1, -1))
            g[i] = [a + s * b for a, b in zip(g[i], g[j])]
        inv = ref.int_inverse(g)
        if max(abs(x) for row in g + inv for x in row) <= bound:
            return g


def inverse_transpose(g) -> list:
    return ref.transpose(ref.int_inverse(g))


def newton_simplex_sample(rng: random.Random, extra: int) -> list:
    """The vertices of the 126-point simplex plus `extra` of its other lattice points."""
    facets = ref.facets(sorted(NEWTON_SIMPLEX4_VERTICES))
    inside = [
        p
        for p in itertools.product(range(-1, 5), repeat=4)
        if all(sum(a * b for a, b in zip(n, p)) <= c for n, c in facets)
        and p not in NEWTON_SIMPLEX4_VERTICES
    ]
    return NEWTON_SIMPLEX4_VERTICES + rng.sample(inside, extra)


def point_cloud(rng: random.Random, d: int, count: int, radius: int) -> list:
    """`count` distinct lattice points in [-radius, radius]^d.  The points
    +-r_j e_j on every axis keep the origin strictly inside the hull."""
    pts = set()
    for j in range(d):
        for sign in (1, -1):
            r = sign * rng.randint(1, radius)
            pts.add(tuple(r * (i == j) for i in range(d)))
    while len(pts) < count:
        pts.add(tuple(rng.randint(-radius, radius) for _ in range(d)))
    return sorted(pts)


def type21_vertex(rng: random.Random) -> list:
    """SL(3, Z) conjugate of the vertex (I + e1 e3^t, I + e2 e3^t, I - (e1 + e2) e3^t)."""
    base = [
        [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 0, -1], [0, 1, -1], [0, 0, 1]],
    ]
    while True:
        g = unimodular(rng, 3, 4, 3)
        if ref.det(g) == 1:
            break
    g_inv = ref.int_inverse(g)
    return [ref.matmul(ref.matmul(g, m), g_inv) for m in base]


def mirror_partner(triple) -> list:
    """Each monodromy replaced by its inverse transpose."""
    return [inverse_transpose(m) for m in triple]
