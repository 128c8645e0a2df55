"""Output checks for every benchmark command.

Each check takes the command's exit code, stdout and stderr together with
the expectation built for it from ``reference`` (never from the program)
and raises ``CheckFailed`` on the first disagreement.  Where no
independent number exists the check tests a property instead: integral
positive curve counts, q(z(q)) = q, GL(d, Z) covariance of hulls and
duals, the swap of vertex types, and the paper's constants.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import reference as ref


class CheckFailed(Exception):
    """The program's output disagrees with the expectation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rat(x) -> str:
    """The structured rendering of a rational: always "num/den"."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def succeeded(code, err) -> None:
    require(code == 0, f"exit code {code}: {err.strip()[-300:]}")


def structured(code, out, err) -> dict:
    succeeded(code, err)
    doc = json.loads(out)
    require(doc.get("schema") == "quintic-mirror/1", "missing schema tag")
    return doc


def table(code, out, err) -> list:
    succeeded(code, err)
    require(out.endswith("\n"), "table output does not end with a newline")
    return out[:-1].split("\n")


def block(lines, header: str) -> list:
    """Whitespace-split rows of the indented block under the line `header`."""
    require(header in lines, f"missing line {header!r}")
    rows = []
    for line in lines[lines.index(header) + 1:]:
        if not line.startswith("  ") or ":" in line:
            break
        rows.append(line.split())
    return rows


def value_after(lines, prefix: str) -> str:
    hits = [line[len(prefix):] for line in lines if line.startswith(prefix)]
    require(len(hits) == 1, f"expected one line starting {prefix!r}, found {len(hits)}")
    return hits[0]


def fractions(rows) -> list:
    return [[Fraction(x) for x in row] for row in rows]


def cyclotomic(text) -> list:
    """'[a,b,c,d]' (table) or ['a', 'b', 'c', 'd'] (structured) in QQ(zeta_5)."""
    parts = text.strip("[]").split(",") if isinstance(text, str) else text
    require(len(parts) == 4, f"bad cyclotomic entry {text!r}")
    return [Fraction(p) for p in parts]


def expect_series(got, want, fmt, label) -> None:
    render = rat if fmt == "structured" else (lambda x: str(Fraction(x)))
    want = [render(x) for x in want]
    require(len(got) == len(want), f"{label}: {len(got)} coefficients, expected {len(want)}")
    for n, (g, w) in enumerate(zip(got, want)):
        require(g == w, f"{label}: coefficient {n} is {g[:60]}, expected {w[:60]}")


# ---------------------------------------------------------------------------
# the exact pipeline
# ---------------------------------------------------------------------------


def gw(order, d_max, fmt, result, mirror) -> None:
    code, out, err = result
    if fmt == "structured":
        doc = structured(code, out, err)
        require(doc["order"] == order and doc["d_max"] == d_max, "order or d_max echoed wrong")
        q_of_z = doc["mirror_map"]["q_of_z"]["coefficients"]
        z_of_q = doc["mirror_map"]["z_of_q"]["coefficients"]
        kappa = doc["kappa"]["coefficients"]
        counts = doc["instanton_numbers"]
        require(sorted(map(int, counts)) == list(range(1, d_max + 1)), "degrees listed wrong")
        counts = [counts[str(d)] for d in range(1, d_max + 1)]
    else:
        lines = table(code, out, err)
        q_of_z = value_after(lines, f"mirror map q(z) through z^{order + 1}: ").split()
        z_of_q = value_after(lines, f"inverse z(q) through q^{order + 1}: ").split()
        kappa = value_after(lines, f"coupling kappa(q) through q^{order}: ").split()
        rows = block(lines, "degree  count")
        require([int(r[0]) for r in rows] == list(range(1, d_max + 1)), "degrees listed wrong")
        counts = [int(r[1]) for r in rows]
    expect_series(q_of_z, mirror["q_of_z"], fmt, "q(z)")
    expect_series(z_of_q, mirror["z_of_q"], fmt, "z(q)")
    expect_series(kappa, mirror["kappa"], fmt, "kappa(q)")
    for d, n in enumerate(counts, 1):
        require(type(n) is int and n > 0, f"n_{d} = {n!r} is not a positive integer")
        require(n == mirror["counts"][d - 1], f"n_{d} = {n}, expected {mirror['counts'][d - 1]}")
        if d <= len(ref.PUBLISHED_COUNTS):
            require(n == ref.PUBLISHED_COUNTS[d - 1], f"n_{d} differs from the published table")
    # q(z) composed with z(q) is the identity series
    qz = [int(Fraction(x)) for x in q_of_z]
    zq = [int(Fraction(x)) for x in z_of_q]
    identity = ref.compose_int(qz, zq, order + 1)
    require(identity == [0, 1] + [0] * order, "q(z(q)) is not q")


def periods(order, fmt, result, comps) -> None:
    code, out, err = result
    if fmt == "structured":
        doc = structured(code, out, err)
        require(doc["order"] == order, "order echoed wrong")
        require(doc["operator_residual_zero"] is True, "operator residual not reported zero")
        got = [doc["components"][f"phi{k}"]["coefficients"] for k in range(4)]
    else:
        lines = table(code, out, err)
        require(lines[-1] == "operator residual vanishes: yes", "operator residual not reported zero")
        got = [value_after(lines, f"phi{k}: ").split() for k in range(4)]
    for k in range(4):
        expect_series(got[k], comps[k], fmt, f"phi{k}")


def exp_nilpotent_matrix():
    """Multiplication by exp(L) on 1, L, L^2, L^3 (row convention)."""
    return [[Fraction(1, math.factorial(j - i)) if j >= i else Fraction(0) for j in range(4)] for i in range(4)]


def jordan_ranks(m) -> list:
    """Ranks of (M - I)^k for k = 1..4."""
    n = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]
    power, ranks = n, []
    for _ in range(4):
        ranks.append(ref.rank(power))
        power = ref.rat_matmul(power, n)
    return ranks


def monodromy(fmt, result, _) -> None:
    code, out, err = result
    keys = ("at_zero", "at_infinity", "at_infinity_power_basis")
    if fmt == "structured":
        doc = structured(code, out, err)["matrices"]
        entries = {k: doc[k]["report"]["entries"] for k in keys}
        orders = {k: doc[k]["order"] for k in keys}
        profiles = {k: doc[k]["jordan_profile"] for k in keys}
        zero = fractions(entries["at_zero"])
        inf = [[cyclotomic(x) for x in row] for row in entries["at_infinity"]]
        power = [[cyclotomic(x) for x in row] for row in entries["at_infinity_power_basis"]]
    else:
        lines = table(code, out, err)
        headers = [line for line in lines if line.startswith("monodromy at ")]
        require(len(headers) == 3, "expected three monodromy blocks")
        zero = fractions(block(lines, headers[0]))
        inf = [[cyclotomic(x) for x in row] for row in block(lines, headers[1])]
        power = [[cyclotomic(x) for x in row] for row in block(lines, headers[2])]
        found = [line.split()[-1] for line in lines if line.startswith("  order: ")]
        require(len(found) == 3, "expected three order lines")
        orders = {k: None if v == "none" else int(v) for k, v in zip(keys, found)}
        profiles = [
            [int(x) for x in line.split(":")[1].split()] for line in lines if line.startswith("  jordan profile:")
        ]
        profiles = dict(zip(keys, profiles))
    require(zero == exp_nilpotent_matrix(), "monodromy at zero is not exp(L)")
    require(orders["at_zero"] is None and profiles["at_zero"] == jordan_ranks(zero), "zero: order or profile")
    diag = [[ref.zeta_power(k + 1) if j == k else [Fraction(0)] * 4 for j in range(4)] for k in range(4)]
    require(inf == diag, "monodromy at infinity is not diag(zeta^1..zeta^4)")
    vandermonde = [[[Fraction(k, 5) ** j] + [Fraction(0)] * 3 for k in range(1, 5)] for j in range(4)]
    require(
        ref.cyc_matmul(power, vandermonde) == ref.cyc_matmul(vandermonde, diag),
        "power-basis monodromy is not B diag(zeta^k) B^-1",
    )
    for key in keys[1:]:
        require(orders[key] == 5 and profiles[key] == [4, 4, 4, 4], f"{key}: order or profile")


# ---------------------------------------------------------------------------
# cohomology, GLSM and SYZ constants
# ---------------------------------------------------------------------------


def adjunction_classes():
    """c(X) = (1 + L)^5 / (1 + 5L) truncated at L^4, and the Todd class."""
    total = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4 - i):
            total[i + j] += math.comb(5, i) * (-5) ** j
    c1, c2 = total[1], total[2]
    todd = [Fraction(1), c1 / 2, (c1 * c1 + c2) / 12, c1 * c2 / 24]
    return total, todd


def kontsevich(fmt, result, _) -> None:
    code, out, err = result
    total, todd = adjunction_classes()
    euler = 5 * total[3]
    if fmt == "structured":
        doc = structured(code, out, err)
        for k in (1, 2, 3):
            want = [Fraction(0)] * 4
            want[k] = total[k]
            require(doc["chern"][f"c{k}"] == [rat(x) for x in want], f"c{k} wrong")
        require(doc["euler_number"] == rat(euler) == "-200/1", "euler number is not -200")
        require(doc["todd"] == [rat(x) for x in todd], "todd class wrong")
        twist, spherical = fractions(doc["twist"]), fractions(doc["spherical"])
        product, order = fractions(doc["product"]), doc["product_order"]
        profiles = doc["twist_jordan_profile"], doc["spherical_jordan_profile"]
    else:
        lines = table(code, out, err)
        require(value_after(lines, "  c1 = ") == "0", "c1 wrong")
        require(value_after(lines, "  c2 = ") == f"{total[2]} L^2", "c2 wrong")
        require(value_after(lines, "  c3 = ") == f"{total[3]} L^3", "c3 wrong")
        require(value_after(lines, "euler number: ") == str(euler) == "-200", "euler number is not -200")
        require(value_after(lines, "todd class: ") == f"1 + {todd[2]} L^2", "todd class wrong")
        twist = fractions(block(lines, "twist matrix T (basis 1, L, L^2, L^3)"))
        spherical = fractions(block(lines, "spherical twist S"))
        product = fractions(block(lines, "product T*S"))
        order = int(value_after(lines, "order of T*S: "))
        profiles = [
            [int(x) for x in line.split(":")[1].split()] for line in lines if line.startswith("  jordan profile:")
        ]
    require(twist == exp_nilpotent_matrix(), "twist is not exp(L)")
    require(product == ref.rat_matmul(twist, spherical), "product is not T*S")
    require(order == 5 == ref.rat_order(product, 10), "order of T*S is not 5")
    require(list(profiles) == [jordan_ranks(twist), jordan_ranks(spherical)], "jordan profiles wrong")


QUINTIC_P = [[1] * 6] + [[1] + [5 * (i == j) for i in range(5)] for j in range(5)]


def smith_torsion(rows) -> list:
    """Elementary divisors > 1 from gcds of k x k minors (determinantal divisors)."""
    prev, out = 1, []
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        g = 0
        for r in itertools.combinations(range(len(rows)), k):
            for c in itertools.combinations(range(len(rows[0])), k):
                g = math.gcd(g, ref.det([[rows[i][j] for j in c] for i in r]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return [d for d in out if d > 1]


def _kernel_vector(matrix, vec) -> bool:
    return all(sum(a * b for a, b in zip(row, vec)) == 0 for row in matrix)


def glsm_transpose(fmt, result, _) -> None:
    code, out, err = result
    if fmt == "structured":
        doc = structured(code, out, err)
        p, s, t = doc["P"], doc["factorization"]["S"], doc["factorization"]["T"]
        mp, ms, mt = doc["mirror_P"], doc["mirror_factorization"]["S"], doc["mirror_factorization"]["T"]
        names = doc["group"]["name"], doc["mirror_group"]["name"]
        torsion = doc["group"]["torsion"], doc["mirror_group"]["torsion"]
        gens = doc["group"]["generators"], doc["mirror_group"]["generators"]
        inv = doc["invariant_monomials"], doc["mirror_invariant_monomials"]
    else:
        lines = table(code, out, err)

        def ints(header):
            return [[int(x) for x in row] for row in block(lines, header)]

        p, s, t = ints("exponent matrix P"), ints("factor S"), ints("factor T")
        mp = ints("mirror exponent matrix")
        ms, mt = ref.transpose(t), ref.transpose(s)
        names = value_after(lines, "gauge group: "), value_after(lines, "mirror gauge group: ")
        torsion = smith_torsion(t), smith_torsion(mt)
        gens = ints("gauge charge generators"), ints("mirror gauge charge generators")
        inv = ints("invariant coefficient monomials"), ints("mirror invariant coefficient monomials")
    require(p == QUINTIC_P, "exponent matrix is not the quintic's")
    require(ref.matmul(s, t) == p and ref.matmul(ms, mt) == mp, "factorization does not multiply out")
    require(mp == ref.transpose(p) and ms == ref.transpose(t) and mt == ref.transpose(s), "mirror is not the transpose")
    require(names == ("U(1)", "U(1) x (Z_5)^3"), f"gauge groups {names}")
    require(list(torsion) == [smith_torsion(t), smith_torsion(mt)] == [[], [5, 5, 5]], "torsion wrong")
    for charges, vecs in zip((t, mt), gens):
        require(len(vecs) == 6 - ref.rank(charges), "torus rank wrong")
        for v in vecs:
            require(_kernel_vector(charges, v) and math.gcd(*v) == 1, f"generator {v} not a primitive charge")
    for matrix, vecs in zip((ref.transpose(p), p), inv):
        for v in vecs:
            require(v and _kernel_vector(matrix, v), f"monomial {v} is not invariant")


def kahler(magnitudes, charges, fmt, result, _) -> None:
    code, out, err = result
    if fmt == "structured":
        got = structured(code, out, err)["r"]
    else:
        got = value_after(table(code, out, err), "r: ").split()
    want = ref.kahler_r(magnitudes, charges)
    require(len(got) == len(want), "wrong number of components")
    for g, w in zip(got, want):
        require(math.isclose(float(g), w, rel_tol=1e-11, abs_tol=1e-12), f"r = {g}, expected {w!r}")


def syz_counts(fmt, result, _) -> None:
    code, out, err = result
    if fmt == "structured":
        s = structured(code, out, err)["summary"]
        v21, v12, edges = s["v21"], s["v12"], s["edges"]
    else:
        lines = table(code, out, err)
        v21 = int(value_after(lines, "type (2,1) vertices: "))
        v12 = int(value_after(lines, "type (1,2) vertices: "))
        edges = int(value_after(lines, "edges: "))
    require((v21, v12, edges) == (250, 50, 450), f"counts {(v21, v12, edges)}, expected (250, 50, 450)")
    require(v12 - v21 == 5 * adjunction_classes()[0][3], "v12 - v21 is not the Euler number")
    require(2 * edges == 3 * (v21 + v12), "graph is not trivalent")


def syz_k3(multiplicities, fmt, result, _) -> None:
    code, out, err = result
    total = sum(multiplicities)
    if fmt == "structured":
        doc = structured(code, out, err)
        got = doc["multiplicity_sum"], doc["semistable_euler_check"], doc["selfconjugacy_witness_k1"]
    else:
        lines = table(code, out, err)
        check = value_after(lines, "euler count matches K3 (sum = 24): ")
        witness = [[int(x) for x in row] for row in block(lines, "self-conjugacy witness for the k=1 monodromy")]
        got = int(value_after(lines, "fiber multiplicity sum: ")), {"yes": True, "no": False}.get(check), witness
    require(got[0] == total and got[1] == (total == 24), f"sum {got[0]} / check {got[1]} for total {total}")
    c = got[2]
    m, m_inv_t = [[1, 1], [0, 1]], [[1, 0], [-1, 1]]
    require(ref.det(c) == 1, "witness is not in SL(2, Z)")
    require(ref.matmul(ref.matmul(c, m_inv_t), ref.int_inverse(c)) == m, "witness does not conjugate")


def syz_classify(kind, fmt, result, _) -> None:
    code, out, err = result
    profile = (2, 1) if kind == "type21" else (1, 2)
    if fmt == "structured":
        doc = structured(code, out, err)
        got = tuple(doc["profile"]), doc["type"]
    else:
        lines = table(code, out, err)
        got = value_after(lines, "fixed-space profile: "), value_after(lines, "vertex type: ")
        profile = f"d1={profile[0]} d2={profile[1]}"
    require(got == (profile, kind), f"classified {got}, expected {(profile, kind)}")


# ---------------------------------------------------------------------------
# polytopes
# ---------------------------------------------------------------------------


def polytope(source, fmt, result, want) -> None:
    """`want` holds vertices, dimension, reflexive and, when reflexive,
    dual_vertices and dual_lattice_point_count (plus moduli for builtin)."""
    code, out, err = result
    if fmt == "structured":
        doc = structured(code, out, err)
        require(doc["source"] == source, "source echoed wrong")
        got = {k: doc.get(k) for k in want}
    else:
        lines = table(code, out, err)
        label = "fan simplex of the degree-5 hypersurface family" if source == "builtin" else source
        got = {
            "vertices": [[int(x) for x in row] for row in block(lines, f"polytope: {label}; vertices")],
            "dimension": int(value_after(lines, "dimension: ")),
            "reflexive": value_after(lines, "reflexive: ") == "yes",
        }
        if want["reflexive"]:
            got["dual_vertices"] = [[int(x) for x in row] for row in block(lines, "dual vertices")]
            got["dual_lattice_point_count"] = int(value_after(lines, "dual lattice points: "))
        if "moduli_dimension" in want:
            got["moduli_dimension"] = int(value_after(lines, "hypersurface moduli dimension: "))
    for key, value in want.items():
        require(got.get(key) == value, f"{key}: got {str(got.get(key))[:120]}, expected {str(value)[:120]}")


def bad_input(result, _) -> None:
    """Exit code 2, nothing on stdout, exactly one 'error: input:' line on stderr."""
    code, out, err = result
    lines = err.splitlines()
    require(code == 2, f"exit code {code}, expected 2 (stdout starts {out[:60]!r})")
    require(out == "", "bad input produced output")
    require(len(lines) == 1 and lines[0].startswith("error: input:"), f"stderr {err[:200]!r}")
