"""Command-line front end.

Every subcommand is a pure function of its arguments, so identical
invocations produce byte-identical output.  Two renderings are
available: ``table`` (aligned, human-readable text) and ``structured``
(versioned JSON with every rational as a "num/den" string).  The only
floating-point numbers the interface ever emits come from
``glsm kahler``, printed to 12 significant digits.

Exit codes: 0 success, 1 usage error, 2 input error, 3 invariant
failure (a computation gate such as curve-count integrality tripped).
Failures print one line to stderr of the form ``error: <category>: ...``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import enumerative, glsm, kontsevich, picard_fuchs, syz, toric
from .exactnum import CyclotomicElement, NilpotentElement, rational_str

SCHEMA = "quintic-mirror/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

_CATEGORY_BY_CODE = {
    EXIT_USAGE: "usage",
    EXIT_INPUT: "input",
    EXIT_INVARIANT: "invariant",
}


class CommandError(Exception):
    """Failure with a machine-parsable category and a fixed exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.category = _CATEGORY_BY_CODE[code]


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code pinned to 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {self.prog}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Ceilings on the series orders and degree bounds (--order, --dmax).  The
# series kernels cost at least the cube of the order in growing integers,
# so an order of 10^12 would never finish; with a ceiling it fails at once.
# Each ceiling keeps one process within about a minute on a 2-vCPU Xeon
# virtual machine with Python 3.11.7: `periods --order 1000` takes about
# 1 s, and `gw --order 250 --dmax 250` about 47 s (19 s at 200).
MAX_ORDER = 1000
MAX_GW_ORDER = 250


def _order_up_to(ceiling: int):
    """An argparse type: an integer from 1 to `ceiling`."""

    def order(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling}")
        return value

    return order


# -- rendering helpers ----------------------------------------------------


def _frac_text(q) -> str:
    return str(Fraction(q))


def _entry_text(x) -> str:
    if isinstance(x, (NilpotentElement, CyclotomicElement)):
        return "[" + ",".join(_frac_text(c) for c in x.coeffs) + "]"
    return _frac_text(x)


def _matrix_block(label: str, matrix) -> list:
    texts = [[_entry_text(x) for x in row] for row in matrix.rows]
    widths = [max(len(r[j]) for r in texts) for j in range(len(texts[0]))]
    lines = [label]
    for row in texts:
        lines.append("  " + "  ".join(t.rjust(w) for t, w in zip(row, widths)))
    return lines


def _int_block(label: str, rows) -> list:
    texts = [[str(x) for x in row] for row in rows]
    widths = [max(len(r[j]) for r in texts) for j in range(len(texts[0]))]
    lines = [label]
    for row in texts:
        lines.append("  " + "  ".join(t.rjust(w) for t, w in zip(row, widths)))
    return lines


def _series_line(label: str, series) -> str:
    return f"{label}: " + " ".join(_frac_text(c) for c in series.coeffs)


def _cohomology_text(elem) -> str:
    parts = []
    for k, c in enumerate(elem.components):
        if c == 0:
            continue
        if k == 0:
            parts.append(_frac_text(c))
        else:
            basis = "L" if k == 1 else f"L^{k}"
            if c == 1:
                parts.append(basis)
            elif c == -1:
                parts.append(f"-{basis}")
            else:
                parts.append(f"{_frac_text(c)} {basis}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def _order_text(order) -> str:
    return "none" if order is None else str(order)


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant)
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise CommandError(EXIT_INPUT, f"cannot read {path}: {detail}")
    except ValueError as exc:  # JSONDecodeError, or NaN/Infinity
        raise CommandError(EXIT_INPUT, f"malformed JSON in {path}: {exc}")


def _json_arrays(path: str, **depths: int) -> list:
    """The named fields of the JSON object in path, in order; each must be
    an array nested depth deep (2: an array of arrays)."""
    data = _load_json(path)
    if not isinstance(data, dict) or not data.keys() >= depths.keys():
        fields = " and ".join(f'"{name}"' for name in depths)
        raise CommandError(EXIT_INPUT, f"{path}: expected an object with {fields}")
    for name, depth in depths.items():
        level = [data[name]]
        for _ in range(depth):
            if not all(isinstance(v, list) for v in level):
                kind = "an array" + " of arrays" * (depth - 1)
                raise CommandError(EXIT_INPUT, f'{path}: "{name}" must be {kind}')
            level = [w for v in level for w in v]
    return [data[name] for name in depths]


# -- subcommand implementations -------------------------------------------


def _cmd_periods(args) -> tuple:
    bundle = picard_fuchs.frobenius_at_zero(args.order)
    operator = picard_fuchs.PeriodOperator.quintic()
    if not picard_fuchs.apply_operator(operator, bundle.series).is_zero():
        raise CommandError(EXIT_INVARIANT, "operator residual is nonzero")
    components = [bundle.component(k) for k in range(4)]

    # coefficients run to thousands of digits: render only the chosen format
    def lines():
        return (
            [f"period solutions at z = 0, truncated past z^{args.order}"]
            + [_series_line(f"phi{k}", comp) for k, comp in enumerate(components)]
            + ["operator residual vanishes: yes"]
        )

    def doc():
        return {
            "schema": SCHEMA,
            "command": "periods",
            "order": args.order,
            "components": {
                f"phi{k}": comp.to_json() for k, comp in enumerate(components)
            },
            "operator_residual_zero": True,
        }

    return doc, lines


def _cmd_monodromy(args) -> tuple:
    at_zero = picard_fuchs.monodromy_at_zero()
    at_inf = picard_fuchs.monodromy_at_infinity()
    at_inf_power = picard_fuchs.monodromy_at_infinity_power_basis()

    reports = []
    for label, mono in (
        ("z = 0", at_zero),
        ("z = infinity", at_inf),
        ("z = infinity, power basis", at_inf_power),
    ):
        order = kontsevich.matrix_order(mono.matrix, 10)
        profile = kontsevich.jordan_profile(mono.matrix)
        reports.append((label, mono, order, profile))

    lines = []
    for label, mono, order, profile in reports:
        lines.extend(_matrix_block(f"monodromy at {label} (basis: {mono.basis_tag})", mono.matrix))
        lines.append(f"  order: {_order_text(order)}")
        lines.append("  jordan profile: " + " ".join(str(r) for r in profile))
    doc = {
        "schema": SCHEMA,
        "command": "monodromy",
        "matrices": {
            key: {
                "report": mono.to_json(),
                "order": order,
                "jordan_profile": list(profile),
            }
            for key, (label, mono, order, profile) in zip(
                ("at_zero", "at_infinity", "at_infinity_power_basis"), reports
            )
        },
    }
    return doc, lines


def _cmd_gw(args) -> tuple:
    order = args.order
    if order < args.dmax:
        raise CommandError(
            EXIT_USAGE, f"--order {order} is below --dmax {args.dmax}"
        )
    mirror = enumerative.build_mirror_map(max(order, 2))
    kappa = mirror.normalized_coupling(order)
    try:
        table = enumerative.extract_instantons(kappa, args.dmax)
    except enumerative.IntegralityError as exc:
        raise CommandError(EXIT_INVARIANT, str(exc))

    lines = [
        _series_line(f"mirror map q(z) through z^{mirror.q_of_z.order}", mirror.q_of_z),
        _series_line(f"inverse z(q) through q^{mirror.z_of_q.order}", mirror.z_of_q),
        _series_line(f"coupling kappa(q) through q^{kappa.order}", kappa),
        "degree  count",
    ]
    for d in table.degrees():
        lines.append(f"{d:>6}  {table.n[d]}")
    doc = {
        "schema": SCHEMA,
        "command": "gw",
        "order": order,
        "d_max": args.dmax,
        "mirror_map": {
            "q_of_z": mirror.q_of_z.to_json(),
            "z_of_q": mirror.z_of_q.to_json(),
        },
        "kappa": kappa.to_json(),
        "instanton_numbers": table.to_json(),
    }
    return doc, lines


def _polytope_from_file(path: str) -> toric.LatticePolytope:
    (points,) = _json_arrays(path, points=2)
    try:
        return toric.LatticePolytope(points)
    except (ValueError, TypeError) as exc:
        raise CommandError(EXIT_INPUT, f"{path}: {exc}")


def _cmd_polytope(args) -> tuple:
    builtin = args.input_path is None
    if builtin:
        polytope = toric.projective_space_fan_polytope()
        label = "fan simplex of the degree-5 hypersurface family"
    else:
        polytope = _polytope_from_file(args.input_path)
        label = args.input_path

    report = polytope.is_reflexive()
    lines = _int_block(f"polytope: {label}; vertices", polytope.vertices)
    lines.append(f"dimension: {polytope.dim}")
    lines.append("reflexive: " + ("yes" if report.is_reflexive else "no"))
    doc = {
        "schema": SCHEMA,
        "command": "polytope",
        "source": "builtin" if builtin else args.input_path,
        "vertices": [list(v) for v in polytope.vertices],
        "dimension": polytope.dim,
        "reflexive": report.is_reflexive,
    }
    if report.is_reflexive:
        dual = polytope.polar_dual()
        dual_points = dual.lattice_points()
        lines.extend(_int_block("dual vertices", dual.vertices))
        lines.append(f"dual lattice points: {len(dual_points)}")
        doc["dual_vertices"] = [list(v) for v in dual.vertices]
        doc["dual_lattice_point_count"] = len(dual_points)
        if builtin:
            moduli = toric.moduli_dimension(len(dual_points), 25)
            lines.append(f"hypersurface moduli dimension: {moduli}")
            doc["moduli_dimension"] = moduli
    return doc, lines


def _cmd_glsm_transpose(args) -> tuple:
    p = glsm.ExponentMatrix.quintic()
    f = glsm.ChargeFactorization.quintic()
    try:
        p_hat, f_hat = glsm.transpose_mirror(p, f)
    except glsm.FactorizationError as exc:
        raise CommandError(EXIT_INVARIANT, str(exc))
    structure, generators = glsm.group_from_charges(f.t_rows)
    structure_hat, generators_hat = glsm.group_from_charges(f_hat.t_rows)
    invariants = glsm.invariant_coordinates(p)
    invariants_hat = glsm.invariant_coordinates(p_hat)

    lines = _int_block("exponent matrix P", p.rows)
    lines.extend(_int_block("factor S", f.s_rows))
    lines.extend(_int_block("factor T", f.t_rows))
    lines.append(f"gauge group: {structure.describe()}")
    lines.extend(_int_block("gauge charge generators", generators or [[]]))
    lines.extend(_int_block("mirror exponent matrix", p_hat.rows))
    lines.append(f"mirror gauge group: {structure_hat.describe()}")
    lines.extend(_int_block("mirror gauge charge generators", generators_hat or [[]]))
    lines.extend(_int_block("invariant coefficient monomials", invariants or [[]]))
    lines.extend(
        _int_block("mirror invariant coefficient monomials", invariants_hat or [[]])
    )
    doc = {
        "schema": SCHEMA,
        "command": "glsm-transpose",
        "P": p.to_json(),
        "factorization": f.to_json(),
        "group": {
            "torus_rank": structure.torus_rank,
            "torsion": list(structure.torsion),
            "name": structure.describe(),
            "generators": [list(g) for g in generators],
        },
        "mirror_P": p_hat.to_json(),
        "mirror_factorization": f_hat.to_json(),
        "mirror_group": {
            "torus_rank": structure_hat.torus_rank,
            "torsion": list(structure_hat.torsion),
            "name": structure_hat.describe(),
            "generators": [list(g) for g in generators_hat],
        },
        "invariant_monomials": [list(v) for v in invariants],
        "mirror_invariant_monomials": [list(v) for v in invariants_hat],
    }
    return doc, lines


def _cmd_glsm_kahler(args) -> tuple:
    if args.input_path is None:
        magnitudes = [math.exp(-2.0 * math.pi), 1.0]
        charges = [[1, 0], [0, 1]]
        source = "builtin"
    else:
        magnitudes, charges = _json_arrays(args.input_path, magnitudes=1, charges=2)
        source = args.input_path
    try:
        r = glsm.kahler_parameter(magnitudes, charges)
    except (ValueError, TypeError, OverflowError) as exc:
        raise CommandError(EXIT_INPUT, str(exc))
    formatted = [f"{v:.12g}" if v != 0 else "0" for v in r]

    lines = [
        "kahler parameter r = -(1/2pi) sum_k log|c_k| chi_k",
        "r: " + " ".join(formatted),
    ]
    doc = {
        "schema": SCHEMA,
        "command": "glsm-kahler",
        "source": source,
        "r": formatted,
    }
    return doc, lines


def _cmd_kontsevich(args) -> tuple:
    classes = kontsevich.chern_from_adjunction()
    euler = kontsevich.euler_number(classes)
    twist = kontsevich.quintic_twist()
    spherical = kontsevich.quintic_spherical()
    product = twist * spherical
    order = kontsevich.matrix_order(product, 10)

    lines = [
        "tangent classes from the adjunction expansion:",
        f"  c1 = {_cohomology_text(classes.c1)}",
        f"  c2 = {_cohomology_text(classes.c2)}",
        f"  c3 = {_cohomology_text(classes.c3)}",
        f"euler number: {_frac_text(euler)}",
        f"todd class: {_cohomology_text(classes.todd)}",
    ]
    lines.extend(_matrix_block("twist matrix T (basis 1, L, L^2, L^3)", twist))
    lines.append(
        "  jordan profile: "
        + " ".join(str(r) for r in kontsevich.jordan_profile(twist))
    )
    lines.extend(_matrix_block("spherical twist S", spherical))
    lines.append(
        "  jordan profile: "
        + " ".join(str(r) for r in kontsevich.jordan_profile(spherical))
    )
    lines.extend(_matrix_block("product T*S", product))
    lines.append(f"order of T*S: {_order_text(order)}")
    doc = {
        "schema": SCHEMA,
        "command": "kontsevich",
        "chern": {
            "c1": [rational_str(c) for c in classes.c1.components],
            "c2": [rational_str(c) for c in classes.c2.components],
            "c3": [rational_str(c) for c in classes.c3.components],
        },
        "euler_number": rational_str(euler),
        "todd": [rational_str(c) for c in classes.todd.components],
        "twist": twist.to_json(),
        "twist_jordan_profile": list(kontsevich.jordan_profile(twist)),
        "spherical": spherical.to_json(),
        "spherical_jordan_profile": list(kontsevich.jordan_profile(spherical)),
        "product": product.to_json(),
        "product_order": order,
    }
    if order != 5:
        raise CommandError(
            EXIT_INVARIANT, f"(T*S) order came out {_order_text(order)}, expected 5"
        )
    return doc, lines


def _vertex_from_file(path: str) -> syz.VertexData:
    (triple,) = _json_arrays(path, monodromies=3)
    if len(triple) != 3:
        raise CommandError(EXIT_INPUT, f"{path}: need exactly three matrices")
    try:
        return syz.VertexData.from_rows_triple(*triple)
    except (ValueError, TypeError) as exc:
        raise CommandError(EXIT_INPUT, f"{path}: {exc}")


def _cmd_syz_classify(args) -> tuple:
    vertex = _vertex_from_file(args.input_path)
    profile = syz.fixed_space_profile(vertex)
    kind = syz.classify_vertex(vertex)
    lines = [
        f"fixed-space profile: d1={profile[0]} d2={profile[1]}",
        f"vertex type: {kind}",
    ]
    doc = {
        "schema": SCHEMA,
        "command": "syz-classify",
        "profile": list(profile),
        "type": kind,
    }
    return doc, lines


def _cmd_syz_quintic_counts(args) -> tuple:
    summary = syz.quintic_fibration_summary()
    lines = [
        f"type (2,1) vertices: {summary.v21}",
        f"type (1,2) vertices: {summary.v12}",
        f"edges: {summary.edges}",
    ]
    doc = {
        "schema": SCHEMA,
        "command": "syz-quintic-counts",
        "summary": summary.to_json(),
    }
    return doc, lines


def _cmd_syz_k3(args) -> tuple:
    if args.input_path is None:
        multiplicities = [1] * 24
        source = "builtin"
    else:
        (multiplicities,) = _json_arrays(args.input_path, multiplicities=1)
        source = args.input_path
    try:
        euler_ok = syz.k3_semistable_check(multiplicities)
    except (ValueError, TypeError) as exc:
        raise CommandError(EXIT_INPUT, str(exc))
    witness = syz.sl2_mirror_selfconjugacy(1)

    lines = [
        f"fiber multiplicity sum: {sum(int(k) for k in multiplicities)}",
        "euler count matches K3 (sum = 24): " + ("yes" if euler_ok else "no"),
    ]
    lines.extend(
        _int_block("self-conjugacy witness for the k=1 monodromy", witness)
    )
    doc = {
        "schema": SCHEMA,
        "command": "syz-k3",
        "source": source,
        "multiplicity_sum": sum(int(k) for k in multiplicities),
        "semistable_euler_check": euler_ok,
        "selfconjugacy_witness_k1": [list(row) for row in witness],
    }
    return doc, lines


# -- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "structured"),
        default="table",
        help="output rendering (default: table)",
    )

    parser = _Parser(
        prog="quintic-mirror",
        description="Exact mirror-symmetry computations for the quintic threefold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "periods", parents=[common], help="period solutions and operator residual"
    )
    p.add_argument("--order", type=_order_up_to(MAX_ORDER), default=12)
    p.set_defaults(handler=_cmd_periods)

    p = sub.add_parser(
        "monodromy", parents=[common], help="monodromy matrices at z = 0 and infinity"
    )
    p.set_defaults(handler=_cmd_monodromy)

    p = sub.add_parser(
        "gw", parents=[common], help="mirror map, coupling, and curve counts"
    )
    p.add_argument("--order", type=_order_up_to(MAX_GW_ORDER), default=12)
    p.add_argument("--dmax", type=_order_up_to(MAX_GW_ORDER), default=3)
    p.set_defaults(handler=_cmd_gw)

    p = sub.add_parser(
        "polytope", parents=[common], help="reflexivity and polar-dual data"
    )
    p.add_argument("--in", dest="input_path", default=None)
    p.set_defaults(handler=_cmd_polytope)

    p = sub.add_parser("glsm", help="gauged linear sigma model data")
    glsm_sub = p.add_subparsers(dest="glsm_command", required=True)
    q = glsm_sub.add_parser(
        "transpose", parents=[common], help="transpose-mirror factorization"
    )
    q.set_defaults(handler=_cmd_glsm_transpose)
    q = glsm_sub.add_parser(
        "kahler", parents=[common], help="kahler parameter from coefficient magnitudes"
    )
    q.add_argument("--in", dest="input_path", default=None)
    q.set_defaults(handler=_cmd_glsm_kahler)

    p = sub.add_parser(
        "kontsevich", parents=[common], help="cohomology transforms and their orders"
    )
    p.set_defaults(handler=_cmd_kontsevich)

    p = sub.add_parser("syz", help="torus-fibration combinatorics")
    syz_sub = p.add_subparsers(dest="syz_command", required=True)
    q = syz_sub.add_parser(
        "classify", parents=[common], help="classify a monodromy triple"
    )
    q.add_argument("--in", dest="input_path", required=True)
    q.set_defaults(handler=_cmd_syz_classify)
    q = syz_sub.add_parser(
        "quintic-counts", parents=[common], help="discriminant graph counts"
    )
    q.set_defaults(handler=_cmd_syz_quintic_counts)
    q = syz_sub.add_parser(
        "k3", parents=[common], help="K3 semistable-fiber checks"
    )
    q.add_argument("--in", dest="input_path", default=None)
    q.set_defaults(handler=_cmd_syz_k3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        doc, lines = args.handler(args)
    except CommandError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.code
    # a handler may return a rendering as a function, called only if chosen
    rendering = doc if args.format == "structured" else lines
    if callable(rendering):
        rendering = rendering()
    if args.format == "structured":
        text = json.dumps(rendering, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(rendering) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
