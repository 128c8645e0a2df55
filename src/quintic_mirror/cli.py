"""Command-line front end.

Every subcommand is a pure function of its arguments, so identical
invocations produce byte-identical output.  Two renderings are
available: ``table`` (aligned, human-readable text) and ``structured``
(versioned JSON with every rational as a "num/den" string).  The only
floating-point numbers the interface ever emits come from
``glsm kahler``, printed to 12 correctly rounded significant digits.

Each subcommand is one row of ``COMMANDS``: its words, help text,
handler and options.  ``parse`` reads a command's words and ``--flag
value`` pairs straight from the rows, without argparse; any other argv
goes to ``build_parser``'s argparse parser, which prints help and usage
errors.  A handler computes and checks, then returns only the rendering
that ``args.format`` asks for: any iterable of table lines, each a string
or an iterable of its parts, or the fields of the structured document,
which holds library values as they are.  ``_dump`` writes the document as
indented JSON with sorted keys, without the json module, and ``_json`` is
the one place a library value's structured form is set; the writer calls
it on each value it cannot write itself, as it reaches it.  ``main`` adds
``"schema"`` and ``"command"`` (the words joined by ``-``) to the
document and writes the one rendering to stdout as it goes, a line's part
or a writer's chunk at a time, so no command holds its rendered output:
``periods`` holds its Frobenius bundle and one coefficient string.  When
the reader closes the pipe early (``| head``), ``main`` stops writing and
exits 0 with nothing on stderr.  A process is start-up, imports, the
handler and shutdown; as the entry (argv None), ``main`` freezes the heap
for exit.  ``gw``, ``periods`` and ``polytope`` load from the standard
library only ``math``, ``operator``, ``itertools``, ``types`` and
``reprlib``; ``fractions`` loads where a Fraction is built, ``decimal``
and ``numbers`` for ``glsm kahler``, argparse for help and usage errors,
and json for escaped strings and input files beyond ``_plain_json``.

Exit codes: 0 success, 1 usage error, 2 input error, 3 invariant
failure (a computation gate such as curve-count integrality tripped).
Failures print one line to stderr of the form ``error: <category>: ...``.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from types import GeneratorType, SimpleNamespace

from . import enumerative, glsm, kontsevich, picard_fuchs, syz, toric
from .exactnum import CyclotomicElement, NilpotentElement, TruncatedSeries
from .linalg import SquareExactMatrix

SCHEMA = "quintic-mirror/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INVARIANT = 3

_CATEGORY_BY_CODE = {EXIT_USAGE: "usage", EXIT_INPUT: "input", EXIT_INVARIANT: "invariant"}


class CommandError(Exception):
    """Failure with a machine-parsable category and a fixed exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.category = _CATEGORY_BY_CODE[code]


# Ceilings on --order and --dmax: the series kernels cost at least the cube of
# the order in growing integers, so 10^12 would never finish but fails at once.
# Each keeps a process within about a minute (2-vCPU Xeon VM, Python 3.11.7):
# `periods --order 1000` takes 0.55 to 0.6 s, `gw --order 300 --dmax 300` about
# 5.2 s.  At 1000 the longest number `periods` prints has 4,142 digits; `main`
# lifts CPython's int-to-str digit limit while it renders, so no limit cuts it off.
# Rendered as written, one coefficient at a time, `periods --order 1000` (8.1 MB
# out) peaks at 18.5 MB of RSS in both formats (15.0 at order 400); one component's
# strings at a time took 22 (26 as a table), built whole 27 (30), one string 43-45.
MAX_ORDER = 1000
MAX_GW_ORDER = 300

# Ceilings on a `polytope --in` file.  A hull costs about points times facets,
# and the moment curve has the most: 128 points 2(t, ..., t^5), t = -63..64, at
# 32 bits, have 15,500 facets and take 25 s (same VM; 5.5 s in 4 dimensions).
MAX_POLYTOPE_POINTS = 128
MAX_POLYTOPE_DIM = 5
MAX_COORDINATE_BITS = 32


def _order_up_to(ceiling: int):
    """An option type: an integer from 1 to `ceiling`, or a ValueError saying why not."""

    def order(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}")
        if value < 1:
            raise ValueError("must be at least 1")
        if value > ceiling:
            raise ValueError(f"must be at most {ceiling}")
        return value

    return order


# -- rendering helpers ----------------------------------------------------


def _ratio_text(num: int, den: int, whole: str) -> str:
    """num/den (den > 0) in lowest terms as "n/d", or "n" then `whole` when den divides num."""
    # num = q den + r, so gcd(num, den) = gcd(den, r): one division of the
    # long numerator, and a gcd on numbers no longer than den
    q, r = divmod(num, den)
    if not r:
        return f"{q}{whole}"
    if (g := math.gcd(den, r)) == 1:
        return f"{num}/{den}"
    return f"{q * (den // g) + r // g}/{den // g}"


def _entry_text(x) -> str:  # an int, a Fraction or a ring element
    if isinstance(x, (NilpotentElement, CyclotomicElement)):
        return "[" + ",".join(_ratio_text(n, x.den, "") for n in x.num) + "]"
    return str(x)


def _block(label: str, rows) -> list:
    """A label line, then the rows as a right-aligned table indented by two."""
    texts = [[_entry_text(x) for x in row] for row in rows]
    widths = [max(len(r[j]) for r in texts) for j in range(len(texts[0]))]
    lines = [label]
    for row in texts:
        lines.append("  " + "  ".join(t.rjust(w) for t, w in zip(row, widths)))
    return lines


def _series_line(label: str, series) -> str:  # over QQ
    t = series.terms
    return f"{label}: " + " ".join(_ratio_text(n, t.den, "") for n in t.num)


def _profile_line(profile) -> str:
    return "  jordan profile: " + " ".join(map(str, profile))


def _cohomology_text(elem) -> str:
    parts = []
    for k, c in enumerate(elem.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            basis = "L" if k == 1 else f"L^{k}"
            if c == 1:
                parts.append(basis)
            elif c == -1:
                parts.append(f"-{basis}")
            else:
                parts.append(f"{c} {basis}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def _order_text(order) -> str:
    return "none" if order is None else str(order)


# -- input ------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


_PLAIN_JSON_UNQUOTED = str.maketrans("", "", "[]{},:0123456789+-.eE \t\n\r")


def _json_number(token: str):
    """The int or float json reads from token (ASCII), or None unless it is a
    JSON number that converts under the int-to-str digit limit."""
    mantissa, e, exponent = token.removeprefix("-").replace("E", "e").partition("e")
    whole, dot, fraction = mantissa.partition(".")
    if ((whole == "0" or whole.isdigit() and whole[0] != "0") and (not dot or fraction.isdigit())
            and (not e or exponent[exponent[:1] in "+-":].isdigit())):
        try:
            return float(token) if dot or e else int(token)
        except ValueError:  # past the digit limit: json words the error
            pass


def _plain_json(text: str):
    """json.loads(text) for text in the plain subset of JSON, else None:
    arrays and objects (string keys) nested at most 64 deep, numbers, strings
    of printable ASCII without escapes, and only JSON's four whitespaces."""
    parts = text.split('"')  # with no escapes, the odd parts are the strings
    if len(parts) % 2 == 0:  # the last string is never closed
        return None
    tokens = []
    for i, part in enumerate(parts):
        if i % 2 == 0:
            if part.translate(_PLAIN_JSON_UNQUOTED):
                return None
            for c in "[]{},:":
                part = part.replace(c, f" {c} ")
            tokens += part.split()
        elif part.isascii() and not part.encode().translate(None, _PLAIN_JSON_BYTES):
            tokens.append('"' + part)
        else:
            return None
    stack, want = [[]], "value"  # the open containers under a root list; what comes next
    for token in tokens:
        top = stack[-1]
        if want in ("open", ",") and token == ("]" if type(top) is list else "}") and len(stack) > 1:
            stack.pop()
            want = ","
        elif want in (",", ":") and token == want and len(stack) > 1:
            want = "key" if want == "," and type(top) is dict else "value"
        elif want in ("open", "key") and type(top) is dict and token[0] == '"':
            key, want = token[1:], ":"
        elif (want == "value" or want == "open" and type(top) is list) and len(stack) <= 64 and (
                value := [] if token == "[" else {} if token == "{" else
                token[1:] if token[0] == '"' else _json_number(token)) is not None:
            if type(top) is dict:
                top[key] = value
            else:
                top.append(value)
            want = "open" if token in ("[", "{") else ","
            if want == "open":
                stack.append(value)
        else:
            return None
    return stack[0][0] if want == "," and len(stack) == 1 else None


def _load_json(path: str):
    """The JSON value in path; json reads only what ``_plain_json`` does not."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if (value := _plain_json(text)) is not None:
            return value
        import json
        return json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise CommandError(EXIT_INPUT, f"cannot read {path}: {detail}")
    except ValueError as exc:  # JSONDecodeError, or NaN/Infinity
        raise CommandError(EXIT_INPUT, f"malformed JSON in {path}: {exc}")
    except RecursionError:
        raise CommandError(EXIT_INPUT, f"malformed JSON in {path}: nested too deeply")


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


def _checked(build, *values, where: str):
    """build(*values), its rejection of the values reported as bad input after
    ``where``, the input file's path (``""`` for a built-in input)."""
    try:
        return build(*values)
    except (ValueError, TypeError, OverflowError) as exc:
        raise CommandError(EXIT_INPUT, f"{where}: {exc}" if where else str(exc))


def _source(args) -> str:
    return "builtin" if args.input_path is None else args.input_path


# -- subcommand implementations -------------------------------------------


def _cmd_periods(args):
    bundle = picard_fuchs.frobenius_at_zero(args.order)
    operator = picard_fuchs.PeriodOperator.quintic()
    if not picard_fuchs.apply_operator(operator, bundle.series).is_zero():
        raise CommandError(EXIT_INVARIANT, "operator residual is nonzero")
    table = args.format == "table"
    whole = "" if table else "/1"

    def texts(k):  # phi_k's z^n coefficient: num[k]/den of A_n(a) in lowest terms; tables drop /1
        return (_ratio_text(c.num[k], c.den, whole) for c in bundle.series.coeffs)

    # rendered as written, one coefficient string at a time, after the gate above;
    # a table line is its label and then its coefficients, each after a space
    if table:
        heading = f"period solutions at z = 0, truncated past z^{args.order}"
        lines = (chain([f"phi{k}:"], (" " + t for t in texts(k))) for k in range(4))
        return chain([heading], lines, ["operator residual vanishes: yes"])
    components = {f"phi{k}": {"coefficients": texts(k)} for k in range(4)}
    return {"order": args.order, "components": components, "operator_residual_zero": True}


def _cmd_monodromy(args):
    reports = []
    for key, label, mono in (
        ("at_zero", "z = 0", picard_fuchs.monodromy_at_zero()),
        ("at_infinity", "z = infinity", picard_fuchs.monodromy_at_infinity()),
        (
            "at_infinity_power_basis",
            "z = infinity, power basis",
            picard_fuchs.monodromy_at_infinity_power_basis(),
        ),
    ):
        order = kontsevich.matrix_order(mono.matrix, 10)
        profile = kontsevich.jordan_profile(mono.matrix)
        reports.append((key, label, mono, order, profile))
    # the power-basis matrix B D B^-1 is conjugate to the diagonal D, so the
    # two share their order, which is 5, and their Jordan profile
    (*_, order, profile), (*_, power_order, power_profile) = reports[1:]
    if (order, power_order) != (5, 5) or profile != power_profile:
        raise CommandError(
            EXIT_INVARIANT,
            f"monodromy at infinity: orders {_order_text(order)} and {_order_text(power_order)}, "
            f"jordan profiles {list(profile)} and {list(power_profile)} in the diagonal and "
            "power bases; expected order 5 and one profile",
        )
    if args.format == "table":
        lines = []
        for _, label, mono, order, profile in reports:
            heading = f"monodromy at {label} (basis: {mono.basis_tag})"
            lines += _block(heading, mono.matrix.rows)
            lines += [f"  order: {_order_text(order)}", _profile_line(profile)]
        return lines
    return {
        "matrices": {
            key: {
                "report": {"version": 1, "basis": mono.basis_tag, "entries": mono.matrix},
                "order": order,
                "jordan_profile": profile,
            }
            for key, _, mono, order, profile in reports
        }
    }


def _cmd_gw(args):
    order = args.order
    if order < args.dmax:
        raise CommandError(EXIT_USAGE, f"--order {order} is below --dmax {args.dmax}")
    try:
        mirror = enumerative.build_mirror_map(max(order, 2))
        kappa = mirror.normalized_coupling(order)
        table = enumerative.extract_instantons(kappa, args.dmax)
    except (enumerative.IntegralityError, enumerative.PrepotentialError) as exc:
        raise CommandError(EXIT_INVARIANT, str(exc))
    if args.format == "table":
        return [
            _series_line(f"mirror map q(z) through z^{mirror.q_of_z.order}", mirror.q_of_z),
            _series_line(f"inverse z(q) through q^{mirror.z_of_q.order}", mirror.z_of_q),
            _series_line(f"coupling kappa(q) through q^{kappa.order}", kappa),
            "degree  count",
            *(f"{d:>6}  {table.n[d]}" for d in table.degrees()),
        ]
    return {
        "order": order,
        "d_max": args.dmax,
        "mirror_map": {"q_of_z": mirror.q_of_z, "z_of_q": mirror.z_of_q},
        "kappa": kappa,
        "instanton_numbers": {str(d): n for d, n in table.n.items()},
    }


def _cmd_polytope(args):
    builtin = args.input_path is None
    if builtin:
        polytope = toric.projective_space_fan_polytope()
        label = "fan simplex of the degree-5 hypersurface family"
    else:
        label = args.input_path
        (points,) = _json_arrays(label, points=2)
        bits = [abs(int(x)).bit_length() for p in points for x in p
                if isinstance(x, (int, float)) and math.isfinite(x)]
        for value, cap, what in (
            (len(points), MAX_POLYTOPE_POINTS, "points"),
            (max(map(len, points), default=0), MAX_POLYTOPE_DIM, "coordinates in a point"),
            (max(bits, default=0), MAX_COORDINATE_BITS, "bits in a coordinate"),
        ):
            if value > cap:
                raise CommandError(EXIT_INPUT, f"{label}: {value} {what}, at most {cap} allowed")
        polytope = _checked(toric.LatticePolytope, points, where=label)
    report = polytope.is_reflexive()
    reflexive = report.is_reflexive
    if reflexive:
        dual = polytope.reflexive_dual(report)
        count = len(dual.lattice_points())
        moduli = toric.moduli_dimension(count, 25) if builtin else None
    if args.format == "table":
        lines = _block(f"polytope: {label}; vertices", polytope.vertices)
        lines.append(f"dimension: {polytope.dim}")
        lines.append("reflexive: " + ("yes" if reflexive else "no"))
        if reflexive:
            lines += _block("dual vertices", dual.vertices)
            lines.append(f"dual lattice points: {count}")
            if builtin:
                lines.append(f"hypersurface moduli dimension: {moduli}")
        return lines
    doc = {
        "source": _source(args),
        "vertices": polytope.vertices,
        "dimension": polytope.dim,
        "reflexive": reflexive,
    }
    if reflexive:
        doc["dual_vertices"] = dual.vertices
        doc["dual_lattice_point_count"] = count
        if builtin:
            doc["moduli_dimension"] = moduli
    return doc


def _group_json(structure, generators) -> dict:
    return {
        "torus_rank": structure.torus_rank,
        "torsion": structure.torsion,
        "name": structure.describe(),
        "generators": generators,
    }


def _cmd_glsm_transpose(args):
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
    if args.format == "table":
        return [
            *_block("exponent matrix P", p.rows),
            *_block("factor S", f.s_rows),
            *_block("factor T", f.t_rows),
            f"gauge group: {structure.describe()}",
            *_block("gauge charge generators", generators or [[]]),
            *_block("mirror exponent matrix", p_hat.rows),
            f"mirror gauge group: {structure_hat.describe()}",
            *_block("mirror gauge charge generators", generators_hat or [[]]),
            *_block("invariant coefficient monomials", invariants or [[]]),
            *_block("mirror invariant coefficient monomials", invariants_hat or [[]]),
        ]
    return {
        "P": p.rows,
        "factorization": {"S": f.s_rows, "T": f.t_rows},
        "group": _group_json(structure, generators),
        "mirror_P": p_hat.rows,
        "mirror_factorization": {"S": f_hat.s_rows, "T": f_hat.t_rows},
        "mirror_group": _group_json(structure_hat, generators_hat),
        "invariant_monomials": invariants,
        "mirror_invariant_monomials": invariants_hat,
    }


def _cmd_glsm_kahler(args):
    if args.input_path is None:
        magnitudes = [math.exp(-2.0 * math.pi), 1.0]
        charges = [[1, 0], [0, 1]]
    else:
        magnitudes, charges = _json_arrays(args.input_path, magnitudes=1, charges=2)
    r = _checked(glsm.kahler_parameter, magnitudes, charges, where=args.input_path or "")
    formatted = [f"{v:.12g}" if v != 0 else "0" for v in r]
    if args.format == "table":
        return [
            "kahler parameter r = -(1/2pi) sum_k log|c_k| chi_k",
            "r: " + " ".join(formatted),
        ]
    return {"source": _source(args), "r": formatted}


def _cmd_kontsevich(args):
    classes = kontsevich.chern_from_adjunction()
    chern = {"c1": classes.c1, "c2": classes.c2, "c3": classes.c3}
    euler = kontsevich.euler_number(classes)
    twist = kontsevich.quintic_twist()
    spherical = kontsevich.spherical_matrix(classes.todd)
    product = twist * spherical
    order = kontsevich.matrix_order(product, 10)
    if order != 5:
        raise CommandError(
            EXIT_INVARIANT, f"(T*S) order came out {_order_text(order)}, expected 5"
        )
    twist_profile = kontsevich.jordan_profile(twist)
    spherical_profile = kontsevich.jordan_profile(spherical)
    if args.format == "table":
        return [
            "tangent classes from the adjunction expansion:",
            *(f"  {name} = {_cohomology_text(c)}" for name, c in chern.items()),
            f"euler number: {euler}",
            f"todd class: {_cohomology_text(classes.todd)}",
            *_block("twist matrix T (basis 1, L, L^2, L^3)", twist.rows),
            _profile_line(twist_profile),
            *_block("spherical twist S", spherical.rows),
            _profile_line(spherical_profile),
            *_block("product T*S", product.rows),
            f"order of T*S: {_order_text(order)}",
        ]
    return {
        "chern": chern,
        "euler_number": euler,
        "todd": classes.todd,
        "twist": twist,
        "twist_jordan_profile": twist_profile,
        "spherical": spherical,
        "spherical_jordan_profile": spherical_profile,
        "product": product,
        "product_order": order,
    }


def _cmd_syz_classify(args):
    path = args.input_path
    (triple,) = _json_arrays(path, monodromies=3)
    if len(triple) != 3:
        raise CommandError(EXIT_INPUT, f"{path}: need exactly three matrices")
    vertex = _checked(syz.VertexData.from_rows_triple, *triple, where=path)
    profile = syz.fixed_space_profile(vertex)
    kind = syz.classify_profile(profile)
    if args.format == "table":
        return [
            f"fixed-space profile: d1={profile[0]} d2={profile[1]}",
            f"vertex type: {kind}",
        ]
    return {"profile": profile, "type": kind}


def _cmd_syz_quintic_counts(args):
    summary = syz.quintic_fibration_summary()
    if args.format == "table":
        return [
            f"type (2,1) vertices: {summary.v21}",
            f"type (1,2) vertices: {summary.v12}",
            f"edges: {summary.edges}",
        ]
    return {"summary": {"v21": summary.v21, "v12": summary.v12, "edges": summary.edges}}


def _cmd_syz_k3(args):
    if args.input_path is None:
        multiplicities = [1] * 24
    else:
        (multiplicities,) = _json_arrays(args.input_path, multiplicities=1)
    euler_ok = _checked(syz.k3_semistable_check, multiplicities, where=args.input_path or "")
    witness = syz.sl2_mirror_selfconjugacy(1)
    total = sum(int(k) for k in multiplicities)
    if args.format == "table":
        return [
            f"fiber multiplicity sum: {total}",
            "euler count matches K3 (sum = 24): " + ("yes" if euler_ok else "no"),
            *_block("self-conjugacy witness for the k=1 monodromy", witness),
        ]
    return {
        "source": _source(args),
        "multiplicity_sum": total,
        "semistable_euler_check": euler_ok,
        "selfconjugacy_witness_k1": witness,
    }


# -- wiring ---------------------------------------------------------------

_ORDER = ("--order", {"type": _order_up_to(MAX_ORDER), "default": 12})
_GW_ORDER = ("--order", {"type": _order_up_to(MAX_GW_ORDER), "default": 12})
_DMAX = ("--dmax", {"type": _order_up_to(MAX_GW_ORDER), "default": 3})
_IN = ("--in", {"dest": "input_path", "default": None})
_REQUIRED_IN = ("--in", {"dest": "input_path", "required": True})
_FORMAT = ("--format", {"choices": ("table", "structured"), "default": "table",
                        "help": "output rendering (default: table)"})

# One row per command, in help order: its words, help text, handler and
# options (each an add_argument flag and keywords; every command also takes
# _FORMAT).  A row without a handler is a group; the rows after it that start
# with its word are its commands.
COMMANDS = (
    ("periods", "period solutions and operator residual", _cmd_periods, [_ORDER]),
    ("monodromy", "monodromy matrices at z = 0 and infinity", _cmd_monodromy, []),
    ("gw", "mirror map, coupling, and curve counts", _cmd_gw, [_GW_ORDER, _DMAX]),
    ("polytope", "reflexivity and polar-dual data", _cmd_polytope, [_IN]),
    ("glsm", "gauged linear sigma model data", None, []),
    ("glsm transpose", "transpose-mirror factorization", _cmd_glsm_transpose, []),
    ("glsm kahler", "kahler parameter from coefficient magnitudes", _cmd_glsm_kahler, [_IN]),
    ("kontsevich", "cohomology transforms and their orders", _cmd_kontsevich, []),
    ("syz", "torus-fibration combinatorics", None, []),
    ("syz classify", "classify a monodromy triple", _cmd_syz_classify, [_REQUIRED_IN]),
    ("syz quintic-counts", "discriminant graph counts", _cmd_syz_quintic_counts, []),
    ("syz k3", "K3 semistable-fiber checks", _cmd_syz_k3, [_IN]),
)


def parse(argv: list) -> SimpleNamespace | None:
    """The full parser's arguments for argv that is one command's words, then
    ``--flag value`` pairs of its flags whose values pass their type and choices;
    None for any other argv (help, ``--ord``, ``--flag=value``, ``-5``, errors)."""
    for name, _, handler, options in COMMANDS:
        words = name.split()
        if handler and argv[: len(words)] == words:
            break
    else:
        return None
    flags = {flag: (kw.get("dest", flag[2:]), kw) for flag, kw in (_FORMAT, *options)}
    fields = {dest: kw.get("default") for dest, kw in flags.values() if not kw.get("required")}
    rest = argv[len(words):]
    try:
        for flag, text in zip(rest[::2], rest[1::2]):
            dest, kw = flags[flag]
            fields[dest] = kw.get("type", str)(text)
            if text.startswith("-") or fields[dest] not in kw.get("choices", [fields[dest]]):
                return None
    except (KeyError, ValueError):
        return None
    if len(rest) % 2 or len(fields) < len(flags):
        return None
    # the words chosen at the top level and, for a group's command, in the group
    fields.update(zip(("command", f"{words[0]}_command"), words))
    return SimpleNamespace(**fields, handler=handler, command_name=name.replace(" ", "-"))


def build_parser():
    """The full parser of every command; its help, usage lines and errors are
    the ones the program prints."""
    import argparse

    class Parser(argparse.ArgumentParser):  # a usage error exits 1, not 2
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: usage: {self.prog}: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    def reported(convert):  # argparse prints an ArgumentTypeError's bare message
        def checked(text: str):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(exc)
        return checked

    parser = Parser(prog="quintic-mirror",
                    description="Exact mirror-symmetry computations for the quintic threefold.")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help_text, handler, options in COMMANDS:
        *group, word = name.split()
        p = groups[" ".join(group)].add_parser(word, help=help_text)
        if handler is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        for flag, keywords in (_FORMAT, *options):
            p.add_argument(flag, **{**keywords, "type": reported(keywords.get("type", str))})
        p.set_defaults(handler=handler, command_name=name.replace(" ", "-"))
    return parser


def _json(value):
    """The structured form of a library value, for the values ``_dump`` cannot
    write itself: a Fraction as ``"num/den"``, a ring element as the list
    of its coefficients in that form, read off its numerators, a series as
    ``{"coefficients": ...}`` and a matrix as its rows.  It is also a valid
    ``default`` for ``json.dump``."""
    if isinstance(value, (NilpotentElement, CyclotomicElement)):
        return [_ratio_text(n, value.den, "/1") for n in value.num]
    if isinstance(value, TruncatedSeries):  # terms: QQ's element of the coefficients, or a tuple
        return {"coefficients": value.terms}
    if isinstance(value, SquareExactMatrix):
        return value.rows
    if hasattr(value, "denominator"):  # a Fraction; _dump writes an int itself
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# the printable ASCII bytes but the quote and the backslash: json.dumps writes them unescaped
_PLAIN_JSON_BYTES = bytes(b for b in range(0x20, 0x7F) if b not in b'"\\')


def _dump(value, write, pad: str) -> None:
    """Write value as ``json.dump(value, indent=2, sort_keys=True,
    default=_json)`` would, byte for byte, with pad the newline and indent of
    its own level: a generator is written item by item as it yields, and json
    is imported only for a string that needs escapes."""
    if isinstance(value, str):
        if value.isascii() and not value.encode().translate(None, _PLAIN_JSON_BYTES):
            write(f'"{value}"')
        else:
            import json
            write(json.dumps(value))
    elif value is None or isinstance(value, bool):
        write("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, (dict, list, tuple, GeneratorType)):
        opening, closing = "{}" if isinstance(value, dict) else "[]"
        inner, empty = pad + "  ", True
        for item in sorted(value.items()) if opening == "{" else value:
            write(opening + inner if empty else "," + inner)
            empty = False
            if opening == "{":
                _dump(item[0], write, inner)
                write(": ")
                item = item[1]
            _dump(item, write, inner)
        write(opening + closing if empty else pad + closing)
    else:
        _dump(_json(value), write, pad)


def main(argv=None) -> int:
    if argv is None:  # the process entry: the OS frees the heap, so exit need not collect it
        import atexit, gc
        atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # The program's own integers print in full under any int-to-str digit limit
    # (CPython 3.10.7 and later); with an --in file the limit stays, to bound its parsing.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and getattr(args, "input_path", None) is None:
        sys.set_int_max_str_digits(0)
    try:
        rendering = args.handler(args)
        out = sys.stdout
        if args.format == "table":
            for line in rendering:  # a string, or an iterable of its parts
                for part in [line] if isinstance(line, str) else line:
                    out.write(part)
                out.write("\n")
        else:
            _dump({"schema": SCHEMA, "command": args.command_name, **rendering}, out.write, "\n")
            out.write("\n")
        out.flush()
    except CommandError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader has all it wanted; stdout now points at the null device,
        # so the interpreter's flush at exit cannot fail a second time
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
