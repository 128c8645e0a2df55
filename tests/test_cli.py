from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import GeneratorType

import pytest

from quintic_mirror import cli, enumerative, glsm, picard_fuchs, toric
from quintic_mirror.enumerative import IntegralityError
from quintic_mirror.exactnum import QQ, CyclotomicElement, NilpotentElement, TruncatedSeries
from quintic_mirror.linalg import SquareExactMatrix

_SRC = Path(__file__).resolve().parent.parent / "src"

_SHEAR_TRIPLE = [
    [[1, 0, 1], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
    [[1, 0, -1], [0, 1, -1], [0, 0, 1]],
]
# the same triple with one entry 1 written as JSON true
_BOOLEAN_SHEAR_TRIPLE = [
    [[True, 0, 1], [0, 1, 0], [0, 0, 1]],
    _SHEAR_TRIPLE[1],
    _SHEAR_TRIPLE[2],
]
# the same triple with one entry written as 1e400, which JSON reads as a float
# too large for an integer
_OVERFLOW_SHEAR_TRIPLE_TEXT = json.dumps({"monodromies": _SHEAR_TRIPLE}).replace(
    "[[[1,", "[[[1e400,", 1
)

# polytope inputs whose structured output is frozen below
_CUBE_POINTS = [[x, y, z] for x in (-1, 0, 1) for y in (-1, 0, 1) for z in (-1, 0, 1)]
# e_1..e_4, -(1,1,1,1) and the origin, moved by a unimodular matrix
_SIMPLEX4_POINTS = [
    [1, 2, 0, -1], [0, 1, 1, 0], [0, 0, 1, 3], [0, 0, 0, 1], [-1, -3, -2, -3], [0, 0, 0, 0],
]
_CLOUD3_POINTS = [
    [-3, -2, -3], [-3, 0, 0], [-3, 1, -1], [-2, -3, 1], [-2, 2, 2], [-1, -3, 1],
    [-1, -2, 0], [-1, 1, -3], [0, -2, 1], [1, -3, 1], [1, -2, -3], [1, 0, -3],
    [1, 2, -2], [1, 3, 2], [2, -3, -3], [3, -2, -1], [3, 1, -3],
]


def _run(capsys, argv: list) -> tuple:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_json(tmp_path, name: str, payload) -> str:
    target = tmp_path / name
    target.write_text(json.dumps(payload, sort_keys=True))
    return str(target)


# -- happy paths -------------------------------------------------------------


def test_gw_table_lists_first_counts(capsys) -> None:
    code, out, err = _run(capsys, ["gw", "--dmax", "3"])
    assert code == 0
    assert err == ""
    rows = [line.split() for line in out.splitlines() if line and line[0] == " "]
    table = {int(d): int(n) for d, n in rows}
    assert table == {1: 2875, 2: 609250, 3: 317206375}


def test_gw_structured_document(capsys) -> None:
    code, out, err = _run(capsys, ["gw", "--format", "structured", "--dmax", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "quintic-mirror/1"
    assert doc["command"] == "gw"
    assert doc["instanton_numbers"] == {"1": 2875, "2": 609250, "3": 317206375}
    assert all(isinstance(n, int) for n in doc["instanton_numbers"].values())
    coeffs = doc["kappa"]["coefficients"]
    assert coeffs[0] == "5/1"
    assert coeffs[1] == "2875/1"


def test_periods_table_and_residual(capsys) -> None:
    code, out, err = _run(capsys, ["periods", "--order", "3"])
    assert code == 0
    assert "phi0" in out
    assert "120" in out
    assert "operator residual vanishes: yes" in out


def test_periods_structured_component_values(capsys) -> None:
    code, out, err = _run(capsys, ["periods", "--format", "structured", "--order", "2"])
    assert code == 0
    doc = json.loads(out)
    phi0 = doc["components"]["phi0"]["coefficients"]
    assert phi0 == ["1/1", "120/1", "113400/1"]
    assert doc["operator_residual_zero"] is True


def test_monodromy_orders(capsys) -> None:
    code, out, err = _run(capsys, ["monodromy", "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    matrices = doc["matrices"]
    assert matrices["at_zero"]["order"] is None
    assert matrices["at_zero"]["jordan_profile"] == [3, 2, 1, 0]
    assert matrices["at_infinity"]["order"] == 5
    assert matrices["at_infinity_power_basis"]["order"] == 5


def test_monodromy_json_carries_basis_tag(capsys) -> None:
    code, out, err = _run(capsys, ["monodromy", "--format", "structured"])
    report = json.loads(out)["matrices"]["at_zero"]["report"]
    assert report["version"] == 1
    assert report["basis"] == "lambda-power-basis-at-zero"
    assert report["entries"][0][0] == "1/1"


def test_kontsevich_reports_order_five(capsys) -> None:
    code, out, err = _run(capsys, ["kontsevich"])
    assert code == 0
    assert "order of T*S: 5" in out
    assert "euler number: -200" in out


def test_polytope_builtin_summary(capsys) -> None:
    code, out, err = _run(capsys, ["polytope", "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["reflexive"] is True
    assert doc["dual_lattice_point_count"] == 126
    assert doc["moduli_dimension"] == 101


def test_polytope_computes_the_polar_dual_once(capsys, monkeypatch) -> None:
    # the reflexivity report's certificate is the dual's vertex list
    calls = []
    rational = toric.LatticePolytope.polar_dual_rational
    monkeypatch.setattr(
        toric.LatticePolytope, "polar_dual_rational", lambda self: calls.append(1) or rational(self)
    )
    code, out, err = _run(capsys, ["polytope"])
    assert code == 0 and "dual lattice points: 126" in out
    assert len(calls) == 1


def test_polytope_from_file_non_reflexive(capsys, tmp_path) -> None:
    path = _write_json(
        tmp_path, "stretched.json", {"points": [[2, 0], [0, 2], [-2, -2]]}
    )
    code, out, err = _run(capsys, ["polytope", "--in", path])
    assert code == 0
    assert "reflexive: no" in out


def test_glsm_transpose_groups(capsys) -> None:
    code, out, err = _run(capsys, ["glsm", "transpose"])
    assert code == 0
    assert "gauge group: U(1)" in out
    assert "mirror gauge group: U(1) x (Z_5)^3" in out
    generator_lines = [
        line for line in out.splitlines() if line.split() == ["-5", "1", "1", "1", "1", "1"]
    ]
    assert len(generator_lines) >= 2


def test_glsm_kahler_builtin(capsys) -> None:
    code, out, err = _run(capsys, ["glsm", "kahler", "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == ["1", "0"]


def test_glsm_kahler_from_file(capsys, tmp_path) -> None:
    path = _write_json(
        tmp_path,
        "radii.json",
        {"magnitudes": [1.0, 1.0], "charges": [[1, 0], [0, 1]]},
    )
    code, out, err = _run(capsys, ["glsm", "kahler", "--in", path])
    assert code == 0
    assert "r: 0 0" in out


@pytest.mark.parametrize(
    "magnitudes, charges, printed",
    [
        ([1e308, 1e-308], [[10**30], [10**30]], "1.26837435373e+13"),
        ([10.0, 0.1], [[1], [1]], "-8.83487411518e-18"),
        ([1000.0, 10.0], [[1], [-3]], "0"),
    ],
)
def test_glsm_kahler_prints_correctly_rounded_digits(
    capsys, tmp_path, magnitudes, charges, printed
) -> None:
    path = _write_json(tmp_path, "radii.json", {"magnitudes": magnitudes, "charges": charges})
    code, out, err = _run(capsys, ["glsm", "kahler", "--in", path])
    assert (code, out.splitlines()[-1], err) == (0, f"r: {printed}", "")
    code, out, err = _run(capsys, ["glsm", "kahler", "--in", path, "--format", "structured"])
    assert (code, json.loads(out)["r"], err) == (0, [printed], "")


def test_glsm_kahler_ends_with_one_error_line_past_its_precision_cap(
    capsys, tmp_path, monkeypatch
) -> None:
    monkeypatch.setattr(glsm, "MAX_KAHLER_DIGITS", 32)
    path = _write_json(tmp_path, "radii.json", {"magnitudes": [1e308, 1e-308], "charges": [[10**30], [10**30]]})
    code, out, err = _run(capsys, ["glsm", "kahler", "--in", path])
    assert (code, out) == (2, "")
    assert err == f"error: input: {path}: r cannot be rounded to 12 digits within 32 digits\n"


def test_syz_classify_round_trip(capsys, tmp_path) -> None:
    path = _write_json(tmp_path, "vertex.json", {"monodromies": _SHEAR_TRIPLE})
    code, out, err = _run(capsys, ["syz", "classify", "--in", path])
    assert code == 0
    assert "vertex type: type21" in out
    assert "d1=2 d2=1" in out


def test_syz_quintic_counts(capsys) -> None:
    code, out, err = _run(capsys, ["syz", "quintic-counts", "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"v21": 250, "v12": 50, "edges": 450}


def test_syz_k3_builtin(capsys) -> None:
    code, out, err = _run(capsys, ["syz", "k3"])
    assert code == 0
    assert "fiber multiplicity sum: 24" in out
    assert "yes" in out


# -- exit codes and error reporting -----------------------------------------


def test_usage_error_from_bad_order(capsys) -> None:
    code, out, err = _run(capsys, ["periods", "--order", "0"])
    assert code == 1
    assert "error: usage:" in err


def test_usage_error_from_unknown_command(capsys) -> None:
    code, out, err = _run(capsys, ["not-a-command"])
    assert code == 1
    assert "error: usage:" in err


def test_usage_error_when_dmax_exceeds_order(capsys) -> None:
    code, out, err = _run(capsys, ["gw", "--order", "2", "--dmax", "5"])
    assert code == 1
    assert "below --dmax" in err


def test_input_error_for_missing_file(capsys, tmp_path) -> None:
    code, out, err = _run(capsys, ["syz", "classify", "--in", str(tmp_path / "no.json")])
    assert code == 2
    assert err.startswith("error: input:")


def test_input_error_for_bad_product(capsys, tmp_path) -> None:
    triple = [_SHEAR_TRIPLE[0], _SHEAR_TRIPLE[1], _SHEAR_TRIPLE[1]]
    path = _write_json(tmp_path, "bad.json", {"monodromies": triple})
    code, out, err = _run(capsys, ["syz", "classify", "--in", path])
    assert code == 2
    assert "error: input:" in err


def test_syz_classify_refuses_a_determinant_other_than_one(capsys, tmp_path) -> None:
    # the first monodromy has determinant k; the message prints k as an integer
    for k, first in ((2, [[1, 1, 0], [0, 2, 0], [0, 0, 1]]),
                     (-1, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                     (0, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])):
        path = _write_json(tmp_path, f"det{k}.json", {"monodromies": [first, *_SHEAR_TRIPLE[1:]]})
        for fmt in ("table", "structured"):
            code, out, err = _run(capsys, ["syz", "classify", "--in", path, "--format", fmt])
            assert (code, out) == (2, "")
            assert err == f"error: input: {path}: determinant is {k}, not 1\n"
    # a determinant past 39 digits is not printed: the int of the float 1e300,
    # and a^3 for a of 4,000 digits, whose text passes the int-to-str digit
    # limit that an --in file keeps
    a = 10**3999 + 7
    for name, first in (("float", [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]),
                        ("huge", [[a, 0, 0], [0, a, 0], [0, 0, a]])):
        doc = {"monodromies": [first, *_SHEAR_TRIPLE[1:]]}
        path = _write_json(tmp_path, f"det_{name}.json", doc)
        for fmt in ("table", "structured"):
            code, out, err = _run(capsys, ["syz", "classify", "--in", path, "--format", fmt])
            assert (code, out) == (2, "")
            assert err == f"error: input: {path}: determinant is not 1: it has over 39 digits\n"


def test_input_error_for_malformed_json(capsys, tmp_path) -> None:
    target = tmp_path / "broken.json"
    target.write_text("{not json")
    code, out, err = _run(capsys, ["polytope", "--in", str(target)])
    assert code == 2
    assert "error: input:" in err


def test_invariant_error_exits_three(capsys, monkeypatch) -> None:
    def explode(kappa, d_max):
        raise IntegralityError(2, Fraction(1, 2))

    monkeypatch.setattr(cli.enumerative, "extract_instantons", explode)
    code, out, err = _run(capsys, ["gw", "--dmax", "2"])
    assert code == 3
    assert err.startswith("error: invariant:")


def test_doubled_coupling_fails_the_prepotential_gate(capsys, monkeypatch) -> None:
    # a doubled Y doubles every count and keeps it integral (n_1 = 5750); the
    # prepotential identity never reads Y, so it fails at the first degree
    single = enumerative.unnormalized_coupling
    monkeypatch.setattr(enumerative, "unnormalized_coupling", lambda order: single(order).scale(2))
    code, out, err = _run(capsys, ["gw", "--order", "12", "--dmax", "12"])
    assert (code, out) == (3, "")
    assert err == "error: invariant: kappa(q) breaks the prepotential identity at q^1\n"


def test_monodromy_gate_rejects_a_power_basis_matrix_not_conjugate_to_the_diagonal(
    capsys, monkeypatch
) -> None:
    genuine = picard_fuchs.monodromy_at_infinity_power_basis()
    m = genuine.matrix
    bumped = [[x + 1 if i == j == 0 else x for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    perturbed = picard_fuchs.MonodromyMatrix(
        SquareExactMatrix.from_rows(m.field, bumped), genuine.basis_tag
    )
    monkeypatch.setattr(
        cli.picard_fuchs, "monodromy_at_infinity_power_basis", lambda: perturbed
    )
    for fmt in ("table", "structured"):
        code, out, err = _run(capsys, ["monodromy", "--format", fmt])
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invariant:")


def test_periods_gate_runs_before_any_output(capsys, monkeypatch) -> None:
    # the residual of a bundle whose last coefficient is off by one: the gate
    # must trip before main writes a byte, in either rendering
    apply_operator = picard_fuchs.apply_operator

    def off_by_one(operator, series):
        *head, last = series.coeffs
        return apply_operator(operator, TruncatedSeries(series.ring, (*head, last + 1)))

    monkeypatch.setattr(cli.picard_fuchs, "apply_operator", off_by_one)
    for fmt in ("table", "structured"):
        code, out, err = _run(capsys, ["periods", "--order", "20", "--format", fmt])
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invariant:")


def test_module_run_as_a_process_exits_with_the_code_of_main(capsys, tmp_path) -> None:
    env = dict(os.environ, PYTHONPATH=str(_SRC))

    def spawn(argv):
        return subprocess.run(
            [sys.executable, "-m", "quintic_mirror.cli", *argv], env=env, capture_output=True
        )

    argv = ["gw", "--dmax", "3", "--format", "structured"]
    result = spawn(argv)
    code, out, err = _run(capsys, argv)
    assert result.returncode == code == 0
    assert result.stdout == out.encode("utf-8")
    assert spawn(["not-a-command"]).returncode == 1
    result = spawn(["polytope", "--in", str(tmp_path / "no.json")])
    assert result.returncode == 2
    lines = result.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input:")


@pytest.mark.parametrize(
    "argv, wanted",
    [
        (["periods", "--order", "1000"], 100),
        (["kontsevich"], 0),
        (["periods", "--order", "1000", "--format", "structured"], 100),
    ],
)
def test_a_reader_that_closes_the_pipe_early_ends_the_output_quietly(argv, wanted) -> None:
    # like `quintic-mirror periods --order 1000 | head -c 100`, or a reader that
    # reads nothing: the program stops writing and exits 0 with nothing on
    # stderr, not a BrokenPipeError, whether the pipe closes mid-output or
    # before main flushes a short output (stdout block-buffered, as on any pipe)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    process = subprocess.Popen(
        [sys.executable, "-m", "quintic_mirror.cli", *argv],
        env=dict(env, PYTHONPATH=str(_SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(process.stdout.read(wanted)) == wanted
    process.stdout.close()
    err = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=60) == 0
    assert err == b""


def test_only_the_process_entry_freezes_the_heap_at_exit() -> None:
    # perfbench's child environment.  The checker is registered before main, so
    # it runs after main's exit hook (atexit runs last in, first out) and sees
    # what the interpreter's shutdown would collect.
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(_SRC), "PYTHONHASHSEED": "0"}
    checker = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        "from quintic_mirror.cli import main\n"
    )
    frozen = {}
    for how, call in [
        ("entry", "sys.argv = ['quintic-mirror', 'kontsevich']\nsys.exit(main())\n"),
        ("in-process", "sys.exit(main(['kontsevich']))\n"),
    ]:
        result = subprocess.run(
            [sys.executable, "-c", checker + call], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0 and result.stdout.startswith("tangent classes")
        frozen[how] = int(result.stderr)
    # the import-time heap: about 13,000 objects on CPython 3.11
    assert frozen["entry"] > 1000
    assert frozen["in-process"] == 0


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "--format", "structured", "--dmax", "3"],
        ["periods", "--order", "4"],
        ["monodromy", "--format", "structured"],
        ["glsm", "transpose", "--format", "structured"],
        ["kontsevich"],
    ],
)
def test_output_is_byte_deterministic(capsys, argv) -> None:
    first = _run(capsys, argv)
    second = _run(capsys, argv)
    assert first == second
    assert first[0] == 0


def _dumped(value) -> str:
    parts = []
    cli._dump(value, parts.append, "\n")
    return "".join(parts)


def _listed(value):
    """value with every generator in it replaced by the list of its items."""
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, GeneratorType)):
        return [_listed(item) for item in value]
    return value


def _json_text(value) -> str:
    return json.dumps(_listed(value), indent=2, sort_keys=True, default=cli._json)


def test_lazy_writes_a_generator_as_an_array_and_refuses_other_iterables() -> None:
    parts, made = [], []

    def items():  # notes how much was written before each item is made
        for k in range(3):
            made.append(len("".join(parts)))
            yield str(k)

    cli._dump({"x": items()}, parts.append, "\n")
    assert "".join(parts) == '{\n  "x": [\n    "0",\n    "1",\n    "2"\n  ]\n}'
    # each item is written before the next one is made
    assert made == [len('{\n  "x": '), len('{\n  "x": [\n    "0"'), len('{\n  "x": [\n    "0",\n    "1"')]
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._dump({"x": {1, 2}}, parts.append, "\n")


def test_dump_writes_what_json_writes_for_every_command_document(tmp_path) -> None:
    # the built-in inputs and one --in file per input command, the last one in
    # a directory whose name needs escapes (a non-ASCII letter, a quote and a
    # backslash), so the writer's json fallback runs on its "source"
    odd = tmp_path / 'dir \u00fc "q" \\b'
    odd.mkdir()
    files = {
        "polytope": _write_json(tmp_path, "points.json", {"points": _CUBE_POINTS}),
        "glsm kahler": _write_json(tmp_path, "radii.json", {"magnitudes": [0.5, 2.0], "charges": [[1, 0], [0, 1]]}),
        "syz classify": _write_json(tmp_path, "vertex.json", {"monodromies": _SHEAR_TRIPLE}),
        "syz k3": _write_json(odd, "k3.json", {"multiplicities": [2] * 12}),
    }
    argvs = [[*name.split(), "--format", "structured"] for name, _, handler, options in cli.COMMANDS
             if handler and cli._REQUIRED_IN not in options]
    argvs += [[*name.split(), "--format", "structured", "--in", path] for name, path in files.items()]

    def document(argv):
        args = cli.parse(argv)
        return {"schema": cli.SCHEMA, "command": args.command_name, **args.handler(args)}

    for argv in argvs:
        assert _dumped(document(argv)) == _json_text(document(argv)), argv
    assert '\\u00fc \\"q\\" \\\\b' in _dumped(document(argvs[-1]))


def _random_text(rng) -> str:
    # printable ASCII with quotes and backslashes, control characters, DEL,
    # non-ASCII and astral characters, and a lone surrogate
    alphabet = ["a", "Z", "~", " ", "/", '"', "\\", "\x00", "\x1f", "\n", "\x7f", "\u00e9", "\u2028",
                "\U0001f600", "\ud800"]
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def _random_document(rng, depth: int = 0):
    kind = rng.randrange(7 if depth < 4 else 3)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, 2**63, -(10**40) - 3, rng.randrange(-(10**300), 10**300)])
    if kind == 2:
        return rng.choice([True, False, None])
    items = [_random_document(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 5]))]
    if kind == 3:
        return {_random_text(rng): item for item in items}
    return [list, tuple, lambda xs: (x for x in xs)][kind - 4](items)


def test_dump_writes_what_json_writes_for_random_documents() -> None:
    # the same document is drawn twice from its seed: once as the writer gets
    # it, once for json, which lists each generator first
    for seed in range(200):
        document = _random_document(random.Random(seed))
        assert _dumped(document) == _json_text(_random_document(random.Random(seed))), seed


def test_json_renders_each_library_kind_and_refuses_the_rest() -> None:
    doc = {
        "nilpotent": NilpotentElement([1, Fraction(-1, 2)]),
        "cyclotomic": CyclotomicElement([0, Fraction(-1, 3), 0, 2]),
        "matrix": SquareExactMatrix.identity(QQ, 2),
    }
    assert json.loads(json.dumps(doc, default=cli._json)) == {
        "nilpotent": ["1/1", "-1/2"],
        "cyclotomic": ["0/1", "-1/3", "0/1", "2/1"],
        "matrix": [["1/1", "0/1"], ["0/1", "1/1"]],
    }


def test_every_kind_json_renders_reaches_it_from_a_command(capsys, monkeypatch, tmp_path) -> None:
    # each branch of cli._json has a command behind it, and no command hands it
    # a value of any other type
    path = _write_json(tmp_path, "vertex.json", {"monodromies": _SHEAR_TRIPLE})
    # a value; generators are not among them, since the writer, cli._dump,
    # writes those itself: it gets the periods coefficient arrays unlisted
    seen, written = set(), {}

    def recording(value, render=cli._json):
        seen.add(type(value))
        return render(value)

    def writing(value, write, pad, dump=cli._dump):
        written[name].add(type(value))
        return dump(value, write, pad)

    monkeypatch.setattr(cli, "_json", recording)
    monkeypatch.setattr(cli, "_dump", writing)
    for name, _, handler, options in cli.COMMANDS:
        if handler:
            written[name] = set()
            argv = [*name.split(), "--format", "structured"]
            if cli._REQUIRED_IN in options:
                argv += ["--in", path]
            assert _run(capsys, argv)[0] == 0, name
    assert seen == {Fraction, NilpotentElement, CyclotomicElement, TruncatedSeries, SquareExactMatrix}
    assert GeneratorType in written["periods"]


def test_structured_output_has_sorted_keys(capsys) -> None:
    code, out, err = _run(capsys, ["periods", "--format", "structured", "--order", "2"])
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "glsm kahler",
            '{"magnitudes": [NaN, 1.0], "charges": [[1, 0], [0, 1]]}',
            "non-finite number NaN is not allowed",
        ),
        (
            "glsm kahler",
            '{"magnitudes": [Infinity, 1.0], "charges": [[1, 0], [0, 1]]}',
            "non-finite number Infinity is not allowed",
        ),
        (
            "glsm kahler",
            '{"magnitudes": [1e400, 1.0], "charges": [[1, 0], [0, 1]]}',
            "magnitude inf is not positive and finite",
        ),
        (
            "glsm kahler",
            '{"magnitudes": [1%s, 1.0], "charges": [[1, 0], [0, 1]]}' % ("0" * 400),
            "int too large to convert to float",
        ),
        (
            "glsm kahler",
            '{"magnitudes": [0.5, 2.0], "charges": [[1.5, 0], [0, 1]]}',
            "entry 1.5 is not an integer",
        ),
        (
            "glsm kahler",
            '{"magnitudes": [0.5, 2.0], "charges": [[true, 0], [0, 1]]}',
            "entry True is not an integer",
        ),
        (
            "syz k3",
            json.dumps({"multiplicities": [True] * 24}),
            "fiber multiplicities must be positive integers",
        ),
        (
            "polytope",
            '{"points": [[true, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]}',
            "entry True is not an integer",
        ),
        (
            "syz classify",
            json.dumps({"monodromies": _BOOLEAN_SHEAR_TRIPLE}),
            "entry True is not an integer",
        ),
        (
            "glsm kahler",
            '{"magnitudes": ["2.0", 1.0], "charges": [[1], [1]]}',
            "magnitude '2.0' is not a number",
        ),
        (
            "glsm kahler",
            '{"magnitudes": [2.0, true], "charges": [[1], [1]]}',
            "magnitude True is not a number",
        ),
        ("polytope", '{"points": [[]]}', "a point needs at least one coordinate"),
        ("polytope", '{"points": [[], []]}', "a point needs at least one coordinate"),
        ("polytope", '{"points": "abc"}', '"points" must be an array of arrays'),
        ("polytope", '{"points": [[1e400, 0], [0, 1]]}', "entry inf is not an integer"),
        ("syz classify", _OVERFLOW_SHEAR_TRIPLE_TEXT, "entry inf is not an integer"),
        (
            "syz k3",
            '{"multiplicities": [1e400]}',
            "fiber multiplicities must be positive integers",
        ),
        ("glsm kahler", '{"magnitudes": [1.0], "charges": [[]]}', "charge vectors are empty"),
        (
            "glsm kahler",
            '{"magnitudes": "ab", "charges": [[1], [1]]}',
            '"magnitudes" must be an array',
        ),
        (
            "glsm kahler",
            '{"magnitudes": [1.0, 2.0], "charges": [1, 2]}',
            '"charges" must be an array of arrays',
        ),
        ("syz k3", '{"multiplicities": 5}', '"multiplicities" must be an array'),
        (
            "syz classify",
            '{"monodromies": [1, 2, 3]}',
            '"monodromies" must be an array of arrays of arrays',
        ),
        (
            "syz classify",
            '{"monodromies": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}',
            '"monodromies" must be an array of arrays of arrays',
        ),
        # deeper than the decoder's recursion limit on every supported
        # Python (3.13 decodes 5,000 levels, 3.10 to 3.12 do not)
        ("polytope", "[" * 100_000 + "]" * 100_000, "nested too deeply"),
        # entries echoed only in part, so the line stays short
        (
            "polytope",
            json.dumps({"points": [["a" * 100_000, 0], [0, 1]]}),
            "is not an integer",
        ),
        ("polytope", '{"points": %s}' % ("[" * 900 + "]" * 900), "is not an integer"),
        (
            "glsm kahler",
            json.dumps({"magnitudes": ["a" * 100_000, 1.0], "charges": [[1], [1]]}),
            "is not a number",
        ),
        # each term -log|c|/(2 pi) chi fits no float: inf - inf, then inf
        (
            "glsm kahler",
            json.dumps({"magnitudes": [1e-300, 1e300], "charges": [[10**307], [10**307]]}),
            "r overflows a float",
        ),
        (
            "glsm kahler",
            json.dumps({"magnitudes": [1e-300], "charges": [[10**307]]}),
            "r overflows a float",
        ),
        (
            "glsm kahler",
            json.dumps({"magnitudes": [2.0] * 257, "charges": [[1]] * 257}),
            "257 magnitudes, at most 256 allowed",
        ),
    ],
    ids=[
        "nan",
        "infinity",
        "overflow",
        "integer-overflow",
        "fractional-charge",
        "boolean-charge",
        "boolean-multiplicity",
        "boolean-point",
        "boolean-matrix-entry",
        "string-magnitude",
        "boolean-magnitude",
        "empty-point",
        "empty-points",
        "string-points",
        "overflow-point",
        "overflow-matrix-entry",
        "overflow-multiplicity",
        "zero-width-charges",
        "string-magnitudes",
        "flat-charges",
        "scalar-multiplicities",
        "flat-monodromies",
        "flat-matrices",
        "deep-nesting",
        "long-string-point",
        "nested-point",
        "long-string-magnitude",
        "nan-kahler-parameter",
        "infinite-kahler-parameter",
        "too-many-magnitudes",
    ],
)
def test_bad_input_values_exit_2_with_one_error_line(
    capsys, tmp_path, command, text, message
) -> None:
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = _run(capsys, command.split() + ["--in", str(path)])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input:")
    assert message in lines[0] and str(path) in lines[0]
    assert len(lines[0]) <= len(str(path)) + 120


@pytest.mark.parametrize(
    "points",
    ['"abc"', "[1, 2]", '{"x": [1, 2]}', "[[1, 0], 2]"],
    ids=["string", "numbers", "object", "mixed"],
)
def test_polytope_points_must_be_an_array_of_arrays(capsys, tmp_path, points) -> None:
    path = tmp_path / "bad.json"
    path.write_text('{"points": %s}' % points)
    code, out, err = _run(capsys, ["polytope", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f'error: input: {path}: "points" must be an array of arrays']


def test_polytope_sheared_fan_simplex_is_fast(capsys, tmp_path) -> None:
    # the fan simplex under x1 += 8(x2+x3+x4), x2 += 8(x3+x4), x3 += 8 x4: a
    # scan of its dual's bounding box would visit about 2 * 10^8 points
    shear = [[1, 8, 8, 8], [0, 1, 8, 8], [0, 0, 1, 8], [0, 0, 0, 1]]
    fan = [[int(i == j) for j in range(4)] for i in range(4)] + [[-1] * 4]
    points = [[sum(a * x for a, x in zip(row, p)) for row in shear] for p in fan]
    path = _write_json(tmp_path, "sheared.json", {"points": points})
    start = time.perf_counter()
    code, out, err = _run(capsys, ["polytope", "--in", path])
    elapsed = time.perf_counter() - start
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "dual lattice points: 126"
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "points, message",
    [
        ([[t, t * t] for t in range(cli.MAX_POLYTOPE_POINTS + 1)],
         f"{cli.MAX_POLYTOPE_POINTS + 1} points, at most {cli.MAX_POLYTOPE_POINTS} allowed"),
        ([[0] * (cli.MAX_POLYTOPE_DIM + 1)],
         f"{cli.MAX_POLYTOPE_DIM + 1} coordinates in a point, at most {cli.MAX_POLYTOPE_DIM} allowed"),
        ([[1, 0], [0, -(2 ** cli.MAX_COORDINATE_BITS)], [-1, 1]],
         f"{cli.MAX_COORDINATE_BITS + 1} bits in a coordinate, at most {cli.MAX_COORDINATE_BITS} allowed"),
    ],
    ids=["points", "dimension", "bits"],
)
def test_polytope_input_above_a_ceiling_is_refused(capsys, tmp_path, points, message) -> None:
    path = _write_json(tmp_path, "big.json", {"points": points})
    code, out, err = _run(capsys, ["polytope", "--in", path])
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: input: {path}: {message}"]


def test_polytope_input_at_the_ceilings_is_accepted(capsys, tmp_path) -> None:
    top = 2 ** cli.MAX_COORDINATE_BITS - 1
    points = [[int(i == j) for j in range(cli.MAX_POLYTOPE_DIM)] for i in range(cli.MAX_POLYTOPE_DIM)]
    points += [[-1] * cli.MAX_POLYTOPE_DIM, [top] + [0] * (cli.MAX_POLYTOPE_DIM - 1)]
    points += [[0] * cli.MAX_POLYTOPE_DIM] * (cli.MAX_POLYTOPE_POINTS - len(points))
    path = _write_json(tmp_path, "top.json", {"points": points})
    code, out, err = _run(capsys, ["polytope", "--in", path])
    assert code == 0 and err == ""
    assert f"dimension: {cli.MAX_POLYTOPE_DIM}" in out.splitlines()


@pytest.mark.parametrize(
    "order, digest",
    [
        (12, "21429ab075469d4ffe07ef8d186406a8137741e33d9e58057550a9b087b53c6a"),
        (20, "f3d3cbb02afd761c4857633d0e6eec2f9f79f1cc55cddd4920ce660627de5aac"),
        (40, "e023ae6ce1375fdb370cbd7294e44dd0e71612359b64278527595dd5a15dbba3"),
        (150, "aa6adda45ad543455629585995db6808d5e11110bd07005a873c342b73c60175"),
    ],
)
def test_gw_structured_output_digest_is_frozen(capsys, order, digest) -> None:
    # Digests of the output of the two-pass pipeline with the term-by-term
    # reversion; the current kernels must reproduce it byte for byte.
    code, out, err = _run(
        capsys, ["gw", "--dmax", str(order), "--order", str(order), "--format", "structured"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("gw --order 12", "6f2394240c4abf1e3bde634a86eac9078d5efce4d4273c7585378e8edacd3cb9"),
        (
            "gw --order 40 --dmax 40",
            "28639ee362d45eddec0f54fbd82074841bc08ba52e5f9ffcdac88cebc32e117b",
        ),
        (
            "gw --order 80 --dmax 80 --format structured",
            "d04e9046c1c2db29f8a15d8d1079d98e44c25755b61f49367a0c94d1bebb7795",
        ),
    ],
)
def test_gw_table_and_order_80_output_digest_is_frozen(capsys, argv, digest) -> None:
    # Digests of the output of the pipeline that built kappa by composing
    # phi0 with z(q); the single Lagrange-Buermann pass must reproduce it.
    code, out, err = _run(capsys, argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "order, fmt, digest",
    [
        (50, "table", "56027a603b1756cf741737741380a5f5f97624186215e2bebc05b95f9dbb21a6"),
        (50, "structured", "060786ef7f1fbe48b4704d98bc22867d53cca65f40650765f1019aa9354a1cb0"),
        (400, "table", "3e58be629d35bb1d6093035ecd643ed8e11ac772a8e65d4fc9ece1c5805274ea"),
        (400, "structured", "9c8cc9a3f7d44750419c70c475df3ea6583fdbcfcaaef6d5c9baacd7f69e21f5"),
        # the ceiling: the longest printed number has 4,142 digits
        (1000, "table", "d10a73bec7d2966d6c2072e91e17162af135e9f740f86b0f6f0aa68640b26671"),
        (1000, "structured", "901b5405bd693126cd550ef8f2b4f868fe7b21bba564a372f2e868b95cc013b6"),
    ],
)
def test_periods_output_digest_is_frozen(capsys, order, fmt, digest) -> None:
    # Digests of the output of the Frobenius recurrence and the residual
    # done one Fraction operation per nilpotent term, both renderings built;
    # the integer kernels and the one-rendering path must reproduce it.
    code, out, err = _run(capsys, ["periods", "--order", str(order), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class _CountingSink:
    """A stdout that discards what it is given and counts the characters."""

    def __init__(self):
        self.written = 0

    def write(self, text: str) -> int:
        self.written += len(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize(
    "argv", [["periods", "--order", "400", "--format", "structured"], ["periods", "--order", "300"]]
)
def test_periods_holds_its_output_about_once(monkeypatch, argv) -> None:
    # main writes each line's parts, or the writer's chunks, as it goes, so the
    # traced peak is the bundle and one coefficient string: 0.7 to 0.8 times
    # the output.  Holding the joined text and its encoded bytes beside the
    # strings would take it past 3.
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.5 * sink.written


@pytest.mark.parametrize(
    "argv, bound",
    [(["periods", "--order", "400", "--format", "structured"], 1.15), (["periods", "--order", "300"], 1.15)],
)
def test_periods_holds_the_bundle_and_one_coefficient_array(monkeypatch, argv, bound) -> None:
    # _cmd_periods renders each coefficient string only as main writes it, and
    # main writes a table line in its parts, so the traced peak is the Frobenius
    # bundle and one coefficient string: 1.01 and 1.08 times the bundle at these
    # orders, under a bound 0.07 above the larger.  A fresh zero element per
    # vanishing residual coefficient, and a __dict__ on every ring element, took
    # it to 1.17 and 1.23; holding one component's strings (json.dump lists a
    # generator before writing it) to 1.7, a joined table line to 2.5, and
    # rendering all four components before the first write to 2.8 and 3.2.
    tracemalloc.start()
    try:
        bundle = picard_fuchs.frobenius_at_zero(int(argv[2]))
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del bundle
    monkeypatch.setattr(sys, "stdout", _CountingSink())
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= bound * size


@pytest.mark.parametrize(
    "points, digest",
    [
        (_CUBE_POINTS, "9160b603886ef6810749b93afb337b439573fa2e8c48c576cc9b8479f25cef67"),
        (_SIMPLEX4_POINTS, "d1b690dd8f1dbb76b18decc9b1f5774725ee25689ad0b8241fde3d9867ae138a"),
        (_CLOUD3_POINTS, "9ef128eb09355cfb148c4e072bc43559aace9d60a60f44c5c00e1a624a850d6a"),
    ],
    ids=["cube", "simplex4", "cloud3"],
)
def test_polytope_structured_output_digest_is_frozen(
    capsys, monkeypatch, tmp_path, points, digest
) -> None:
    # Digests of the output of the facet search that took one Smith-form
    # kernel per point subset; the beneath-beyond hull must reproduce it.
    # The input path is printed, so it is the same relative name every run.
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path, "points.json", {"points": points})
    code, out, err = _run(capsys, ["polytope", "--in", "points.json", "--format", "structured"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "command, fmt, digest",
    [
        ("monodromy", "table", "ec56ac754803dce48a08ec2542b904bbf02ae52a1ba57f4856e3b0e460d14cc1"),
        ("monodromy", "structured", "f2461939c7420d1a99e93d12f6682008fc677f9459c3f2a4b8d490530fdfda52"),
        ("kontsevich", "table", "e0332420fb72670b1538e291c3559861eea84b6359d46c7fa6c6c101b3f6360b"),
        ("kontsevich", "structured", "b5e1056e846ab1eeb3576e6ef679ebf9e14e09d276a542194641e43ec8e69249"),
    ],
)
def test_monodromy_and_kontsevich_output_digest_is_frozen(capsys, command, fmt, digest) -> None:
    # Digests of the output with QQ(zeta_5) held as four Fractions and both
    # renderings built; the integer-numerator field must reproduce it.
    code, out, err = _run(capsys, [command, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "command, fmt, digest",
    [
        ("polytope", "table", "4a117a3eb522d800bd9033b3f501e0f193b03f7fddc2956e660e435c76376f29"),
        ("polytope", "structured", "3d4fea35f92e54d182c866f5b663899139dc557aaf30e7611c6b5d2ad76f939a"),
        ("glsm transpose", "table", "2be2897885f1ed6cb2b4d25a10695c68ba583a819d4a4409cec6e5506a707ae0"),
        ("glsm transpose", "structured", "0c21099a2f9f3d571616343ea71cb0d0132564ef9784ce2c10fe3d069c366aa6"),
        ("glsm kahler", "table", "1380ab899a8a67ed9dd4662dc51b47c16a746e1b664e6e444b32937f887f74b8"),
        ("glsm kahler", "structured", "f0eedbd669ba3f690caff8786ae56dc41ec419c7f46ecc69ed42649ef602262a"),
        (
            "syz classify --in vertex.json",
            "table",
            "0b4f1f8acf57d7655a4598823287637ec157b3ba4576d8e9ee45f8f40f9533d6",
        ),
        (
            "syz classify --in vertex.json",
            "structured",
            "e9457492473f24edf0e7196264a08c89e359f27ec513e45c08540dd275d9a0b0",
        ),
        ("syz quintic-counts", "table", "d7e699e26408996edfb10d18ab63d3483036faad05126cb26b1a4a5c0b6e7b06"),
        ("syz quintic-counts", "structured", "f204f9afbdffc1482aa77f0e6649cfdc21f973a072ef6422474de165da602c80"),
        ("syz k3", "table", "b4aac133eba14ce50c8eba584ab12bc0f5262d7f5dbd220fecb0c9aa2941818f"),
        ("syz k3", "structured", "10c292468a1c56a0219bbeba791aa3da24de0d415c67c69cc3564ad23a03a809"),
    ],
)
def test_polytope_glsm_and_syz_output_digest_is_frozen(
    capsys, monkeypatch, tmp_path, command, fmt, digest
) -> None:
    # Digests of the output with each handler building its own document and
    # table lines; the command table must reproduce it.  The input is read
    # by the same relative name every run.
    monkeypatch.chdir(tmp_path)
    _write_json(tmp_path, "vertex.json", {"monodromies": _SHEAR_TRIPLE})
    code, out, err = _run(capsys, command.split() + ["--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "--order", str(cli.MAX_GW_ORDER + 1)],
        ["gw", "--order", "1000000000000"],
        ["gw", "--dmax", str(cli.MAX_GW_ORDER + 1)],
        ["periods", "--order", str(cli.MAX_ORDER + 1)],
    ],
)
def test_order_above_ceiling_is_usage_error(capsys, argv) -> None:
    ceiling = cli.MAX_GW_ORDER if argv[0] == "gw" else cli.MAX_ORDER
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [errors[0]] and errors[0].startswith("error: usage:")
    assert f"at most {ceiling}" in errors[0]
    assert "Traceback" not in err


def test_order_ceiling_itself_is_accepted() -> None:
    parser = cli.build_parser()
    args = parser.parse_args(
        ["gw", "--order", str(cli.MAX_GW_ORDER), "--dmax", str(cli.MAX_GW_ORDER)]
    )
    assert args.order == args.dmax == cli.MAX_GW_ORDER
    args = parser.parse_args(["periods", "--order", str(cli.MAX_ORDER)])
    assert args.order == cli.MAX_ORDER


def test_periods_at_the_order_ceiling_stays_below_the_int_to_str_limit() -> None:
    # CPython's str() refuses an int of more than default_max_str_digits
    # (4,300) digits.  main lifts that limit while it renders, but at
    # MAX_ORDER the longest numerator `periods` prints (4,142 digits) stays
    # below it, so a caller printing frobenius_at_zero itself needs no lift.
    limit = 10 ** (sys.int_info.default_max_str_digits - 1)
    bundle = picard_fuchs.frobenius_at_zero(cli.MAX_ORDER)
    assert all(abs(x) < limit for c in bundle.series.coeffs for x in (*c.num, c.den))


# argv that cli.parse reads by itself; the rest of the grid below falls back
# to the full parser
_PLAIN_ARGV = [
    ["gw", "--order", "26", "--dmax", "9", "--format", "structured"],
    ["glsm", "kahler", "--in", "radii.json"],
    ["gw", "--order", "4", "--dmax", "2", "--order", "5"],
    ["gw", "--order", " 7"],
    ["gw", "--order", "1_0"],
    ["polytope", "--in", ""],
    ["kontsevich"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["gw", "--order", "26", "--dmax", "9", "--format", "structured"],
        ["gw", "-h"],
        ["gw", "extra"],
        ["gw", "--order", str(cli.MAX_GW_ORDER + 1)],
        ["glsm", "kahler", "--in", "radii.json"],
        ["glsm", "kahler", "-h"],
        ["syz", "classify"],
        ["syz", "k3", "--format", "json"],
        ["gw", "--ord", "20"],
        ["gw", "--format=structured"],
        ["gw", "--order", "0", "--dmax", "2", "--order", "5"],
        ["gw", "--order", "4", "--dmax", "2", "--order", "5"],
        ["gw", "--order", "-5"],
        ["gw", "--order", " 7"],
        ["gw", "--order", "1_0"],
        ["gw", "--order", "9" * 5000],
        ["polytope", "--in", "-h"],
        ["polytope", "--in", ""],
        ["syz", "classify", "--format", "structured"],
        ["periods", "--dmax", "3"],
        ["glsm"],
        [],
        ["quintic"],
        ["kontsevich"],
    ],
)
def test_parser_of_one_command_parses_like_the_parser_of_all(
    capsys, monkeypatch, tmp_path, argv
) -> None:
    # cli.parse reads one command's `--flag value` pairs without argparse and
    # returns None for anything else, which main leaves to the full parser.
    # Its arguments, and main's exit code, stdout and stderr, must be those
    # of the full parser.
    monkeypatch.chdir(tmp_path)
    parsed = cli.parse(argv)
    assert (parsed is not None) == (argv in _PLAIN_ARGV)
    try:
        full = vars(cli.build_parser().parse_args(argv))
    except SystemExit as exc:
        full = exc.code
    capsys.readouterr()
    if parsed is not None:
        assert vars(parsed) == full
    seen = [_run(capsys, argv)]
    monkeypatch.setattr(cli, "parse", lambda argv: None)
    seen.append(_run(capsys, argv))
    assert seen[0] == seen[1]


# the pieces random argv are drawn from: command words, flags (an
# abbreviation and a help flag among them), `--flag=value` forms and values,
# valid and not
_WORDS = ["periods", "monodromy", "gw", "polytope", "glsm", "transpose", "kahler",
          "kontsevich", "syz", "classify", "quintic-counts", "k3", "quintic"]
_FLAGS = ["--order", "--dmax", "--format", "--in", "--ord", "-h", "--order=5",
          "--format=table", "--in=p.json", "--"]
_VALUES = ["5", "12", "300", "301", "1000", "1001", "-5", " 7", "1_0", "\u0663", "0x10",
           "", "0", "table", "structured", "json", "p.json", "-h", "--order", "9" * 30]


def test_parse_agrees_with_the_full_parser_on_random_argv() -> None:
    # every argv cli.parse accepts must parse to the same fields under argparse
    rng = random.Random(20)
    names = [name.split() for name, _, handler, _ in cli.COMMANDS if handler]
    parser = cli.build_parser()
    accepted = 0
    for _ in range(20000):
        argv = list(rng.choice(names)) if rng.random() < 0.9 else rng.sample(_WORDS, rng.randint(0, 2))
        for _ in range(rng.randint(0, 3)):
            argv += [rng.choice(_FLAGS), rng.choice(_VALUES)]
        if rng.random() < 0.1:
            argv.insert(rng.randint(0, len(argv)), rng.choice(_WORDS + _FLAGS + _VALUES))
        parsed = cli.parse(argv)
        if parsed is not None:
            accepted += 1
            assert vars(parsed) == vars(parser.parse_args(argv)), argv
    assert accepted > 1000


# what gw, periods, polytope and the other commands listed with it never
# import: argparse (which loads gettext) and json, fractions with the decimal,
# numbers and re it loads, since their pipelines and renderings run on integer
# numerators and build no Fraction, and collections, since no module imports
# collections.abc
_NOT_FOR_GW_PERIODS_OR_POLYTOPE = [
    "argparse", "gettext", "json", "fractions", "decimal", "numbers", "re", "collections",
]


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["kontsevich"], ["argparse", "gettext", "json"]),
        (["gw", "--format", "structured"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["periods", "--format", "structured"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["gw", "--order", "26", "--dmax", "26"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["periods", "--order", "200"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["polytope"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["polytope", "--format", "structured"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        # input files in the plain subset of JSON that cli._plain_json reads
        (["polytope", "--in", "cube.json"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        # a polytope that is not reflexive: its certificate is never printed
        (["polytope", "--in", "stretched.json"], ["fractions", "decimal", "numbers", "json"]),
        (["syz", "k3", "--in", "k3.json"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["syz", "k3"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["syz", "k3", "--format", "structured"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["syz", "quintic-counts"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["syz", "quintic-counts", "--format", "structured"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        # the ranks of P and of its transpose come from the Smith form
        (["glsm", "transpose"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
        (["glsm", "transpose", "--format", "structured"], _NOT_FOR_GW_PERIODS_OR_POLYTOPE),
    ],
)
def test_commands_import_argparse_and_json_only_when_needed(argv, absent, tmp_path) -> None:
    # each of these modules adds milliseconds to every process that imports
    # it; -S keeps the interpreter's own start-up imports out.
    _write_json(tmp_path, "cube.json", {"points": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                                                   for z in (-1, 1)]})
    _write_json(tmp_path, "stretched.json", {"points": [[2, 0], [0, 2], [-2, -2]]})
    _write_json(tmp_path, "k3.json", {"multiplicities": [2] * 12})
    script = (
        "import sys\n"
        "from quintic_mirror import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(code, sorted(set({absent!r}) & set(sys.modules)), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(_SRC)), capture_output=True, text=True,
    )
    assert result.stderr == "0 []\n"


_SPACES = ["", "", " ", "\n", "\t", "\r\n", "  "]


def _random_json(rng: random.Random, depth: int = 0) -> str:
    """A JSON document: ints up to 30 digits, floats with exponents, strings
    with and without escapes, true, false and null, nested in arrays and
    objects, with JSON's whitespace between tokens."""
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return str(rng.randint(-(10 ** rng.randint(0, 30)), 10 ** rng.randint(0, 30)))
    if kind == 1:
        return f"{rng.uniform(-10, 10):.{rng.randint(0, 6)}{rng.choice('eEf')}}"
    if kind == 2:
        return rng.choice(["true", "false", "null", "0", "-0", "0.5", "-0.0", "1e-7", "2E+30"])
    if kind in (3, 4):  # plain, or with characters json.dumps escapes
        alphabet = "ab z" if kind == 3 else 'a"\\\n\t\u00e9'
        return json.dumps("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 4))))
    if kind == 5:
        return str(rng.randint(-9, 99))
    items = [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if kind == 8:
        items = [json.dumps(rng.choice(["points", "a", ""])) + rng.choice(_SPACES) + ":"
                 + rng.choice(_SPACES) + item for item in items]
    text = "{" if kind == 8 else "["
    for i, item in enumerate(items):
        text += rng.choice(_SPACES) + ("," if i else "") + rng.choice(_SPACES) + item
    return text + rng.choice(_SPACES) + ("}" if kind == 8 else "]")


# characters for single-character edits: JSON's own, and lookalikes that
# Python's int, float, str.isdigit, str.strip or str.split accept but json does not
_EDIT_CHARACTERS = list('[]{},:"-+.eE0123456789 \t\n\r') + [
    "\x0b", "\x0c", "\ufeff", "\u0663", "_", "N", "I", "\\", "\x00", "\xa0", "u"]


def test_plain_json_reader_agrees_with_json_whenever_it_reads(seed: int = 37) -> None:
    # the reader may give up on any text (json then reads it), but what it
    # reads must be exactly json's value: the same types, floats and key order
    rng = random.Random(seed)
    read = 0
    for _ in range(20000):
        text = _random_json(rng)
        for _ in range(rng.randint(0, 3)):
            at = rng.randint(0, len(text))
            cut = at + rng.randint(0, 1)
            text = text[:at] + rng.choice(_EDIT_CHARACTERS + [""]) + text[cut:]
        value = cli._plain_json(text)
        if value is not None:
            read += 1
            assert repr(value) == repr(json.loads(text, parse_constant=cli._reject_constant)), text
    assert read > 4000


# (text, whether cli._plain_json reads it rather than leaving it to json)
_JSON_CASES = {
    "leading-zero": ("01", False),
    "bare-point": ("1.", False),
    "point-first": (".5", False),
    "bare-minus": ("-", False),
    "two-minus": ("--1", False),
    "two-signs": ("[1e+-5]", False),
    "minus-point": ("[-.96e+172]", False),
    "trailing-comma": ("[1,]", False),
    "int-key": ("{1: 2}", False),
    "bom": ('\ufeff{"points": [[1]]}', False),
    "tab-in-string": ('{"poi\tnts": [[1]]}', False),
    "duplicate-keys": ('{"points": [[5]], "a": 1, "points": [[1, 0], [0, 1], [-1, -1]]}', True),
    "nan": ("[NaN]", False),
    "digit-limit": ('{"multiplicities": [' + "9" * 700 + "]}", False),
    "deep": ("[" * 100000 + "]" * 100000, False),
    "plain": ('\r\n{"a": "b c", "points": [[-0, 1.5e3, -2E-2, 0.0, 10]], "c": {}, "d": [[]]}\t', True),
}


@pytest.mark.parametrize("text, plain", _JSON_CASES.values(), ids=_JSON_CASES)
def test_load_json_reads_as_json_does(text, plain, tmp_path, monkeypatch) -> None:
    # the same value, or the same error text, as when json reads every file
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # 640 digits, the lowest limit CPython accepts
        sys.set_int_max_str_digits(640)

    def load():
        try:
            return repr(cli._load_json(str(path)))
        except cli.CommandError as exc:
            return exc.code, str(exc)

    try:
        assert (cli._plain_json(text) is not None) == plain
        fast = load()
        monkeypatch.setattr(cli, "_plain_json", lambda text: None)
        assert load() == fast
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv",
    [["periods", "--order", "200"], ["gw", "--order", "190", "--dmax", "1", "--format", "structured"]],
)
def test_program_integers_print_under_any_int_to_str_limit(argv) -> None:
    # 640 digits is the lowest limit CPython accepts; both commands print longer
    # integers, and must print the same bytes as with no limit.
    runs = [
        subprocess.run(
            [sys.executable, "-m", "quintic_mirror.cli", *argv],
            env=dict(os.environ, PYTHONPATH=str(_SRC), PYTHONINTMAXSTRDIGITS=digits),
            capture_output=True,
        )
        for digits in ("0", "640")
    ]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, b""), (0, b"")]
    assert runs[1].stdout == runs[0].stdout
    assert max(len(digits) for digits in re.findall(rb"\d+", runs[1].stdout)) > 640


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
def test_int_to_str_limit_still_bounds_input_files_and_is_restored(capsys, tmp_path) -> None:
    path = tmp_path / "long.json"
    path.write_text('{"multiplicities": [' + "9" * 700 + "]}")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = _run(capsys, ["syz", "k3", "--in", str(path)])
        assert code == 2 and err.startswith("error: input: malformed JSON") and "640" in err
        assert _run(capsys, ["periods", "--order", "200"])[0] == 0
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_gw_solves_and_reverts_once(capsys, monkeypatch) -> None:
    calls = {"frobenius": 0, "reversion": 0}
    compose_calls = []
    frobenius = enumerative.frobenius_at_zero
    reversion = TruncatedSeries.reversion
    compose = TruncatedSeries.compose

    def counted_frobenius(*args, **kwargs):
        calls["frobenius"] += 1
        return frobenius(*args, **kwargs)

    def counted_reversion(self, *outer):
        calls["reversion"] += 1
        return reversion(self, *outer)

    def counted_compose(self, inner):
        compose_calls.append(inner)
        return compose(self, inner)

    monkeypatch.setattr(enumerative, "frobenius_at_zero", counted_frobenius)
    monkeypatch.setattr(TruncatedSeries, "reversion", counted_reversion)
    monkeypatch.setattr(TruncatedSeries, "compose", counted_compose)
    code, out, err = _run(capsys, ["gw", "--dmax", "5", "--order", "8"])
    assert code == 0
    assert calls == {"frobenius": 1, "reversion": 1}
    assert len(compose_calls) == 0
