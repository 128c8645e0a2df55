from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quintic_mirror import cli, enumerative, picard_fuchs
from quintic_mirror.enumerative import IntegralityError
from quintic_mirror.exactnum import TruncatedSeries
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


def test_monodromy_gate_rejects_a_power_basis_matrix_not_conjugate_to_the_diagonal(
    capsys, monkeypatch
) -> None:
    genuine = picard_fuchs.monodromy_at_infinity_power_basis()
    m = genuine.matrix
    bump = SquareExactMatrix.from_rows(
        m.field, [[int(i == j == 0) for j in range(m.size)] for i in range(m.size)]
    )
    perturbed = picard_fuchs.MonodromyMatrix(m + bump, genuine.basis_tag)
    monkeypatch.setattr(
        cli.picard_fuchs, "monodromy_at_infinity_power_basis", lambda: perturbed
    )
    for fmt in ("table", "structured"):
        code, out, err = _run(capsys, ["monodromy", "--format", fmt])
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
    assert message in lines[0]
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


@pytest.mark.parametrize(
    "order, digest",
    [
        (12, "21429ab075469d4ffe07ef8d186406a8137741e33d9e58057550a9b087b53c6a"),
        (20, "f3d3cbb02afd761c4857633d0e6eec2f9f79f1cc55cddd4920ce660627de5aac"),
        (40, "e023ae6ce1375fdb370cbd7294e44dd0e71612359b64278527595dd5a15dbba3"),
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
    ],
)
def test_periods_output_digest_is_frozen(capsys, order, fmt, digest) -> None:
    # Digests of the output of the Frobenius recurrence and the residual
    # done one Fraction operation per nilpotent term, both renderings built;
    # the integer kernels and the one-rendering path must reproduce it.
    code, out, err = _run(capsys, ["periods", "--order", str(order), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


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
    # kernel per point subset; the cofactor search must reproduce it.  The
    # input path is printed, so it is the same relative name every run.
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
