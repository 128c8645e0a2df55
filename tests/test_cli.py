from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from quintic_mirror import cli, enumerative
from quintic_mirror.enumerative import IntegralityError
from quintic_mirror.exactnum import TruncatedSeries

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
    frobenius = enumerative.frobenius_at_zero
    reversion = TruncatedSeries.reversion

    def counted_frobenius(*args, **kwargs):
        calls["frobenius"] += 1
        return frobenius(*args, **kwargs)

    def counted_reversion(self):
        calls["reversion"] += 1
        return reversion(self)

    monkeypatch.setattr(enumerative, "frobenius_at_zero", counted_frobenius)
    monkeypatch.setattr(TruncatedSeries, "reversion", counted_reversion)
    code, out, err = _run(capsys, ["gw", "--dmax", "5", "--order", "8"])
    assert code == 0
    assert calls == {"frobenius": 1, "reversion": 1}
