"""The BENCH writer on canned result lines, and the committed BENCH files;
no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

def _line(correct: bool, failed: int, cpu_s: float) -> str:
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {"gw-deep.cpu_s": {"value": cpu_s, "unit": "s"}}})


def test_paired_file_summarizes_each_side_and_counts_the_change_wins() -> None:
    # pair i runs on seed 5 + i; the parent ran first in pairs 0 and 2
    pairs = [
        {"parent": _line(True, 0, 0.40), "change": _line(True, 0, 0.35)},
        {"change": _line(True, 0, 0.36), "parent": _line(True, 0, 0.36)},
        {"parent": "gw-deep seed 7: 3 rounds\n" + _line(True, 0, 0.44), "change": _line(True, 0, 0.30)},
        {"change": _line(False, 2, 0.33), "parent": _line(True, 0, 0.38)},
    ]
    doc = bench_record.paired_document(
        pairs, shas={"parent": "aaa", "change": "bbb"}, python="3.11.7", nproc=2, seed=5, seconds=20.0,
    )
    assert {k: doc[k] for k in ("python", "nproc", "seed", "seconds", "pairs")} == {
        "python": "3.11.7", "nproc": 2, "seed": 5, "seconds": 20.0, "pairs": 4,
    }
    assert doc["parent"] == {"sha": "aaa", "correct": True, "attempted": 400, "failed": 0}
    assert doc["change"] == {"sha": "bbb", "correct": False, "attempted": 400, "failed": 2}
    assert [(r["pair"], r["seed"], r["side"], r["failed"]) for r in doc["runs"]] == [
        (0, 5, "parent", 0), (0, 5, "change", 0), (1, 6, "change", 0), (1, 6, "parent", 0),
        (2, 7, "parent", 0), (2, 7, "change", 0), (3, 8, "change", 2), (3, 8, "parent", 0),
    ]
    cpu = doc["metrics"]["gw-deep.cpu_s"]
    # a tie (pair 1) counts for neither side
    assert cpu["change_wins"] == 3
    assert cpu["unit"] == "s"
    assert cpu["parent"] == pytest.approx({"q1": 0.3750, "median": 0.39, "q3": 0.41})
    assert cpu["change"] == pytest.approx({"q1": 0.3225, "median": 0.34, "q3": 0.3525})


def test_one_pair_gives_each_side_its_single_value() -> None:
    doc = bench_record.paired_document(
        [{"parent": _line(True, 0, 0.40), "change": _line(True, 0, 0.35)}],
        shas={"parent": "aaa", "change": "bbb"}, python="3.11.7", nproc=2, seed=1, seconds=20.0,
    )
    cpu = doc["metrics"]["gw-deep.cpu_s"]
    assert cpu["parent"] == {"q1": 0.40, "median": 0.40, "q3": 0.40}
    assert cpu["change_wins"] == 1


def _pairs(parent: list, change: list) -> list:
    return [{"parent": _line(True, 0, p), "change": _line(True, 0, c)} for p, c in zip(parent, change)]


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        # 10 of 10 lower, gap 0.2 against a parent spread of 0.05
        ([1.0, 1.02, 1.04, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.05], [0.8] * 10, "gain"),
        # 9 lower and a tie still count as 9 of 10
        ([1.0] * 10, [0.8] * 9 + [1.0], "gain"),
        # 8 of 10 is no gain
        ([1.0] * 10, [0.8] * 8 + [1.0, 1.2], "unchanged"),
        # lower in every pair, but by less than the parent's spread
        ([1.0] * 5 + [1.02] * 5, [0.995] * 5 + [1.015] * 5, "unchanged"),
        # a median 30 % above the parent's, past the 25 % bound of cpu_s
        ([1.0] * 10, [1.3] * 10, "regression"),
        ([1.0] * 10, [1.2] * 10, "unchanged"),
        # the parent's runs spread over 0.8 of its median, wider than the bound
        ([0.6, 1.4] * 5, [1.4, 0.6] * 5, "unresolved"),
        # as wide, but every change run is below every parent run
        ([1.0] * 5 + [2.0] * 5, [0.99] * 10, "unchanged"),
    ],
    ids=["gain", "gain-with-a-tie", "eight-wins", "within-spread", "regression", "within-bound",
         "unresolved", "every-run-lower"],
)
def test_paired_file_gives_each_end_to_end_metric_a_verdict(parent, change, expected) -> None:
    assert bench_record.BOUNDS["cpu_s"] == 0.25
    doc = bench_record.paired_document(
        _pairs(parent, change), shas={"parent": "aaa", "change": "bbb"},
        python="3.11.7", nproc=2, seed=1, seconds=20.0,
    )
    assert doc["metrics"]["gw-deep.cpu_s"]["verdict"] == expected


@pytest.mark.parametrize(
    "parent_run, change_run, expected",
    [
        # the change fails one operation more than the parent: no gain
        ((True, 0), (True, 1), "unchanged"),
        # a change run that is not correct: no gain
        ((True, 0), (False, 0), "unchanged"),
        # as many failed operations on both sides still allow a gain
        ((True, 1), (True, 1), "gain"),
    ],
    ids=["one-more-failed", "incorrect", "as-many-failed"],
)
def test_a_gain_needs_no_more_failed_operations(parent_run, change_run, expected) -> None:
    # ten winning pairs; the last pair's runs carry the given correct and failed
    pairs = _pairs([1.0] * 10, [0.8] * 10)
    pairs[-1] = {"parent": _line(*parent_run, 1.0), "change": _line(*change_run, 0.8)}
    doc = bench_record.paired_document(
        pairs, shas={"parent": "aaa", "change": "bbb"}, python="3.11.7", nproc=2, seed=1, seconds=20.0,
    )
    assert doc["metrics"]["gw-deep.cpu_s"]["change_wins"] == 10
    assert doc["metrics"]["gw-deep.cpu_s"]["verdict"] == expected


def test_record_prints_its_gains_and_regressions(monkeypatch, tmp_path, capsys) -> None:
    # peak_rss_mb falls past its spread, cpu_s rises past its bound, and the
    # per-layer count gets no verdict
    def perfbench(checkout, seed, seconds):
        change = checkout == bench_record.ROOT
        return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "periods-deep.peak_rss_mb": {"value": (15.2 if change else 15.5) + seed / 1000, "unit": "MB"},
            "periods-deep.cpu_s": {"value": 0.5 if change else 0.3, "unit": "s"},
            "periods-deep.setup_s": {"value": 0.1, "unit": "s"},
            "periods-deep.picard_fuchs.residual_ms": {"value": 1.0 if change else 9.0, "unit": "ms"},
        }})

    monkeypatch.setattr(bench_record, "ROOT", tmp_path / "change")
    monkeypatch.setattr(bench_record, "_perfbench", perfbench)
    monkeypatch.setattr(bench_record, "_sha", lambda checkout: checkout.name)
    (tmp_path / "change").mkdir()
    code = bench_record.main(["--number", "0", "--parent", str(tmp_path / "parent"), "--pairs", "10"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "gain: periods-deep.peak_rss_mb 15.5055 -> 15.2055 MB, lower in 10 of 10 pairs",
        "regression: periods-deep.cpu_s 0.3 -> 0.5 s, lower in 0 of 10 pairs",
    ]
    metrics = json.loads((tmp_path / "change" / "BENCH_0.json").read_text(encoding="utf-8"))["metrics"]
    assert metrics["periods-deep.setup_s"]["verdict"] == "unchanged"
    assert "verdict" not in metrics["periods-deep.picard_fuchs.residual_ms"]


def test_record_needs_a_parent_checkout(capsys) -> None:
    with pytest.raises(SystemExit) as stop:
        bench_record.main(["--number", "0"])
    assert stop.value.code == 2
    assert "--parent" in capsys.readouterr().err


_ROOT = _TOOL.parent.parent
_BENCHMARK = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_END_TO_END = [f"{workload['name']}.{metric['name']}"
               for workload in _BENCHMARK["workloads"] for metric in _BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("path", sorted(_ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_bench_file_is_whole_and_correct(path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert len(_END_TO_END) == 20
    sides = bench_record.SIDES if "pairs" in doc else (None,)
    for side in sides:
        record = doc[side] if side else doc
        assert record["sha"]
        assert record["correct"] is True
        assert record["failed"] == 0
        for key in _END_TO_END:
            entry = doc["metrics"][key]
            assert isinstance(entry[side]["median"] if side else entry["value"], float), key
            assert entry.get("verdict", "unchanged") in ("gain", "regression", "unresolved", "unchanged")
    if "pairs" in doc:
        assert all(run["failed"] == 0 for run in doc["runs"])
