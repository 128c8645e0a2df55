"""The BENCH writer on a canned result line; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

_LINE = json.dumps({
    "correct": True,
    "attempted": 120,
    "failed": 0,
    "metrics": {
        "gw-deep.cpu_s": {"value": 0.44, "unit": "s"},
        "cli-sweep.peak_rss_mb": {"value": 17.5, "unit": "MB"},
    },
})


def test_bench_file_holds_the_run_and_its_provenance(tmp_path) -> None:
    doc = bench_record.bench_document(
        "gw-deep seed 1: 12 rounds of 10 commands, 0 of 120 failed\n" + _LINE + "\n",
        sha="c272b03", python="3.11.7", nproc=2, seed=1, seconds=20.0,
    )
    path = tmp_path / "BENCH_0.json"
    bench_record.write_bench(path, doc)
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written == {
        "sha": "c272b03",
        "python": "3.11.7",
        "nproc": 2,
        "seed": 1,
        "seconds": 20.0,
        "correct": True,
        "attempted": 120,
        "failed": 0,
        "metrics": {
            "gw-deep.cpu_s": {"value": 0.44, "unit": "s"},
            "cli-sweep.peak_rss_mb": {"value": 17.5, "unit": "MB"},
        },
    }
    assert path.read_text(encoding="utf-8").endswith("}\n")
