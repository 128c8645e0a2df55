"""Record paired benchmark runs as ``BENCH_<N>.json`` at the checkout root.

    python3 tools/bench_record.py --number N --seed 1 --seconds 20 --parent DIR --pairs 10

``DIR`` is a checkout of the parent commit; a change to the benchmark
itself pairs its checkout with itself.  The tool runs K pairs of
``python3 perfbench/run.py --workload all --seed S --seconds T``, one in
``DIR`` and one in this checkout, on seeds S..S+K-1, alternating which
side runs first.  It parses the last line of each stdout (one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``) and writes
the Python version, the processor count, the seed and the seconds, each
side's git SHA and totals, each run's ``attempted`` and ``failed``, and
per metric each side's median and quartiles and the number of pairs the
change won.  Every end-to-end metric is lower-is-better
(``BENCHMARK.json``); a tie counts for neither side.  Each end-to-end
metric also gets a ``verdict`` (see :func:`verdict`), and the gains and
regressions are printed.  A metric reads ``gain`` only if every change
run was correct and the change failed no more operations in total than
the parent.  Stdlib only; it reads ``BENCHMARK.json`` for the bounds and
writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# end-to-end metric name -> the relative bound a regression must exceed
BOUNDS = {metric["name"]: metric["bound"] for metric in
          json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def verdict(parent: list, change: list, bound: float, clean: bool) -> str:
    """One lower-is-better metric over pairs of runs, ``parent[i]`` against ``change[i]``.

    ``gain``: the change's runs are ``clean`` (all correct, with no more
    failed operations than the parent's), it won at least 9 of 10 pairs (a
    tie counts for neither) and its median is below the parent's by more
    than the parent's q3 - q1.  ``regression``: the change's median is
    above the parent's by more than ``bound`` of it.  ``unresolved``: the
    parent's q3 - q1 is wider than ``bound`` of its median, unless every
    change run is below every parent run.  Otherwise ``unchanged``.
    """
    p, c = _spread(parent), _spread(change)
    wins = sum(y < x for x, y in zip(parent, change))
    if clean and 10 * wins >= 9 * len(parent) and p["median"] - c["median"] > p["q3"] - p["q1"]:
        return "gain"
    if c["median"] > p["median"] * (1 + bound):
        return "regression"
    if p["q3"] - p["q1"] > bound * p["median"] and max(change) >= min(parent):
        return "unresolved"
    return "unchanged"


def paired_document(pairs: list, *, shas: dict, python: str, nproc: int, seed: int,
                    seconds: float) -> dict:
    """The BENCH record of alternating parent/change runs: ``pairs[i]`` maps
    each side to its perfbench stdout on seed + i, in the order the two ran."""
    runs, results = [], {side: [] for side in SIDES}
    for i, stdouts in enumerate(pairs):
        for side, stdout in stdouts.items():
            result = _result(stdout)
            results[side].append(result)
            runs.append({"pair": i, "seed": seed + i, "side": side, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"]})
    totals = {side: {"correct": all(r["correct"] for r in results[side]),
                     "attempted": sum(r["attempted"] for r in results[side]),
                     "failed": sum(r["failed"] for r in results[side])} for side in SIDES}
    clean = totals["change"]["correct"] and totals["change"]["failed"] <= totals["parent"]["failed"]
    metrics = {}
    for key, entry in results["change"][0]["metrics"].items():
        values = {side: [r["metrics"][key]["value"] for r in results[side]] for side in SIDES}
        metrics[key] = {
            "unit": entry["unit"],
            **{side: _spread(values[side]) for side in SIDES},
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        }
        bound = BOUNDS.get(key.split(".", 1)[1])
        if bound is not None:
            metrics[key]["verdict"] = verdict(values["parent"], values["change"], bound, clean)
    return {
        "python": python,
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
        "pairs": len(pairs),
        **{side: {"sha": shas[side], **totals[side]} for side in SIDES},
        "runs": runs,
        "metrics": metrics,
    }


def write_bench(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _perfbench(checkout: Path, seed: int, seconds: float) -> str | None:
    """The stdout of one ``--workload all`` run of the checkout's perfbench,
    or None (with its stderr passed on) if it failed."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    if run.returncode != 0 or not run.stdout.strip():
        sys.stderr.write(run.stderr)
        print(f"error: perfbench in {checkout} exited {run.returncode}", file=sys.stderr)
        return None
    return run.stdout


def _sha(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", required=True, type=int, help="N in the name BENCH_N.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent", required=True, type=Path,
                        help="a checkout of the parent commit to pair with")
    parser.add_argument("--pairs", type=int, default=1, help="pairs of runs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs takes a positive count")

    meta = {"python": platform.python_version(), "nproc": os.cpu_count() or 1,
            "seed": args.seed, "seconds": args.seconds}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for i in range(args.pairs):
        stdouts = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            stdouts[side] = _perfbench(checkouts[side], args.seed + i, args.seconds)
            if stdouts[side] is None:
                return 1
            result = _result(stdouts[side])
            print(f"pair {i + 1}/{args.pairs} seed {args.seed + i} {side}: "
                  f"correct={result['correct']} failed={result['failed']}", file=sys.stderr)
        pairs.append(stdouts)
    doc = paired_document(pairs, shas={side: _sha(checkouts[side]) for side in SIDES}, **meta)
    summary = " ".join(f"{side}: correct={doc[side]['correct']} attempted={doc[side]['attempted']} "
                       f"failed={doc[side]['failed']}" for side in SIDES)
    out = ROOT / f"BENCH_{args.number}.json"
    write_bench(out, doc)
    print(f"{out.name}: {summary}")
    for key, entry in doc["metrics"].items():
        if entry.get("verdict") in ("gain", "regression"):
            print(f"{entry['verdict']}: {key} {entry['parent']['median']:.6g} -> "
                  f"{entry['change']['median']:.6g} {entry['unit']}, "
                  f"lower in {entry['change_wins']} of {doc['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
