"""Record one benchmark run as ``BENCH_<N>.json`` at the checkout root.

    python3 tools/bench_record.py --number N --seed 1 --seconds 20

Runs ``python3 perfbench/run.py --workload all --seed S --seconds T`` of
this checkout as a child process, parses the last line of its stdout (one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``)
and writes it together with the git SHA of the checkout, the Python
version, the processor count, the seed and the seconds.  Stdlib only; it
writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_document(stdout: str, *, sha: str, python: str, nproc: int, seed: int,
                   seconds: float) -> dict:
    """The BENCH record of one ``perfbench/run.py --workload all`` run, from
    the result object on the last line of its stdout."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "sha": sha,
        "python": python,
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def write_bench(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", required=True, type=int, help="N in the name BENCH_N.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if run.returncode != 0 or not run.stdout.strip():
        sys.stderr.write(run.stderr)
        print(f"error: perfbench exited {run.returncode}", file=sys.stderr)
        return 1
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    doc = bench_document(run.stdout, sha=sha, python=platform.python_version(),
                         nproc=os.cpu_count() or 1, seed=args.seed, seconds=args.seconds)
    out = ROOT / f"BENCH_{args.number}.json"
    write_bench(out, doc)
    print(f"{out.name}: correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
