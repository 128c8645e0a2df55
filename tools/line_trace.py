"""Print each executable line of the package that no root runs.

    python3 tools/line_trace.py

The roots are the acceptance gates (``tests/test_acceptance.py``, run by
pytest in this process), two traced benchmark rounds in this process
(``perfbench/run.py --workload all --seed S --seconds 0 --trace 1`` for S
= 1 and 2; only seed 2's inputs reach the Smith form's divisibility fold)
and the benchmark's setup command, ``cli.main(["--help"])`` with stdout
redirected, in a process of its own as in the benchmark.  Lines are
recorded with ``sys.settrace`` from before the package is imported, so
module-level code counts as run.  A line is executable when a code object
compiled from its module lists it in ``co_lines``.  The output is one
block per module of ``src/quintic_mirror``: each line no root runs, with
the qualified name of its code object and its text.  A deletion round
starts from these lines; a line listed here may still be reached by a
test, which is not a root.  It takes about 40 s, so it is not a test and
CI does not run it.  Stdlib only, apart from the pytest that runs the
gates.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "quintic_mirror"


def executable_lines(path: Path) -> dict:
    """line -> qualified name of the innermost code object that runs it."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], {}
    while stack:
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line:  # None, or 0 for an instruction the compiler adds
                lines[line] = getattr(code, "co_qualname", code.co_name)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def traced(files, root):
    """root()'s result, and for each of files the set of its lines that root runs."""
    run = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            run[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in run else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        return root(), run
    finally:
        sys.settrace(None)
        threading.settrace(None)


def setup_command():
    from quintic_mirror import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["--help"])


def roots_in_this_process():
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        gates = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")])
    import run as bench

    rounds = []
    for seed in (1, 2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            bench.main(f"--workload all --seed {seed} --seconds 0 --trace 1".split())
        result = json.loads(out.getvalue().splitlines()[-1])
        rounds.append(f"seed {seed} correct {result['correct']}, failed {result['failed']}")
    return gates, rounds


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    files = [str(path) for path in modules]
    if any(name.startswith("quintic_mirror") for name in sys.modules):
        raise SystemExit("error: the package is imported before the trace starts")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        helped, run = pool.apply(traced, (files, setup_command))
    (gates, rounds), in_process = traced(files, roots_in_this_process)
    for name, lines in in_process.items():
        run[name] |= lines
    print(f"acceptance gates: pytest exit {int(gates)}; traced benchmark rounds: "
          + "; ".join(rounds) + f"; setup command --help: exit {helped}", file=sys.stderr)

    for path in modules:
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        missed = sorted(set(lines) - run[str(path)])
        print(f"{path.name}: {len(missed)} lines no root runs")
        for line in missed:
            print(f"  {line:5d}  {lines[line]:40s} {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
