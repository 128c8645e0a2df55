"""Benchmark of the quintic-mirror command line: four workloads, one command.

    python3 perfbench/run.py --workload gw-deep --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it runs the program from the
checkout's own ``src`` directory and writes its inputs and scratch output
under ``.perfbench-work`` at the checkout root.  See README.md next to this
file for the workloads, the metrics and the reference figures.

``--workload all`` runs the four workloads in turn.  Each workload is a
fixed list of CLI commands run one at a time as child processes (a
closed loop with one client).  A run repeats whole rounds of
the list until ``--seconds`` have passed, checks every output against
``reference`` (which never imports the program) and prints, as the last
line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 1`` the same rounds run in this process instead, through
``quintic_mirror.cli.main``, alternating rounds with and without the
wrappers of ``layers``, and the metrics are the per-layer figures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

import checks
import inputs
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
# The console script's entry point, plus a report of the child's own peak
# RSS (VmHWM).  ru_maxrss from wait4 is no use here: Linux carries the
# parent's high-water mark across exec, so every child would read at least
# the benchmark's own size.
ENTRY = """
import os, sys
from quintic_mirror.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next((line.split()[1] for line in status if line.startswith("VmHWM:")), ""))
sys.exit(code)
"""
SETUP_REPEATS = 5
IMPORT_SAMPLES = 7
RUN_LIMIT_S = 170.0
# Machine-speed calibration.  On a shared host the speed of a core drifts
# by tens of percent over seconds to minutes.  The benchmark pins itself
# and its children to one core and times a fixed exact-arithmetic kernel of
# its own (reference.period_components(CAL_ORDER), which the program cannot
# change) before and after every measured step; the step's times are scaled
# by CAL_REF_S / (mean of the two samples).  CAL_REF_S sits in the middle of
# the kernel's times on the machine in README.md (about 5 to 9 ms), so the
# figures read as seconds there.
CAL_ORDER = 40
CAL_REF_S = 0.0065

GW_DEEP_ORDERS = (20, 23, 26, 29, 32)
PERIODS_DEEP = ((400, "structured"), (300, "table"), (200, "structured"))
DEFAULT_ORDER = 12  # the CLI's default --order for gw and periods
DEFAULT_DMAX = 3


@dataclasses.dataclass(frozen=True)
class Command:
    """One CLI invocation; ``check(result, expect())`` raises CheckFailed."""

    argv: tuple
    check: Callable
    expect: Callable = lambda: None
    fault: str = ""  # the known program fault this command trips today


@dataclasses.dataclass(frozen=True)
class Result:
    code: int
    out: str
    err: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    scale: float = 1.0  # calibration factor applied to wall_s and cpu_s


# ---------------------------------------------------------------------------
# references, computed once per run
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def mirror(order):
    return ref.mirror_data(order)


@functools.lru_cache(maxsize=None)
def period_series(order):
    return ref.period_components(order)


def lists(points):
    return [list(p) for p in points]


@functools.lru_cache(maxsize=None)
def base_report(name):
    """Reference report of an untransformed polytope, by the benchmark's own hull."""
    points = {
        "cube": inputs.CUBE3,
        "octahedron": inputs.OCTAHEDRON3,
        "fan": inputs.FAN_SIMPLEX4,
        "newton": inputs.NEWTON_SIMPLEX4_VERTICES,
    }[name]
    return ref.hull_report(points)


def polytope_want(report, g=None, extra=None):
    """What `polytope` should print for g applied to a polytope with `report`:
    vertices move by g, dual vertices by g^-T, the counts stay."""
    g_dual = None if g is None else inputs.inverse_transpose(g)
    move = lambda m, pts: lists(pts if m is None else ref.apply(m, pts))
    want = {
        "vertices": move(g, report["vertices"]),
        "dimension": report["dimension"],
        "reflexive": report["reflexive"],
    }
    if report["reflexive"]:
        want["dual_vertices"] = move(g_dual, report["dual_vertices"])
        want["dual_lattice_point_count"] = report["dual_lattice_point_count"]
    want.update(extra or {})
    return want


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def gw_deep(rng, files):
    """gw at orders where the series pipeline, not interpreter start, sets the time."""
    return [
        Command(
            ("gw", "--dmax", str(n), "--order", str(n), "--format", "structured"),
            functools.partial(checks.gw, n, n, "structured"),
            functools.partial(mirror, n),
        )
        for n in GW_DEEP_ORDERS
    ]


def periods_deep(rng, files):
    """Period series at high order: nilpotent arithmetic and huge-rational rendering."""
    return [
        Command(
            ("periods", "--order", str(n), "--format", fmt),
            functools.partial(checks.periods, n, fmt),
            functools.partial(period_series, n),
        )
        for n, fmt in PERIODS_DEEP
    ]


def cli_sweep(rng, files):
    """Every subcommand on built-in input in both renderings, seeded input
    files, and four bad inputs."""
    commands = []
    builtin_kahler = ([math.exp(-2.0 * math.pi), 1.0], [[1, 0], [0, 1]])
    fan_want = lambda: polytope_want(
        base_report("fan"),
        extra={"moduli_dimension": base_report("fan")["dual_lattice_point_count"] - 25},
    )
    for fmt in ("table", "structured"):
        f = ("--format", fmt)
        commands += [
            Command(("periods",) + f, functools.partial(checks.periods, DEFAULT_ORDER, fmt),
                    functools.partial(period_series, DEFAULT_ORDER)),
            Command(("monodromy",) + f, functools.partial(checks.monodromy, fmt)),
            Command(("gw",) + f, functools.partial(checks.gw, DEFAULT_ORDER, DEFAULT_DMAX, fmt),
                    functools.partial(mirror, DEFAULT_ORDER)),
            Command(("polytope",) + f, functools.partial(checks.polytope, "builtin", fmt), fan_want),
            Command(("glsm", "transpose") + f, functools.partial(checks.glsm_transpose, fmt)),
            Command(("glsm", "kahler") + f, functools.partial(checks.kahler, *builtin_kahler, fmt)),
            Command(("kontsevich",) + f, functools.partial(checks.kontsevich, fmt)),
            Command(("syz", "quintic-counts") + f, functools.partial(checks.syz_counts, fmt)),
            Command(("syz", "k3") + f, functools.partial(checks.syz_k3, [1] * 24, fmt)),
        ]

    for i, fmt in enumerate(("table", "structured")):
        f = ("--format", fmt)
        vertex = inputs.type21_vertex(rng)
        for kind, triple in (("type21", vertex), ("type12", inputs.mirror_partner(vertex))):
            path = files(f"vertex-{i}-{kind}.json", {"monodromies": triple})
            commands.append(Command(("syz", "classify", "--in", path) + f,
                                    functools.partial(checks.syz_classify, kind, fmt)))

        count = rng.randint(2, 6)
        width = rng.randint(1, 3)
        magnitudes = [10 ** rng.uniform(-3, 3) for _ in range(count)]
        charges = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(count)]
        path = files(f"radii-{i}.json", {"magnitudes": magnitudes, "charges": charges})
        commands.append(Command(("glsm", "kahler", "--in", path) + f,
                                functools.partial(checks.kahler, magnitudes, charges, fmt)))

        total = 24 if i == 0 else rng.choice((22, 23, 25, 26))
        cuts = sorted(rng.sample(range(1, total), rng.randint(3, 12)))
        ks = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        path = files(f"k3-{i}.json", {"multiplicities": ks})
        commands.append(Command(("syz", "k3", "--in", path) + f,
                                functools.partial(checks.syz_k3, ks, fmt)))

    g = inputs.unimodular(rng, 3, 5, 2)
    path = files("octahedron.json", {"points": lists(ref.apply(g, inputs.OCTAHEDRON3))})
    commands.append(Command(("polytope", "--in", path, "--format", "structured"),
                            functools.partial(checks.polytope, path, "structured"),
                            lambda g=g: polytope_want(base_report("octahedron"), g)))
    h = inputs.unimodular(rng, 4, 6, 2)
    path = files("fan-simplex.json", {"points": lists(ref.apply(h, inputs.FAN_SIMPLEX4))})
    commands.append(Command(("polytope", "--in", path), functools.partial(checks.polytope, path, "table"),
                            lambda g=h: polytope_want(base_report("fan"), g)))
    cloud = inputs.point_cloud(rng, 3, 12, 2)
    path = files("cloud.json", {"points": lists(cloud)})
    commands.append(Command(("polytope", "--in", path), functools.partial(checks.polytope, path, "table"),
                            lambda cloud=cloud: polytope_want(ref.hull_report(cloud))))

    # Fixed bad inputs, the same for every seed.  The first three are
    # accepted today (a nan radius, a fractional charge, booleans counted
    # as multiplicities) and count as failed until the program rejects them.
    bad = [
        ("glsm", "kahler", "bad-nan.json", '{"magnitudes": [NaN, 1.0], "charges": [[1, 0], [0, 1]]}',
         "glsm kahler accepts a NaN magnitude and prints r: nan nan"),
        ("glsm", "kahler", "bad-charge.json", '{"magnitudes": [0.5, 2.0], "charges": [[1.5, 0], [0, 1]]}',
         "glsm kahler accepts a non-integer charge"),
        ("syz", "k3", "bad-bool.json", json.dumps({"multiplicities": [True] * 24}),
         "syz k3 counts JSON true as multiplicity 1"),
        ("polytope", None, "bad-json.json", '{"points": [[1, 0, 0], [0, 1', ""),
    ]
    for first, second, name, text, fault in bad:
        path = files(name, text)
        argv = (first,) + ((second,) if second else ()) + ("--in", path)
        commands.append(Command(argv, checks.bad_input, fault=fault))
    return commands


def lattice_hull(rng, files):
    """Hulls, duals and lattice points: GL(d, Z) images of reflexive
    polytopes given by lattice points, and seeded point clouds."""
    commands = []

    def add(name, points, want):
        shuffled = lists(points)
        rng.shuffle(shuffled)
        path = files(f"{name}.json", {"points": shuffled})
        commands.append(Command(("polytope", "--in", path, "--format", "structured"),
                                functools.partial(checks.polytope, path, "structured"), want))

    # each pair is P under g and its polar dual under g^-T, so each
    # command's dual is the other's input hull
    g = inputs.unimodular(rng, 3, 6, 2)
    add("cube", ref.apply(g, inputs.CUBE3), lambda g=g: polytope_want(base_report("cube"), g))
    g_dual = inputs.inverse_transpose(g)
    add("octahedron", ref.apply(g_dual, inputs.OCTAHEDRON3),
        lambda g=g_dual: polytope_want(base_report("octahedron"), g))
    h = inputs.unimodular(rng, 4, 8, 2)
    add("fan-simplex", ref.apply(h, inputs.FAN_SIMPLEX4), lambda g=h: polytope_want(base_report("fan"), g))
    h_dual = inputs.inverse_transpose(h)
    add("newton-simplex", ref.apply(h_dual, inputs.newton_simplex_sample(rng, 10)),
        lambda g=h_dual: polytope_want(base_report("newton"), g))

    g = inputs.unimodular(rng, 3, 6, 2)
    add("cube-vertices", ref.apply(g, inputs.CUBE3_VERTICES),
        lambda g=g: polytope_want(base_report("cube"), g))

    for d, count, radius in ((3, 32, 3), (4, 18, 2)):
        cloud = inputs.point_cloud(rng, d, count, radius)
        # one reference hull serves the cloud and its image
        report = functools.lru_cache(maxsize=None)(lambda cloud=cloud: ref.hull_report(cloud))
        add(f"cloud{d}", cloud, lambda report=report: polytope_want(report()))
        g = inputs.unimodular(rng, d, 2 * d, 2)
        add(f"cloud{d}-moved", ref.apply(g, cloud), lambda report=report, g=g: polytope_want(report(), g))
    return commands


WORKLOADS = {
    "gw-deep": gw_deep,
    "periods-deep": periods_deep,
    "cli-sweep": cli_sweep,
    "lattice-hull": lattice_hull,
}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def child_env():
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PERFBENCH_HWM": str(WORK / "hwm"),
    }


def spawn(args, deadline) -> Result:
    """Run `python3 args...` from the checkout root, timing it with wait4."""
    out_path, err_path, hwm_path = WORK / "stdout", WORK / "stderr", WORK / "hwm"
    hwm_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    hwm = hwm_path.read_text() if hwm_path.exists() else ""
    return Result(
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
        wall,
        usage.ru_utime + usage.ru_stime,
        int(hwm) / 1024.0 if hwm else 0.0,
    )


def run_cli(argv, deadline) -> Result:
    return spawn(["-c", ENTRY, *argv], deadline)


def run_in_process(main, argv) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # a traceback is a failed command, as in a child process
            traceback.print_exc()
            code = 1
    return Result(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def setup(workload, seed, deadline):
    """Write the seeded inputs and start the CLI once; returns the commands."""
    shutil.rmtree(WORK / "inputs", ignore_errors=True)

    def files(name, doc):
        path = WORK / "inputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        return path.relative_to(ROOT).as_posix()

    rng = random.Random(f"{workload}:{seed}")
    commands = WORKLOADS[workload](rng, files)
    started = run_cli(["--help"], deadline)
    if started.code != 0:
        raise SystemExit(f"error: the CLI does not start: {started.err.strip()[-300:]}")
    return commands


def check(command, expected, result, failures) -> None:
    try:
        command.check((result.code, result.out, result.err), expected)
    except (checks.CheckFailed, KeyError, IndexError, TypeError, ValueError, ArithmeticError) as exc:
        failures.append((command, f"{type(exc).__name__}: {exc}"))


def calibrate() -> float:
    """Median of three timings of the calibration kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        ref.period_components(CAL_ORDER)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Calibration samples around consecutive measured steps."""

    def __init__(self):
        self.samples = [calibrate()]

    def scale(self) -> float:
        """Call right after a step: the scale for the step just finished."""
        self.samples.append(calibrate())
        return 2 * CAL_REF_S / (self.samples[-2] + self.samples[-1])


def run_rounds(commands, expected, seconds, deadline, runner, min_rounds=1, around=None, meter=None):
    """Whole rounds of the command list until `seconds` have passed; the
    outputs are checked after each round, outside `around(round_index)`.
    With a `meter`, each result carries the scale of its calibration."""
    rounds, failures = [], []
    start = time.monotonic()
    while len(rounds) < min_rounds or (time.monotonic() - start < seconds and time.monotonic() < deadline):
        results = []
        with around(len(rounds)) if around else contextlib.nullcontext():
            for command in commands:
                result = runner(command.argv)
                results.append(dataclasses.replace(result, scale=meter.scale()) if meter else result)
        for command, want, result in zip(commands, expected, results):
            check(command, want, result, failures)
        # the outputs are checked; keep only the figures
        rounds.append([dataclasses.replace(r, out="", err="") for r in results])
    return rounds, failures


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cmd_p50_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB"}


def end_to_end(rounds, setup_times):
    """The five end-to-end figures from calibrated times."""
    walls = [r.wall_s * r.scale for results in rounds for r in results]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(sum(r.wall_s * r.scale for r in results) for results in rounds),
        "cmd_p50_ms": 1000.0 * statistics.median(walls),
        "cpu_s": statistics.median(sum(r.cpu_s * r.scale for r in results) for results in rounds),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in results) for results in rounds),
    }


def per_layer(commands, expected, seconds, deadline, meter):
    """Alternate untraced and traced in-process rounds; medians of the traced ones.

    Times are calibrated as in the untraced run: each traced round's
    per-layer times by the mean scale of its commands."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from quintic_mirror import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: quintic_mirror imported from {cli.__file__}, not this checkout")
    tracer = layers.Tracer()
    samples = []

    @contextlib.contextmanager
    def around(index):
        if index % 2 == 0:
            yield
            return
        tracer.reset()
        tracer.install()
        try:
            yield
        finally:
            tracer.uninstall()
            samples.append(tracer.metrics())

    # round 0 warms the process up and is left out; then traced and
    # untraced rounds alternate, starting with a traced one
    rounds, failures = run_rounds(commands, expected, seconds, deadline,
                                  lambda argv: run_in_process(cli.main, argv), 3, around, meter)
    for sample, results in zip(samples, rounds[1::2]):
        scale = statistics.mean(r.scale for r in results)
        for key in sample:
            if key.endswith("_ms"):
                sample[key] *= scale
    metrics = {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}

    bare, loaded = [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(spawn(["-c", "pass"], deadline).wall_s * meter.scale())
        loaded.append(spawn(["-c", "import quintic_mirror.cli"], deadline).wall_s * meter.scale())
    metrics["cli.import_ms"] = 1000.0 * (statistics.median(loaded) - statistics.median(bare))
    round_s = [sum(r.wall_s * r.scale for r in results) for results in rounds]
    traced, untraced = round_s[1::2], round_s[2::2]
    metrics["trace.overhead_ms"] = 1000.0 * (statistics.median(traced) - statistics.median(untraced))
    return rounds, failures, metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def run_workload(workload, seed, seconds, trace) -> dict:
    """One workload's run: setup, rounds, checks; prints the readable
    lines and returns the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    meter = Meter()
    setup_times = []
    for _ in range(SETUP_REPEATS if not trace else 1):
        start = time.perf_counter()
        commands = setup(workload, seed, deadline)
        setup_times.append((time.perf_counter() - start) * meter.scale())
    expected = [c.expect() for c in commands]

    if trace:
        rounds, failures, metrics = per_layer(commands, expected, seconds, deadline, meter)
    else:
        runner = lambda argv: run_cli(argv, deadline)
        rounds, failures = run_rounds(commands, expected, seconds, deadline, runner, meter=meter)
        metrics = end_to_end(rounds, setup_times)

    samples = {
        "commands": [" ".join(c.argv) for c in commands],
        "rounds": [[[r.wall_s, r.cpu_s, r.rss_mb, r.scale] for r in results] for results in rounds],
        "setup_s": setup_times,
        "calibration_s": meter.samples,
    }
    (WORK / f"{workload}-samples.json").write_text(json.dumps(samples) + "\n", encoding="utf-8")
    unexpected = [(c, msg) for c, msg in failures if not c.fault]
    for command, message in failures[:20]:
        tag = "known fault" if command.fault else "FAILED"
        print(f"{tag}: quintic-mirror {' '.join(command.argv)}: {message[:300]}", file=sys.stderr)
    attempted = sum(len(r) for r in rounds)
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {len(commands)} commands, "
          f"{len(failures)} of {attempted} failed ({len(unexpected)} unexpected)")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit_of(name)}")
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quintic_mirror" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # one core for this process and every child: the calibration samples
    # and the commands they bracket then run where each other ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # all four in turn; metric names gain the workload as a prefix
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
