"""Benchmark of the contmeas command line: time per complete solve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The script first re-executes itself with the BLAS thread
variables pinned to 1, so they hold before numpy loads.  It writes the
seeded config of the workload, makes one warm-up solve through
contmeas.cli.main and then, for S seconds, alternates a fresh-interpreter
set-up probe with a repeat of the same solve.  A fixed calibration kernel
(calibrate.py) runs between them, and every time is scaled to the
reference machine speed by the kernel runs on either side of it.  Every
report is checked against references computed apart from the program
(checks.py).  With --trace 1 there are no set-up probes, and the second
half of the solves runs with per-layer wrappers (tracing.py) installed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
PIN_FLAG = "PERFBENCH_PINNED"
MIN_SOLVES = 3          # per timed phase, however short the run
RUN_DIR = ".perfbench_runs"

sys.path.insert(0, HERE)
from workloads import WORKLOADS, dimension, make_config  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_and_reexec(argv, src: str):
    """Replace this process by one whose environment pins the BLAS thread
    count and puts ./src first on the import path."""
    if os.environ.get(PIN_FLAG) == "1":
        return
    env = dict(os.environ, **PINNED)
    env[PIN_FLAG] = "1"
    env["PYTHONPATH"] = src
    sys.stdout.flush()
    os.execve(sys.executable,
              [sys.executable, os.path.abspath(__file__)] + list(argv), env)


def cpu_seconds() -> float:
    """CPU time of this process (all threads) and its waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def setup_time(config_path: str) -> float:
    """Fresh interpreter to a built cli.Run, in seconds."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                           config_path], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.split()[-1]) - t0


class PhiTap:
    """Records the (kappas, phi) pair handed to the homodyne inversion, so
    that phi on the grid can be checked, not only the density."""

    def __init__(self, statistics_module):
        self.seen = None
        original = statistics_module.invert_homodyne

        def invert_homodyne(kappas, phi, x):
            self.seen = (list(kappas), list(phi))
            return original(kappas, phi, x)
        statistics_module.invert_homodyne = invert_homodyne


@dataclass
class Sample:
    """One timed operation, scaled to the reference machine speed."""

    wall: float
    cpu: float
    layers: dict | None
    raw_wall: float
    speed: float        # reference kernel time / measured kernel time


class Solver:
    def __init__(self, workload: str, config_path: str, run_dir: str,
                 calibration):
        from contmeas import cli, statistics as stats
        self.main = cli.main
        self.command, _, self.suffix = WORKLOADS[workload]
        self.config_path = config_path
        self.run_dir = run_dir
        self.calibration = calibration
        self.tap = PhiTap(stats) if workload == "homodyne_dpo20" else None
        self.outputs = []     # (report path, tapped phi) of solves that ran
        self.attempted = 0
        self.failed = 0

    def solve(self):
        """One complete solve; returns (wall s, cpu s) or None on failure."""
        out = os.path.join(self.run_dir,
                           f"report_{self.attempted}.{self.suffix}")
        argv = [self.command, "--config", self.config_path, "--out", out]
        self.attempted += 1
        if self.tap is not None:
            self.tap.seen = None
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = self.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - c0
        if rc != 0:
            print(f"solve {self.attempted} exited with {rc}", file=sys.stderr)
            self.failed += 1
            return None
        self.outputs.append((out, self.tap.seen if self.tap else None))
        return wall, cpu

    def phase(self, seconds: float, tracer=None, probe=None):
        """Repeat the solve for `seconds`, with a calibration kernel run
        between operations.  A `probe` (timed function) runs before each
        solve, so that its samples and the solves cover the same stretch
        of time.  Returns the solve and the probe samples."""
        cal = self.calibration
        solves, probes = [], []
        before = cal.run()

        def speed_until_next():
            nonlocal before
            after = cal.run()
            speed = 2.0 * cal.reference / (before + after)
            before = after
            return speed

        deadline = time.perf_counter() + seconds
        while len(solves) < MIN_SOLVES or time.perf_counter() < deadline:
            if probe is not None:
                raw = probe()
                speed = speed_until_next()
                probes.append(Sample(raw * speed, 0.0, None, raw, speed))
            timed = self.solve()
            layers = tracer.take() if tracer is not None else None
            speed = speed_until_next()
            if timed is not None:
                wall, cpu = timed
                if layers is not None:
                    layers = {k: v * speed if k.endswith("_s") else v
                              for k, v in layers.items()}
                solves.append(Sample(wall * speed, cpu * speed, layers, wall,
                                     speed))
        return solves, probes


def check_all(workload: str, cfg: dict, solver: Solver) -> list:
    import checks
    ref = checks.reference_for(workload, cfg)
    problems = []
    for path, tapped in solver.outputs:
        with open(path) as fh:
            text = fh.read()
        problems += [f"{os.path.basename(path)}: {p}" for p in
                     checks.check_report(workload, solver.suffix, text, cfg,
                                         ref, tapped)]
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(samples, field: str) -> float:
    return statistics.median(getattr(s, field) for s in samples)


def measure(args, root: str, run_dir: str) -> tuple:
    """Returns the result object and lines describing the raw timings."""
    cfg = make_config(args.workload, args.seed)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=1)

    import contmeas
    if not os.path.abspath(contmeas.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        raise RuntimeError(f"contmeas imported from {contmeas.__file__}")
    from calibrate import Calibration
    solver = Solver(args.workload, config_path, run_dir,
                    Calibration(dimension(cfg)))
    solver.solve()                                    # warm-up
    metrics, notes = {}, []
    if not args.trace:
        setup_time(config_path)                       # warm-up
        solves, setups = solver.phase(args.seconds,
                                      probe=lambda: setup_time(config_path))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["solve_s"] = metric(median(solves, "wall"), "s")
        metrics["cpu_s"] = metric(median(solves, "cpu"), "s")
        metrics["setup_s"] = metric(median(setups, "wall"), "s")
        metrics["peak_rss_mb"] = metric(peak_mb, "MB")
        notes.append(f"unscaled median set-up {median(setups, 'raw_wall'):.4f}"
                     f" s over {len(setups)} interpreters")
    else:
        from tracing import PER_LAYER, Tracer
        plain, _ = solver.phase(0.5 * args.seconds)
        tracer = Tracer()
        tracer.install()
        try:
            solves, _ = solver.phase(0.5 * args.seconds, tracer)
        finally:
            tracer.uninstall()
        for name in PER_LAYER[:-1]:
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = metric(
                statistics.median(s.layers[name] for s in solves), unit)
        metrics["trace.overhead_s"] = metric(
            median(solves, "wall") - median(plain, "wall"), "s")
    notes.append(f"unscaled median solve {median(solves, 'raw_wall'):.4f} s "
                 f"over {len(solves)} solves, machine speed "
                 f"{median(solves, 'speed'):.3f} of reference")
    problems = check_all(args.workload, cfg, solver)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems and bool(solver.outputs),
              "attempted": solver.attempted, "failed": solver.failed,
              "metrics": metrics}
    return result, notes


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "contmeas", "__init__.py")):
        print("perfbench: run from the root of a contmeas checkout "
              "(src/contmeas not found)", file=sys.stderr)
        return 1
    pin_and_reexec(argv, src)
    run_dir = os.path.join(root, RUN_DIR,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        result, notes = measure(args, root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, RUN_DIR))
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(f"{args.workload} solves attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
