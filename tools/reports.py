"""Write the output of every contmeas subcommand on every shipped config,
and of each benchmark workload's subcommand on its seed-7 config, into
one directory, so that two checkouts can be compared byte for byte.

    python3 tools/reports.py OUT_DIR
    diff -r parent_out change_out

Run it from any directory; it runs the checkout it belongs to, with
./src on the import path and BLAS pinned to one thread.  Each run is a
fresh interpreter started in OUT_DIR with relative paths only, and
leaves NAME.out (the report), NAME.err (standard error) and NAME.rc
(the exit code), NAME being CONFIG.COMMAND.  The workload configs come
from perfbench/workloads.py and are written to OUT_DIR/configs with the
shipped ones.  Each run's exit code, wall time, peak RSS and minor page
faults (from `os.wait4`) are printed to standard output only, so that
OUT_DIR stays comparable.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("validate", "evolve", "charfunc", "counts", "homodyne",
            "oracle-compare")
SEED = 7
sys.path.insert(0, os.path.join(ROOT, "perfbench"))


def runs() -> list[tuple[str, str]]:
    """(config name, subcommand) pairs: every subcommand on every shipped
    config, then each benchmark workload's subcommand on its config."""
    from workloads import WORKLOADS
    shipped = sorted(f[:-len(".json")]
                     for f in os.listdir(os.path.join(ROOT, "configs"))
                     if f.endswith(".json"))
    return ([(name, command) for name in shipped for command in COMMANDS]
            + [(workload, command)
               for workload, (command, _, _) in sorted(WORKLOADS.items())])


def write_config(configs: str, name: str) -> str:
    """Write the config that the runs of NAME read to CONFIGS/NAME.json
    and return its path: a shipped config as it is, a benchmark workload's
    generated at seed SEED.  Reports carry the sha256 of their config, so
    every comparison of their bytes writes it here."""
    from workloads import WORKLOADS, make_config
    path = os.path.join(configs, name + ".json")
    if name in WORKLOADS:
        with open(path, "w") as f:
            json.dump(make_config(name, SEED), f, indent=2)
    else:
        shutil.copy(os.path.join(ROOT, "configs", name + ".json"), path)
    return path


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = os.path.abspath(argv[0])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    pairs = runs()
    configs = os.path.join(out_dir, "configs")
    os.makedirs(configs, exist_ok=True)
    for name in dict.fromkeys(name for name, _ in pairs):
        write_config(configs, name)
    for name, command in pairs:
        stem = f"{name}.{command}"
        report = stem + ".out"
        if os.path.exists(os.path.join(out_dir, report)):
            os.remove(os.path.join(out_dir, report))
        start = time.perf_counter()
        with open(os.path.join(out_dir, stem + ".err"), "w") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "contmeas.cli", command, "--config",
                 f"configs/{name}.json", "--out", report],
                cwd=out_dir, env=env, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        with open(os.path.join(out_dir, stem + ".rc"), "w") as f:
            f.write(f"{child.returncode}\n")
        print(f"{stem}: exit {child.returncode}, {wall:.2f} s, peak RSS "
              f"{usage.ru_maxrss / 1024:.1f} MB, {usage.ru_minflt} minor "
              "faults", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
