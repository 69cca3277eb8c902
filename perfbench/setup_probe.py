"""Build a contmeas CLI run in a fresh interpreter and print when it is
built, as time.perf_counter() (the system-wide monotonic clock on Linux),
so that the parent can time interpreter start, imports, config load,
model, observables and field together.

    python3 perfbench/setup_probe.py CONFIG
"""

import sys
import time

from contmeas.cli import Run
from contmeas.config import load_config

if __name__ == "__main__":
    run = Run(load_config(sys.argv[1]), None)
    print(repr(time.perf_counter()))
