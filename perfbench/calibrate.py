"""A fixed piece of work that times the machine, not the program.

The benchmark host shares its cores with other tenants, and the speed of
one CPU-second drifts by up to a factor of two over tens of seconds.  A
kernel that never changes, run right before and after each timed
operation, measures that speed; the benchmark scales each time by
REFERENCE_S / (kernel time) to report it at one fixed machine speed.

The kernel mimics the program's hot loop at the workload's dimension:
explicit Euler steps of a sum of sparse left and right products on a
dense complex matrix, with per-step Python scalar work.  It does not use
contmeas, so a change to the program never changes it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# kernel steps per workload dimension, sized to about 50 ms here
STEPS = {1: 600, 9: 500, 20: 400, 117: 50}
# kernel time at the machine's quiet speed: the 10th percentile of 400
# kernel runs per dimension, interleaved, on 2 shared cores (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, OpenBLAS pinned to one thread)
REFERENCE_S = {1: 0.0563, 9: 0.0543, 20: 0.0531, 117: 0.0529}
N_OPS = 8


class Calibration:
    def __init__(self, dim: int):
        rng = np.random.default_rng(20100)
        density = min(1.0, 3.0 / dim)
        self.ops = [sp.random(dim, dim, density=density, random_state=rng,
                              format="csr", dtype=complex) * 0.1
                    for _ in range(N_OPS)]
        self.ops_t = [op.T.tocsr() for op in self.ops]
        self.x0 = (rng.standard_normal((dim, dim))
                   + 1j * rng.standard_normal((dim, dim)))
        self.steps = STEPS[dim]
        self.reference = REFERENCE_S[dim]

    def run(self) -> float:
        """Seconds the kernel took this time."""
        t0 = time.perf_counter()
        x = self.x0.copy()
        for _ in range(self.steps):
            out = np.zeros_like(x)
            for op, op_t in zip(self.ops, self.ops_t):
                out += op @ x
                out += (op_t @ x.T).T
            w = sum(complex(np.cos(0.1 * k), np.sin(0.1 * k))
                    for k in range(N_OPS))
            x = x + (1e-3 / abs(w)) * out
        return time.perf_counter() - t0
