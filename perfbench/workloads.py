"""The four workloads: seeded config files for the contmeas CLI.

Each workload draws its free inputs from the seed with the standard
library's random.Random, so the same seed always gives the same config.
The grid sizes and steps stay fixed, so every seed asks for the same
amount of work.  Only the config file reaches the program.
"""

from __future__ import annotations

import math
import random

# equal splitting of the cavity and pump losses over channels 1-3, as in
# the shipped DPO configs (no thermal noise, so channels 7 and 8 are off)
_ALPHA = [[0.5773502691896258, 0.0]] * 3 + [[0.0, 0.0]]
_BETA = [[0.816496580927726, 0.0]] * 3 + [[0.0, 0.0]]
DRIVE = 0.1


def _dpo(n_max: int, m_max: int, g: float, horizon: float, dt: float,
         rnd: random.Random) -> dict:
    """A DPO config with a seeded local-oscillator and drive phase."""
    theta3 = rnd.uniform(0.0, 2.0 * math.pi)
    psi = rnd.uniform(0.0, 2.0 * math.pi)
    return {
        "model": {
            "type": "dpo",
            "truncation": {"n_max": n_max, "m_max": m_max},
            "params": {
                "omega_c": 1.0, "g": g, "kappa": 0.5, "nbar": 0.0,
                "kappa_p": 1.0, "nbar_p": 0.0,
                "alpha": _ALPHA, "beta": _BETA, "theta3": theta3,
                "lambda_drive": [DRIVE * math.cos(psi), DRIVE * math.sin(psi)],
            },
        },
        "observables": {"type": "dpo", "horizon": horizon},
        "field": {"type": "laser", "window": horizon},
        "evolution": {"dt": dt},
        "initial_state": {"type": "vacuum"},
        "run": {"t_end": horizon},
    }


def _kappa(breakpoints, rnd: random.Random, scale: float = 0.6) -> dict:
    values = [[round(rnd.uniform(-scale, scale), 6) for _ in range(3)]
              for _ in breakpoints[1:]]
    return {"breakpoints": list(breakpoints), "values": values}


def homodyne_dpo20(rnd: random.Random) -> dict:
    cfg = _dpo(4, 3, 0.3, 1.0, 0.04, rnd)
    cfg["run"].update({"observable": 3, "kappa_max": 7.0, "n_points": 25,
                       "x_min": -4.0, "x_max": 4.0, "x_points": 161})
    return cfg


def counts_poisson(rnd: random.Random) -> dict:
    """System-free counting of a constant coherent field f, |f|^2 = mu."""
    mu = rnd.uniform(1.5, 2.5)
    phase = rnd.uniform(0.0, 2.0 * math.pi)
    amp = math.sqrt(mu)
    return {
        "model": {"type": "trivial", "d": 2},
        "observables": {"type": "counting", "horizon": 1.0,
                        "eigenvalues": [[1.0, 0.0]]},
        "field": {"type": "signals", "window": 1.0, "signals": [
            {"type": "constant",
             "value": [amp * math.cos(phase), amp * math.sin(phase)]},
            {"type": "zero"}]},
        "evolution": {"dt": 0.005},
        "initial_state": {"type": "vacuum"},
        "run": {"t_end": 1.0, "observable": 1, "n_points": 256, "guard": 0},
    }


def charfunc_dpo117(rnd: random.Random) -> dict:
    cfg = _dpo(12, 8, 0.4, 2.0, 0.02, rnd)
    cfg["kappa"] = _kappa([0.0, 2.0 / 3.0, 4.0 / 3.0, 2.0], rnd)
    cfg["run"]["guard"] = 2
    return cfg


def oracle_dpo9(rnd: random.Random) -> dict:
    cfg = _dpo(2, 2, 0.3, 2.0, 0.01, rnd)
    cfg["kappa"] = _kappa([0.0, 1.0, 2.0], rnd)
    return cfg


# workload name -> (CLI subcommand, config builder, CLI output suffix)
WORKLOADS = {
    "homodyne_dpo20": ("homodyne", homodyne_dpo20, "csv"),
    "counts_poisson": ("counts", counts_poisson, "csv"),
    "charfunc_dpo117": ("charfunc", charfunc_dpo117, "json"),
    "oracle_dpo9": ("oracle-compare", oracle_dpo9, "json"),
}


def make_config(workload: str, seed: int) -> dict:
    return WORKLOADS[workload][1](random.Random(f"{workload}:{seed}"))


def dimension(cfg: dict) -> int:
    """Hilbert-space dimension of a config's model (1 when system-free)."""
    tr = cfg["model"].get("truncation")
    return 1 if tr is None else (tr["n_max"] + 1) * (tr["m_max"] + 1)
