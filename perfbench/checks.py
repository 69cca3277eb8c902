"""Checks of each CLI report against references computed apart from the
program (see reference.py).  Every check returns a list of problems; an
empty list means the report is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

from reference import (RotatingDpo, density_from_charfunc, homodyne_charfunc,
                       poisson_pmf)
from workloads import dimension

POISSON_TOL = 1e-8        # sup |p(n) - Poisson(n)|
PHI_TOL_DIM20 = 5e-6      # RK4 at dt 0.04 against the exact exponential
PHI_TOL_DIM117 = 1e-8     # RK4 at dt 0.02 against the exact exponential
DENSITY_TOL = 1e-5        # against the density of a fine reference grid
NEGATIVE_TOL = 1e-8
MASS_TOL = 1e-3           # window mass; the tails outside hold < 1e-4
LEAKAGE_RTOL = 1e-3
EXPM_TOL = 1e-8           # acceptance criterion 9
DUALITY_TOL = 1e-7        # acceptance criterion 9
FINE_KAPPA_MAX = 10.0
FINE_POINTS = 161


def parse_csv(text: str):
    """Header lines '# key = value' and float columns of a CSV report."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif line:
            rows.append(line.split(","))
    names = rows[0]
    cols = {n: np.array([float(r[j]) for r in rows[1:]])
            for j, n in enumerate(names)}
    return header, cols


def homodyne_grid(run: dict) -> np.ndarray:
    """The symmetric kappa grid the homodyne command samples."""
    n = int(run["n_points"])
    if n % 2 == 0:
        n += 1
    return np.linspace(-run["kappa_max"], run["kappa_max"], n)


def _close(name, got, want, tol, problems):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not dev <= tol:
        problems.append(f"{name}: deviation {dev:.3e} exceeds {tol:.1e}")


def _leakage(got, want, problems):
    if not abs(got - want) <= LEAKAGE_RTOL * abs(want):
        problems.append(f"leakage {got!r} differs from reference {want!r}")


def reference_for(workload: str, cfg: dict) -> dict:
    """Reference values one run's reports are checked against."""
    run = cfg["run"]
    if workload == "counts_poisson":
        re, im = cfg["field"]["signals"][0]["value"]
        mu = (re * re + im * im) * run["t_end"]
        return {"pmf": poisson_pmf(mu, run["n_points"])}
    dpo = RotatingDpo(cfg["model"])
    t_end = run["t_end"]
    guard = run.get("guard", 2)
    if workload == "homodyne_dpo20":
        grid = homodyne_grid(run)
        x = np.linspace(run["x_min"], run["x_max"], run["x_points"])
        fine = np.linspace(-FINE_KAPPA_MAX, FINE_KAPPA_MAX, FINE_POINTS)
        fine_phi = np.array([dpo.charfunc([(t_end, (0.0, 0.0, k))],
                                          dense=False) for k in fine])
        return {"grid": grid,
                "phi": homodyne_charfunc(dpo, t_end, grid),
                "x": x,
                "density": density_from_charfunc(fine, fine_phi, x),
                "leakage": dpo.leakage(t_end, guard, dense=True)}
    if workload == "charfunc_dpo117":
        k = cfg["kappa"]
        br = k["breakpoints"]
        segments = [(hi - lo, v) for lo, hi, v in zip(br, br[1:], k["values"])]
        return {"phi": dpo.charfunc(segments, dense=False),
                "leakage": dpo.leakage(t_end, guard, dense=False)}
    return {}


def check_counts(text: str, cfg: dict, ref: dict) -> list:
    problems = []
    header, cols = parse_csv(text)
    pmf = ref["pmf"]
    if len(cols["probability"]) != len(pmf):
        return [f"expected {len(pmf)} probabilities"]
    if not np.array_equal(cols["n"], np.arange(len(pmf))):
        problems.append("n column is not 0..N-1")
    _close("Poisson law", cols["probability"], pmf, POISSON_TOL, problems)
    if float(header["leakage"]) != 0.0:
        problems.append("system-free model reports leakage")
    return problems


def check_homodyne(text: str, cfg: dict, ref: dict, tapped=None) -> list:
    """Density against the reference; `tapped` is the (kappas, phi) pair
    the program inverted, when it was observed."""
    problems = []
    header, cols = parse_csv(text)
    x, p = cols["x"], cols["density"]
    if len(x) != len(ref["x"]) or not np.allclose(x, ref["x"], atol=1e-12):
        return ["x grid differs from the configured window"]
    if tapped is None:
        problems.append("characteristic values were not observed")
    else:
        kappas, phi = tapped
        if len(kappas) != len(ref["grid"]):
            problems.append(f"kappa grid has {len(kappas)} points, "
                            f"expected {len(ref['grid'])}")
        else:
            _close("kappa grid", kappas, ref["grid"], 1e-12, problems)
            _close("phi on the kappa grid", phi, ref["phi"], PHI_TOL_DIM20,
                   problems)
    if not p.min() >= -NEGATIVE_TOL:
        problems.append(f"negative density {p.min():.3e}")
    mass = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(x)))
    if not abs(mass - 1.0) <= MASS_TOL:
        problems.append(f"density integrates to {mass!r} over the window")
    _close("density vs fine reference grid", p, ref["density"], DENSITY_TOL,
           problems)
    _leakage(float(header["leakage"]), ref["leakage"], problems)
    return problems


def check_charfunc(text: str, cfg: dict, ref: dict) -> list:
    problems = []
    report = json.loads(text)
    phi = complex(*report["charfunc"])
    _close("phi", phi, ref["phi"], PHI_TOL_DIM117, problems)
    if not math.isclose(report["abs"], abs(phi), rel_tol=1e-12):
        problems.append("abs does not match |charfunc|")
    _leakage(report["leakage"], ref["leakage"], problems)
    return problems


def check_oracle(text: str, cfg: dict, ref: dict) -> list:
    problems = []
    report = json.loads(text)
    for key, tol in (("dense_expm_deviation", EXPM_TOL),
                     ("duality_residual", DUALITY_TOL)):
        if not 0.0 <= report[key] <= tol:
            problems.append(f"{key} {report[key]!r} not within {tol:.0e}")
    return problems


def check_header(text: str, suffix: str, cfg: dict) -> list:
    """Fields every report carries: tool, t_end and truncation."""
    if suffix == "json":
        report = json.loads(text)
        tool, t_end = report["tool"], report["t_end"]
        dim = report["truncation"]["dim"]
    else:
        header, _ = parse_csv(text)
        tool, t_end = header["tool"], float(header["t_end"])
        dim = int(header["truncation.dim"])
    want_dim = dimension(cfg)
    problems = []
    if tool != "contmeas":
        problems.append(f"report from tool {tool!r}")
    if t_end != cfg["run"]["t_end"]:
        problems.append(f"t_end {t_end!r} differs from the config")
    if dim != want_dim:
        problems.append(f"truncation dim {dim} differs from {want_dim}")
    return problems


def check_report(workload: str, suffix: str, text: str, cfg: dict,
                 ref: dict, tapped=None) -> list:
    try:
        problems = check_header(text, suffix, cfg)
        if workload == "homodyne_dpo20":
            problems += check_homodyne(text, cfg, ref, tapped)
        elif workload == "counts_poisson":
            problems += check_counts(text, cfg, ref)
        elif workload == "charfunc_dpo117":
            problems += check_charfunc(text, cfg, ref)
        else:
            problems += check_oracle(text, cfg, ref)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        problems = [f"unreadable report: {exc!r}"]
    return problems
