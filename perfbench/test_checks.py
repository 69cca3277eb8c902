"""Each check of the benchmark accepts a right report and rejects a wrong one.

    python3 -m pytest perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from reference import (RotatingDpo, density_from_charfunc,  # noqa: E402
                       homodyne_charfunc, poisson_pmf)
from workloads import make_config  # noqa: E402


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def csv_report(header: dict, columns: dict) -> str:
    """A report laid out as the counts and homodyne commands write it."""
    lines = [f"# {k} = {_fmt(v)}" for k, v in header.items()]
    names = list(columns)
    lines.append(",".join(names))
    for row in zip(*columns.values()):
        lines.append(",".join(_fmt(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _header(cfg, dim, leakage):
    return {"tool": "contmeas", "t_end": cfg["run"]["t_end"],
            "truncation.dim": dim, "leakage": leakage}


@pytest.fixture(scope="module")
def counts():
    cfg = make_config("counts_poisson", 7)
    ref = checks.reference_for("counts_poisson", cfg)
    return cfg, ref


@pytest.fixture(scope="module")
def homodyne():
    cfg = make_config("homodyne_dpo20", 7)
    return cfg, checks.reference_for("homodyne_dpo20", cfg)


@pytest.fixture(scope="module")
def charfunc():
    cfg = make_config("charfunc_dpo117", 7)
    return cfg, checks.reference_for("charfunc_dpo117", cfg)


def counts_report(cfg, p, n=None, leakage=0.0):
    n = np.arange(len(p)) if n is None else n
    return csv_report(_header(cfg, 1, leakage), {"n": n, "probability": p})


def homodyne_report(cfg, ref, grid, phi, leakage=None):
    density = density_from_charfunc(grid, phi, ref["x"])
    leakage = ref["leakage"] if leakage is None else leakage
    return csv_report(_header(cfg, 20, leakage),
                      {"x": ref["x"], "density": density})


def check(workload, suffix, text, cfg, ref, tapped=None):
    return checks.check_report(workload, suffix, text, cfg, ref, tapped)


# -- Poisson law ------------------------------------------------------------

def test_poisson_law_accepted(counts):
    cfg, ref = counts
    assert check("counts_poisson", "csv", counts_report(cfg, ref["pmf"]),
                 cfg, ref) == []


@pytest.mark.parametrize("mutate, message", [
    ("wrong_mean", "Poisson law"), ("shifted_n", "n column"),
    ("leakage", "leakage"), ("truncated", "probabilities"),
    ("wrong_tool", "tool")])
def test_poisson_law_rejected(counts, mutate, message):
    cfg, ref = counts
    p = ref["pmf"]
    mu = p[1] / p[0]
    if mutate == "wrong_mean":
        text = counts_report(cfg, poisson_pmf(mu * 1.001, len(p)))
    elif mutate == "shifted_n":
        text = counts_report(cfg, p, n=np.arange(1, len(p) + 1))
    elif mutate == "leakage":
        text = counts_report(cfg, p, leakage=1e-3)
    elif mutate == "truncated":
        text = counts_report(cfg, p[:-1])
    else:
        text = counts_report(cfg, p).replace("contmeas", "other")
    problems = check("counts_poisson", "csv", text, cfg, ref)
    assert any(message in p for p in problems)


# -- homodyne: phi on the grid and the density ------------------------------

def test_homodyne_accepted(homodyne):
    cfg, ref = homodyne
    text = homodyne_report(cfg, ref, ref["grid"], ref["phi"])
    assert check("homodyne_dpo20", "csv", text, cfg, ref,
                 (ref["grid"], ref["phi"])) == []


def test_perturbed_phi_on_grid_rejected(homodyne):
    cfg, ref = homodyne
    phi = ref["phi"].copy()
    phi[7] += 1e-4
    text = homodyne_report(cfg, ref, ref["grid"], ref["phi"])
    problems = check("homodyne_dpo20", "csv", text, cfg, ref,
                     (ref["grid"], phi))
    assert any("phi on the kappa grid" in p for p in problems)


def test_unobserved_phi_rejected(homodyne):
    cfg, ref = homodyne
    text = homodyne_report(cfg, ref, ref["grid"], ref["phi"])
    assert check("homodyne_dpo20", "csv", text, cfg, ref, None)


def test_perturbed_density_rejected(homodyne):
    cfg, ref = homodyne
    phi = ref["phi"].copy()
    phi[12] *= 1.001        # the centre point, phi(0) = 1
    text = homodyne_report(cfg, ref, ref["grid"], phi)
    problems = check("homodyne_dpo20", "csv", text, cfg, ref,
                     (ref["grid"], ref["phi"]))
    assert any("fine reference grid" in p for p in problems)


def test_coarse_grid_for_window_rejected(homodyne):
    """kappa_max 8 with 17 points has period 2 pi / 1 = 6.28 < 8, the
    width of the x window, so the density aliases at the window edges."""
    cfg, _ = homodyne
    cfg = json.loads(json.dumps(cfg))
    cfg["run"].update({"kappa_max": 8.0, "n_points": 17})
    ref = checks.reference_for("homodyne_dpo20", cfg)
    text = homodyne_report(cfg, ref, ref["grid"], ref["phi"])
    problems = check("homodyne_dpo20", "csv", text, cfg, ref,
                     (ref["grid"], ref["phi"]))
    assert any("fine reference grid" in p for p in problems)


@pytest.mark.parametrize("shift, scale, message", [
    (-1e-3, 1.0, "negative density"), (0.0, 1.01, "integrates to")])
def test_negative_density_and_wrong_mass_rejected(homodyne, shift, scale,
                                                  message):
    cfg, ref = homodyne
    _, cols = checks.parse_csv(homodyne_report(cfg, ref, ref["grid"],
                                               ref["phi"]))
    text = csv_report(_header(cfg, 20, ref["leakage"]),
                      {"x": cols["x"], "density": cols["density"] * scale
                       + shift})
    problems = check("homodyne_dpo20", "csv", text, cfg, ref,
                     (ref["grid"], ref["phi"]))
    assert any(message in p for p in problems)


def test_wrong_leakage_rejected(homodyne):
    cfg, ref = homodyne
    text = homodyne_report(cfg, ref, ref["grid"], ref["phi"],
                           leakage=2 * ref["leakage"])
    assert check("homodyne_dpo20", "csv", text, cfg, ref,
                 (ref["grid"], ref["phi"]))


# -- charfunc at dim 117 ------------------------------------------------------

def charfunc_report(cfg, phi, leakage, dim=117):
    return json.dumps({"tool": "contmeas", "t_end": cfg["run"]["t_end"],
                       "truncation": {"dim": dim},
                       "charfunc": [phi.real, phi.imag], "abs": abs(phi),
                       "leakage": leakage})


def test_charfunc_accepted(charfunc):
    cfg, ref = charfunc
    text = charfunc_report(cfg, ref["phi"], ref["leakage"])
    assert check("charfunc_dpo117", "json", text, cfg, ref) == []


@pytest.mark.parametrize("phi_shift, leak_factor, dim, message", [
    (1e-6, 1.0, 117, "phi"), (1e-6j, 1.0, 117, "phi"),
    (0, 1.1, 117, "leakage"), (0, 1.0, 20, "truncation dim")])
def test_charfunc_rejected(charfunc, phi_shift, leak_factor, dim, message):
    cfg, ref = charfunc
    text = charfunc_report(cfg, ref["phi"] + phi_shift,
                           ref["leakage"] * leak_factor, dim)
    problems = check("charfunc_dpo117", "json", text, cfg, ref)
    assert any(message in p for p in problems)


# -- oracle-compare -----------------------------------------------------------

@pytest.mark.parametrize("expm_dev, residual, ok", [
    (1e-10, 1e-15, True), (2e-8, 1e-15, False), (1e-10, 2e-7, False),
    (float("nan"), 1e-15, False)])
def test_oracle_tolerances(expm_dev, residual, ok):
    cfg = make_config("oracle_dpo9", 7)
    text = json.dumps({"tool": "contmeas", "t_end": cfg["run"]["t_end"],
                       "truncation": {"dim": 9},
                       "dense_expm_deviation": expm_dev,
                       "duality_residual": residual})
    assert (check("oracle_dpo9", "json", text, cfg, {}) == []) == ok


# -- the references themselves ------------------------------------------------

def test_reference_conserves_trace_and_is_hermitian():
    dpo = RotatingDpo(make_config("oracle_dpo9", 3)["model"])
    assert abs(dpo.charfunc([(2.0, (0.0, 0.0, 0.0))], dense=True) - 1) < 1e-12
    phi = homodyne_charfunc(dpo, 2.0, [-1.5, 1.5])
    sparse = dpo.charfunc([(2.0, (0.0, 0.0, 1.5))], dense=False)
    assert abs(phi[0] - np.conj(phi[1])) == 0.0
    assert abs(phi[1] - sparse) < 1e-12


def test_poisson_pmf_sums_to_one():
    p = poisson_pmf(2.0, 64)
    assert abs(p.sum() - 1.0) < 1e-14
    assert abs(p[2] - np.exp(-2.0) * 2.0) < 1e-15


# -- the tracer ---------------------------------------------------------------

def test_tracer_counts_and_uninstalls(tmp_path):
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    from contmeas import cli, evolution, statistics
    from tracing import PER_LAYER, Tracer
    cfg = make_config("counts_poisson", 1)
    cfg["evolution"]["dt"] = 0.25
    cfg["run"]["n_points"] = 4
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    before = (statistics.evolve, evolution.generator_at, cli.Run.__init__)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["counts", "--config", str(path),
                         "--out", str(tmp_path / "out.csv")]) == 0
        layers = tracer.take()
    finally:
        tracer.uninstall()
    assert (statistics.evolve, evolution.generator_at,
            cli.Run.__init__) == before
    assert set(layers) == set(PER_LAYER)
    assert layers["statistics.grid_points"] == 4
    assert layers["evolution.propagations"] == 5      # grid and leakage
    assert layers["evolution.static_propagations"] == 5
    assert layers["evolution.rk4_steps"] == 20
    assert layers["generator.apply_calls"] == 4 * 20
    assert layers["cli.leakage_calls"] == 1
    assert layers["generator.adjoint_calls"] == 0
    assert tracer.take()["generator.apply_calls"] == 0
