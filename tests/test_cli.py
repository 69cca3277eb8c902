import csv
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from contmeas.cli import _emit, main


def dpo_config(**over):
    cfg = {
        "model": {
            "type": "dpo",
            "truncation": {"n_max": 4, "m_max": 3},
            "params": {
                "omega_c": 1.0, "g": 0.3, "kappa": 0.5, "nbar": 0.0,
                "kappa_p": 1.0, "nbar_p": 0.0,
                "alpha": [0.0, [0.57735026918962584, 0.57735026918962584],
                          0.57735026918962584, 0.0],
                "beta": [[0.89442719099991586, 0.44721359549995793],
                         [0.44721359549995793, -0.89442719099991586],
                         0.0, 0.0],
                "theta3": 0.2,
                "lambda_drive": 0.05,
            },
        },
        "observables": {"type": "dpo", "horizon": 2.0},
        "field": {"type": "laser"},
        "evolution": {"dt": 0.01},
        "run": {"t_end": 1.0},
    }
    cfg.update(over)
    return cfg


def write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def counting_config(mu=2.0, **run):
    amp = float(np.sqrt(mu))
    base_run = {"t_end": 1.0, "observable": 1, "n_points": 64, "guard": 0}
    base_run.update(run)
    return {
        "model": {"type": "trivial", "d": 1},
        "observables": {"type": "counting", "horizon": 1.0,
                        "eigenvalues": [[1.0]]},
        "field": {"type": "signals",
                  "signals": [{"type": "constant", "value": amp}]},
        "evolution": {"dt": 0.005},
        "run": base_run,
    }


def test_validate_ok(tmp_path, capsys):
    code = main(["validate", "--config", write(tmp_path, dpo_config())])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tool"] == "contmeas"
    assert report["dissipativity_residual"] < 1e-10
    assert report["truncation"] == {"n_max": 4, "m_max": 3, "dim": 20}
    assert len(report["config_sha256"]) == 64


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = dpo_config()
    cfg["surprise"] = 1
    code = main(["validate", "--config", write(tmp_path, cfg)])
    assert code == 2
    assert "unknown" in capsys.readouterr().err


def test_missing_file_is_config_error(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_inconsistent_amplitudes_exit_3(tmp_path, capsys):
    cfg = dpo_config()
    cfg["model"]["params"]["alpha"] = [2.0, 0.0, 0.0, 0.0]
    code = main(["validate", "--config", write(tmp_path, cfg)])
    assert code == 3
    assert "validation" in capsys.readouterr().err


def test_counts_csv(tmp_path):
    mu = 2.0
    out = tmp_path / "counts.csv"
    code = main(["counts", "--config",
                 write(tmp_path, counting_config(mu)), "--out", str(out)])
    assert code == 0
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    p = np.array([float(r["probability"]) for r in rows])
    n = np.array([int(r["n"]) for r in rows])
    assert n[0] == 0 and len(p) == 64
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert p[0] == pytest.approx(np.exp(-mu), abs=1e-7)
    assert p[2] == pytest.approx(np.exp(-mu) * mu ** 2 / 2, abs=1e-7)


def test_homodyne_aliasing_exit_5(tmp_path, capsys):
    cfg = dpo_config()
    cfg["run"] = {"t_end": 1.0, "observable": 3, "kappa_max": 2.0,
                  "n_points": 33}
    code = main(["homodyne", "--config", write(tmp_path, cfg)])
    assert code == 5
    assert "kappa_max" in capsys.readouterr().err


def test_emit_writes_numpy_scalars(capsys):
    # complex numbers as [re, im] pairs and other numpy scalars as their
    # Python values, nested in dicts and lists: the text `_emit` wrote
    # before json.dumps took a hook
    _emit({"phi": np.complex128(0.1 + 0.2j),
           "run": {"trace": np.float64(1 / 3), "n_steps": np.int64(200),
                   "pair": [np.complex128(-1.5e-17 - 2j), np.float64(-0.0)]}},
          None)
    assert capsys.readouterr().out == (
        '{\n  "phi": [\n    0.1,\n    0.2\n  ],\n  "run": {\n'
        '    "trace": 0.3333333333333333,\n    "n_steps": 200,\n'
        '    "pair": [\n      [\n        -1.5e-17,\n        -2.0\n      ],\n'
        '      -0.0\n    ]\n  }\n}\n')
    # an integer is no pair, and a numpy bool is written as a bool
    _emit({"n": np.int64(3), "ok": np.bool_(True)}, None)
    assert capsys.readouterr().out == '{\n  "n": 3,\n  "ok": true\n}\n'


def test_evolve_report(tmp_path, capsys):
    code = main(["evolve", "--config", write(tmp_path, dpo_config())])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    tr = complex(*report["trace"])
    assert abs(tr - 1.0) < 1e-6
    assert report["leakage"] < 1e-6
    assert report["n_steps"] == 100


LEAKAGE_RUNS = [
    # (kappa section; None leaves the test function zero, propagations
    # made by each of evolve and charfunc)
    (None, 1),
    ({"breakpoints": [0.0, 0.5, 1.0],
      "values": [[0.4, 0.2, 0.1], [0.0, 0.3, 0.5]]}, 2),
]


@pytest.mark.parametrize("kappa, propagations", LEAKAGE_RUNS,
                         ids=["plain", "kappa"])
def test_leakage_reuses_plain_run(tmp_path, capsys, monkeypatch, kappa,
                                  propagations):
    # with a zero test function the run itself is the plain run whose
    # guard band the leakage reads, so it is not propagated again
    from contmeas import cli
    evolve, made = cli.evolve, []
    monkeypatch.setattr(cli, "evolve",
                        lambda *a, **k: made.append(a) or evolve(*a, **k))
    cfg = dpo_config() if kappa is None else dpo_config(kappa=kappa)
    path = write(tmp_path, cfg)
    leakage = {}
    for command in ("evolve", "charfunc"):
        made.clear()
        assert main([command, "--config", path]) == 0
        assert len(made) == propagations
        leakage[command] = json.loads(capsys.readouterr().out)["leakage"]
    assert leakage["evolve"] == leakage["charfunc"]


def test_homodyne_leakage_is_plain_runs(tmp_path, monkeypatch):
    # the homodyne half grid starts at kappa = 0, whose final state is the
    # plain run's, so the leakage is read from it without another
    # propagation, and equals the plain run's exactly even when the config
    # carries a nonzero test function
    from contmeas import cli
    made = []
    evolve = cli.evolve
    monkeypatch.setattr(cli, "evolve",
                        lambda *a, **k: made.append(a) or evolve(*a, **k))
    cfg = dpo_config(kappa={"breakpoints": [0.0, 0.5, 1.0],
                            "values": [[0.4, 0.2, 0.1], [0.0, 0.3, 0.5]]})
    cfg["run"].update(observable=3, kappa_max=7.0, n_points=9, x_min=-1.5,
                      x_max=1.5, x_points=9)
    out = tmp_path / "density.csv"
    assert main(["homodyne", "--config", write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert made == []
    header = [ln for ln in out.read_text().splitlines()
              if ln.startswith("# leakage = ")]
    plain = cli.Run(cfg).leakage(1.0)
    assert plain > 0.0
    assert float(header[0].split("=")[1]) == plain


def test_homodyne_header_reports_propagated_points(tmp_path, monkeypatch):
    # an even n_points is raised to the next odd count, so that kappa = 0
    # is a sample; the header reports the count that was inverted
    from contmeas import statistics
    seen = []
    invert = statistics.invert_homodyne
    monkeypatch.setattr(statistics, "invert_homodyne",
                        lambda k, phi, x: seen.append(len(k)) or
                        invert(k, phi, x))
    cfg = dpo_config()
    cfg["run"].update(observable=3, kappa_max=7.0, n_points=8, x_min=-1.5,
                      x_max=1.5, x_points=9)
    out = tmp_path / "density.csv"
    assert main(["homodyne", "--config", write(tmp_path, cfg),
                 "--out", str(out)]) == 0
    assert seen == [9]
    assert "# n_points = 9" in out.read_text().splitlines()


def test_oracle_compare(tmp_path, capsys):
    cfg = dpo_config()
    cfg["model"]["truncation"] = {"n_max": 2, "m_max": 2}
    cfg["kappa"] = {"breakpoints": [0.0, 0.5, 1.0],
                    "values": [[0.4, 0.2, 0.1], [0.0, 0.3, 0.5]]}
    code = main(["oracle-compare", "--config", write(tmp_path, cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dense_expm_deviation"] < 1e-8
    assert report["duality_residual"] < 1e-7


def test_threads_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", write(tmp_path, dpo_config()),
              "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_homodyne_window_wider_than_period_exit_5(tmp_path, capsys):
    # kappa spacing 1 gives the period 2 pi, narrower than x in [-4, 4]
    shipped = pathlib.Path(__file__).parent.parent / "configs"
    cfg = json.loads((shipped / "dpo_homodyne.json").read_text())
    cfg["run"].update(kappa_max=8.0, n_points=17, x_points=17)
    code = main(["homodyne", "--config", write(tmp_path, cfg)])
    assert code == 5
    assert "narrow the x window" in capsys.readouterr().err


def test_bad_run_key_rejected(tmp_path, capsys):
    cfg = counting_config()
    cfg["run"]["banana"] = 1
    code = main(["counts", "--config", write(tmp_path, cfg)])
    assert code == 2


SHIPPED = pathlib.Path(__file__).parent.parent / "configs"
GUARD_CLAMPED = [
    # (shipped config, command, run.guard; None drops it, reference guard
    # whose leakage the clamped run must report; None means leakage 0)
    ("poisson_counts.json", "counts", None, None),
    ("dpo_homodyne.json", "homodyne", 4, 3),
]


def _leakage(tmp_path, capsys, name, command, guard):
    cfg = json.loads((SHIPPED / name).read_text())
    cfg["run"].pop("guard", None)
    if guard is not None:
        cfg["run"]["guard"] = guard
    if command == "homodyne":
        cfg["run"].update(n_points=29, kappa_max=7.0, x_points=17)
    assert main([command, "--config", write(tmp_path, cfg)]) == 0
    header = [ln for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("# leakage = ")]
    return float(header[0].split("=")[1])


@pytest.mark.parametrize("name, command, guard, reference", GUARD_CLAMPED)
def test_guard_band_never_covers_vacuum(tmp_path, capsys, name, command,
                                        guard, reference):
    # a guard wider than the smaller cutoff is clamped to it, as validate
    # already did, instead of counting the vacuum as leaked
    leak = _leakage(tmp_path, capsys, name, command, guard)
    if reference is None:
        assert leak == 0.0
    else:
        assert leak == _leakage(tmp_path, capsys, name, command, reference)


def _set(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


NAN = float("nan")
MALFORMED = [
    # (config, dotted key, value, subcommand, exit code)
    ("dpo", "model.truncation.n_max", -1, "validate", 2),
    ("dpo", "model.truncation.n_max", "x", "validate", 2),
    ("counting", "observables.eigenvalues", "x", "validate", 2),
    ("dpo", "run.guard", "x", "validate", 2),
    ("counting", "run.n_points", "x", "counts", 2),
    ("counting", "evolution.dt", NAN, "counts", 2),
    ("dpo", "observables.horizon", NAN, "validate", 2),
    ("counting", "field.window", NAN, "counts", 2),
    ("dpo", "model.params.g", NAN, "charfunc", 2),
    ("dpo", "kappa.values", [[NAN, 0.0, 0.0]], "charfunc", 2),
    ("dpo", "evolution.method", "adaptive", "validate", 2),
    ("counting", "field.window", -1.0, "counts", 2),
    ("dpo", "field.window", -2.0, "evolve", 2),
    ("counting", "evolution.contractivity_tol", -1.0, "counts", 2),
    ("counting", "field.signals", [{"type": "triangle"}], "counts", 2),
    ("counting", "field.signals", [{"type": "constant", "phase": 0.0}],
     "counts", 2),
    ("counting", "field.signals", ["constant"], "counts", 2),
]


@pytest.mark.parametrize("base, key, value, command, code", MALFORMED)
def test_malformed_config_exit_code(tmp_path, capsys, base, key, value,
                                    command, code):
    cfg = dpo_config(kappa={"breakpoints": [0.0, 1.0],
                            "values": [[0.1, 0.0, 0.0]]}) \
        if base == "dpo" else counting_config()
    _set(cfg, key.split("."), value)
    assert main([command, "--config", write(tmp_path, cfg)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key.split(".")[-1] in err


DIVERGING = [
    # (subcommand, contractivity_check; None leaves the default "auto")
    ("charfunc", "off"),
    ("evolve", "off"),
    ("charfunc", None),
    ("evolve", None),
]


@pytest.mark.parametrize("command, check", DIVERGING)
def test_diverging_run_exit_4(tmp_path, capsys, recwarn, command, check):
    # dt 2.0 is far outside the RK4 stability region, so tau overflows to
    # NaN; with NaN every |trace| comparison is False, so only an explicit
    # finiteness check stops it, with the contractivity check on "auto" too
    evolution = {"dt": 2.0}
    if check is not None:
        evolution["contractivity_check"] = check
    cfg = dpo_config(kappa={"breakpoints": [0, 400], "values": [[0.1, 0, 0]]},
                     evolution=evolution, run={"t_end": 400})
    cfg["observables"]["horizon"] = 400
    assert main([command, "--config", write(tmp_path, cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("integration failure:")
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_system_free_contractivity_exit_4(tmp_path, capsys):
    # dt 10 covers the shipped counting run in one RK4 step, whose |trace|
    # at some kappa exceeds 1; the one-member runs step a Python complex
    # and report the value the arrays did
    cfg = json.loads((SHIPPED / "poisson_counts.json").read_text())
    cfg["evolution"]["dt"] = 10
    assert main(["counts", "--config", write(tmp_path, cfg)]) == 4
    assert capsys.readouterr().err == (
        "integration failure: |trace| = 1.01771320315 exceeds 1 at t = 1; "
        "the truncation is too small or the step too large\n")


@pytest.mark.parametrize("check", ["off", None])
def test_one_diverging_homodyne_member_exit_4(tmp_path, capsys, recwarn,
                                              check):
    # at dt 0.14 the member kappa = 7 of the grid (0, 3.5, 7) has
    # dt kappa^2 / 2 = 3.4, outside the RK4 stability region, and
    # overflows over 2858 steps while the other members stay bounded; the
    # stacked sweep stops on it as a lone run would
    evolution = {"dt": 0.14}
    if check is not None:
        evolution["contractivity_check"] = check
    cfg = dpo_config(evolution=evolution,
                     run={"t_end": 400, "observable": 3, "kappa_max": 7.0,
                          "n_points": 5, "x_points": 9})
    cfg["observables"]["horizon"] = 400
    assert main(["homodyne", "--config", write(tmp_path, cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("integration failure: non-finite state")
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_step_budget_exit_4(tmp_path, capsys):
    # dt 1e-12 asks for about 1e12 steps, dt 5e-324 for more than a float
    # holds; the budget of 10 is checked before a segment is assembled, so
    # the run fails at once with exit 4
    for dt in (1e-12, 5e-324):
        cfg = dpo_config(evolution={"dt": dt, "max_steps": 10})
        t0 = time.perf_counter()
        assert main(["evolve", "--config", write(tmp_path, cfg)]) == 4
        assert time.perf_counter() - t0 < 30.0
        assert capsys.readouterr().err.startswith(
            "integration failure: step budget exhausted")


# the shipped homodyne run on a coarse grid and step
SMALL_HOMODYNE = {"run.kappa_max": 8, "run.n_points": 17,
                  "evolution.dt": 0.02}

OVERFLOWING = [
    # (shipped config, subcommand, {dotted key: value}, exit code)
    ("dpo_validate.json", "validate", {"model.params.omega_c": 1e308}, 3),
    ("dpo_validate.json", "validate",
     {"model.params.omega_c": 1e308,
      "model.truncation": {"n_max": 2, "m_max": 2}}, 3),
    ("dpo_validate.json", "evolve", {"model.params.omega_c": 1e308}, 3),
    ("dpo_validate.json", "validate",
     {"model.params.kappa": 1e307,
      "model.params.alpha": [(2e307 / 3) ** 0.5] * 3 + [0.0]}, 3),
    ("dpo_validate.json", "charfunc", {"evolution.dt": 5e-324}, 4),
    ("poisson_counts.json", "counts", {"evolution.dt": 5e-324}, 4),
    ("poisson_counts.json", "counts",
     {"observables.horizon": 1e308, "run.t_end": 1e308}, 4),
    ("dpo_homodyne.json", "homodyne",
     {**SMALL_HOMODYNE, "run.x_min": 1e308, "run.x_max": 1e308,
      "run.x_points": 1}, 5),
    ("dpo_homodyne.json", "homodyne",
     {**SMALL_HOMODYNE, "run.x_min": -1e308, "run.x_max": 1e308,
      "run.x_points": 2}, 5),
]


@pytest.mark.parametrize(
    "name, command, over, code", OVERFLOWING,
    ids=["omega_c", "omega_c-dim9", "omega_c-evolve", "dissipativity-block",
         "dt-charfunc", "dt-counts", "horizon-counts", "x-density",
         "x-grid"])
def test_overflow_exit_code(tmp_path, capsys, recwarn, name, command, over,
                            code):
    # an operator or a dissipativity block that overflows is refused
    # (exit 3), so is a step count beyond a float (exit 4), and so are an
    # x grid and a homodyne density that overflow (exit 5), with no
    # traceback, warning or report; a NaN residual once passed validate,
    # and a NaN density was once written with exit 0
    cfg = json.loads((SHIPPED / name).read_text())
    for key, value in over.items():
        _set(cfg, key.split("."), value)
    out = tmp_path / "report.out"
    assert main([command, "--config", write(tmp_path, cfg),
                 "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(
        {3: "validation failure:",
         4: "integration failure: step budget exhausted",
         5: "inversion-quality failure:"}[code])
    assert not out.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "path", sorted((pathlib.Path(__file__).parent.parent / "configs")
                   .glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_validates(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0


UNINVERTIBLE = [
    # (shipped config, subcommand, observable, eigenvalues; None keeps
    # the config's)
    ("poisson_counts.json", "counts", 1, [[-1.0, 0.0]]),
    ("poisson_counts.json", "counts", 1, [[0.5, 0.0]]),
    ("dpo_homodyne.json", "homodyne", 1, None),
    ("dpo_homodyne.json", "counts", 3, None),
    ("poisson_counts.json", "counts", 1, [[256.0, 0.0]]),
]


@pytest.mark.parametrize("name, command, observable, eigenvalues",
                         UNINVERTIBLE, ids=["negative", "fractional",
                                            "homodyne-of-counter",
                                            "counts-of-quadrature",
                                            "eigenvalue-at-n_points"])
def test_uninvertible_observable_exit_3(tmp_path, capsys, monkeypatch, name,
                                        command, observable, eigenvalues):
    # counts needs non-negative integer eigenvalues below n_points (a
    # larger one wraps around the grid) and no quadrature profile,
    # homodyne zero eigenvalues and a nonzero profile; anything else is
    # refused before any propagation, with no report written
    from contmeas import cli, statistics

    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated")

    monkeypatch.setattr(statistics, "evolve", no_propagation)
    monkeypatch.setattr(cli, "evolve", no_propagation)
    cfg = json.loads((SHIPPED / name).read_text())
    cfg["run"]["observable"] = observable
    if eigenvalues is not None:
        cfg["observables"]["eigenvalues"] = eigenvalues
    out = tmp_path / "report.csv"
    assert main([command, "--config", write(tmp_path, cfg),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation failure:")
    assert f"observable {observable} " in err
    assert not out.exists()


STARTUP_PROBE = """
import contextlib, glob, io, json, sys
from contmeas import cli
from contmeas.config import load_config
for path in sorted(glob.glob("configs/*.json")):
    cli.Run(load_config(path))
heavy = ("scipy.linalg", "scipy.integrate", "scipy.optimize", "scipy.special")
built = [m for m in heavy if m in sys.modules]
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))
codes = [run("counts", "--config", "configs/poisson_counts.json"),
         run("homodyne", "--config", "configs/dpo_homodyne.json")]
sparse = [m for m in ("scipy.sparse", "scipy.sparse._sparsetools")
          if m in sys.modules]
code = run("oracle-compare", "--config", "configs/dpo_small_oracle.json")
print(json.dumps({"built": built, "codes": codes, "sparse": sparse,
                  "code": code,
                  "oracle": [m for m in heavy if m in sys.modules],
                  "oracle_sparse": "scipy.sparse" in sys.modules}))
"""


def _probe(code: str) -> dict:
    """The JSON line a fresh interpreter running `code` in the repository
    root prints."""
    root = SHIPPED.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_startup_loads_no_oracle_scipy():
    # only the oracles call expm and quad, so a fresh interpreter that
    # builds a run of every shipped config loads neither scipy.linalg nor
    # scipy.integrate (with scipy.optimize and scipy.special); the dense
    # oracle of oracle-compare loads scipy.linalg on first use, and no
    # command loads scipy.integrate.  The solves load scipy's compiled
    # CSR kernel and never the scipy.sparse package around it
    seen = _probe(STARTUP_PROBE)
    assert seen["built"] == []
    assert seen["codes"] == [0, 0]
    assert seen["sparse"] == ["scipy.sparse._sparsetools"]
    assert seen["code"] == 0
    assert "scipy.linalg" in seen["oracle"]
    assert "scipy.integrate" not in seen["oracle"]
    assert seen["oracle_sparse"] is False


KERNEL_PROBE = """
import json, sys
import numpy as np
if {sparse_first}:
    import scipy.sparse
from contmeas import fock
from contmeas.generator import _product
import scipy.sparse._sparsetools
kernel = sys.modules["scipy.sparse._sparsetools"]
rng = np.random.default_rng(4)
A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
A[rng.random((12, 12)) < 0.6] = 0
op = fock.SystemOperator(fock.TruncatedSpace(3, 2), A)
X = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
print(json.dumps({{
    "shared": kernel.csr_matvecs is fock.csr_matvecs,
    "bound": scipy.sparse._sparsetools is kernel,
    "equal": bool(np.array_equal(scipy.sparse.csr_matrix(A) @ X,
                                 _product(op.csr, X)))}}))
"""


@pytest.mark.parametrize("sparse_first", [True, False])
def test_one_kernel_module_in_either_import_order(sparse_first):
    # contmeas loads scipy's kernel module under its own name, so the
    # scipy.sparse package, imported before or after, shares it and has
    # it as its attribute `_sparsetools`, and its product equals
    # contmeas's bit for bit
    seen = _probe(KERNEL_PROBE.format(sparse_first=sparse_first))
    assert seen == {"shared": True, "bound": True, "equal": True}
