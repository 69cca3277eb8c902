import csv
import json
import pathlib

import numpy as np
import pytest

from contmeas.cli import main


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


def test_evolve_report(tmp_path, capsys):
    code = main(["evolve", "--config", write(tmp_path, dpo_config())])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    tr = complex(*report["trace"])
    assert abs(tr - 1.0) < 1e-6
    assert report["leakage"] < 1e-6
    assert report["n_steps"] == 100


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
