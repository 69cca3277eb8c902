"""Command line front end.

Subcommands:
    validate        check model and observable consistency, report metrics
    evolve          propagate the initial state, report trace and leakage
    charfunc        characteristic value for the configured test function
    counts          photon-counting distribution of one observable
    homodyne        homodyne density of one observable
    oracle-compare  engine vs dense-exponential and duality cross-checks

Exit codes: 0 success, 2 config error, 3 validation failure,
4 integration failure, 5 inversion-quality failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .config import (build_evolution, build_field, build_initial_state,
                     build_kappa, build_model, build_observables, load_config)
from .errors import (ConfigError, IntegrationError, InversionQualityError,
                     ValidationError)
from .evolution import evolve
from .fock import guard_band_leakage
from .generator import GeneratorContext
from .model import check_dissipativity, check_S_unitary
from .oracle import DENSE_DIM_LIMIT, dense_expm_propagate, duality_check
from .signals import TestFunction
from .statistics import counting_distribution, homodyne_distribution


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


class Run:
    """Everything assembled from one config file."""

    def __init__(self, cfg: dict, seed: int | None):
        known = {"model", "observables", "field", "evolution",
                 "initial_state", "kappa", "run", "_sha256"}
        unknown = set(cfg) - known
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        self.sha256 = cfg.get("_sha256", "")
        self.model, self.params = build_model(cfg.get("model", {}))
        self.obs = build_observables(cfg.get("observables", {}),
                                     self.model, self.params)
        self.field = build_field(cfg.get("field"), self.model, self.params,
                                 self.obs.horizon)
        self.evo = build_evolution(cfg.get("evolution"))
        self.rho0 = build_initial_state(cfg.get("initial_state"), self.model)
        self.kappa = build_kappa(cfg.get("kappa"), self.obs.m)
        run = cfg.get("run") or {}
        if not isinstance(run, dict):
            raise ConfigError("run: expected an object")
        allowed = {"t_end", "observable", "n_points", "kappa_max",
                   "x_min", "x_max", "x_points", "guard"}
        bad = set(run) - allowed
        if bad:
            raise ConfigError(f"run: unknown keys {sorted(bad)}")
        self.run = run
        self.seed = 0 if seed is None else seed

    def t_end(self) -> float:
        t = self.run.get("t_end", self.obs.horizon)
        t = float(t)
        if not 0 < t <= self.obs.horizon:
            raise ConfigError("run.t_end must lie in (0, horizon]")
        return t

    def observable(self) -> int:
        idx = self.run.get("observable")
        if not isinstance(idx, int) or not 1 <= idx <= self.obs.m:
            raise ConfigError(f"run.observable must be 1..{self.obs.m}")
        return idx

    def guard(self) -> int:
        return int(self.run.get("guard", 2))

    def context(self, kappa=None) -> GeneratorContext:
        return GeneratorContext(model=self.model, observables=self.obs,
                                field=self.field,
                                kappa=self.kappa if kappa is None else kappa)

    def header(self) -> dict:
        return {
            "tool": "contmeas",
            "version": __version__,
            "config_sha256": self.sha256,
            "truncation": {"n_max": self.model.space.n_max,
                           "m_max": self.model.space.m_max,
                           "dim": self.model.space.dim},
        }

    def leakage(self, t_end: float) -> float:
        """Guard-band occupation of a plain (test function off) run."""
        ctx = self.context(TestFunction.zero(self.obs.m))
        res = evolve(ctx, self.rho0, t_end, self.evo)
        return guard_band_leakage(self.model.space, res.final, self.guard())


def _emit(payload: dict, out: str | None):
    text = json.dumps(_jsonable(payload), indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: dict, columns: dict, out: str | None):
    lines = [f"# {k} = {v}" for k, v in _flatten(header)]
    names = list(columns)
    lines.append(",".join(names))
    rows = len(next(iter(columns.values())))
    for i in range(rows):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(d: dict, prefix: str = ""):
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            yield from _flatten(v, key + ".")
        else:
            yield key, _fmt(v) if isinstance(v, (float, complex)) else v


# -- subcommands ---------------------------------------------------------------

def cmd_validate(run: Run, out):
    report = dict(run.header())
    if run.params is not None:
        run.params.validate()
    space = run.model.space
    guard = min(run.guard(), space.n_max, space.m_max)
    diss = check_dissipativity(run.model, guard=guard, seed=run.seed)
    report["dissipativity_residual"] = diss.max_residual
    report["interior_dim"] = diss.interior_dim
    report["scattering_unitarity"] = check_S_unitary(run.model)
    report["observables_ok"] = True   # construction already checked them
    if diss.max_residual > 1e-10:
        raise ValidationError(
            f"dissipativity residual {diss.max_residual:.3e} exceeds 1e-10")
    _emit(report, out)


def cmd_evolve(run: Run, out):
    t_end = run.t_end()
    res = evolve(run.context(), run.rho0, t_end, run.evo)
    report = dict(run.header())
    report.update({
        "t_end": t_end,
        "n_steps": res.n_steps,
        "trace": res.trace,
        "max_abs_trace": res.max_abs_trace,
        "leakage": guard_band_leakage(run.model.space, res.final, run.guard())
        if run.kappa.is_zero else run.leakage(t_end),
    })
    _emit(report, out)


def cmd_charfunc(run: Run, out):
    t_end = run.t_end()
    res = evolve(run.context(), run.rho0, t_end, run.evo)
    report = dict(run.header())
    report.update({
        "t_end": t_end,
        "charfunc": res.trace,
        "abs": abs(res.trace),
        "leakage": run.leakage(t_end),
    })
    _emit(report, out)


def cmd_counts(run: Run, out):
    t_end = run.t_end()
    n_points = int(run.run.get("n_points", 256))
    p = counting_distribution(run.model, run.obs, run.field, run.rho0,
                              run.observable(), t_end, n_points, run.evo)
    header = dict(run.header())
    header.update({"t_end": t_end, "observable": run.observable(),
                   "n_points": n_points, "leakage": run.leakage(t_end)})
    _emit_csv(header, {"n": list(range(len(p))), "probability": list(p)}, out)


def cmd_homodyne(run: Run, out):
    t_end = run.t_end()
    n_points = int(run.run.get("n_points", 257))
    kappa_max = float(run.run.get("kappa_max", 12.0))
    x_min = float(run.run.get("x_min", -6.0))
    x_max = float(run.run.get("x_max", 6.0))
    x_points = int(run.run.get("x_points", 201))
    x = np.linspace(x_min, x_max, x_points)
    p = homodyne_distribution(run.model, run.obs, run.field, run.rho0,
                              run.observable(), t_end, kappa_max, x,
                              n_points, run.evo)
    header = dict(run.header())
    header.update({"t_end": t_end, "observable": run.observable(),
                   "kappa_max": kappa_max, "n_points": n_points,
                   "leakage": run.leakage(t_end)})
    _emit_csv(header, {"x": list(x), "density": list(p)}, out)


def cmd_oracle_compare(run: Run, out):
    t_end = run.t_end()
    if run.model.space.dim > DENSE_DIM_LIMIT:
        raise ConfigError(
            f"oracle-compare needs dim <= {DENSE_DIM_LIMIT}; shrink the "
            "truncation")
    ctx = run.context()
    frozen = dataclasses.replace(run.evo, contractivity_check="off",
                                 freeze=True)
    engine = evolve(ctx, run.rho0, t_end, frozen).final
    reference = dense_expm_propagate(run.model, run.obs, run.field,
                                     run.kappa, run.rho0, t_end)
    dual = duality_check(ctx, run.rho0, np.eye(run.model.space.dim), t_end,
                         run.evo)
    report = dict(run.header())
    report.update({
        "t_end": t_end,
        "dense_expm_deviation": float(np.max(np.abs(engine - reference))),
        "duality_residual": dual["residual"],
    })
    _emit(report, out)


COMMANDS = {
    "validate": cmd_validate,
    "evolve": cmd_evolve,
    "charfunc": cmd_charfunc,
    "counts": cmd_counts,
    "homodyne": cmd_homodyne,
    "oracle-compare": cmd_oracle_compare,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contmeas",
        description="continuous-measurement statistics from reduced "
                    "characteristic-operator evolution")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized checks")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        run = Run(cfg, args.seed)
        COMMANDS[args.command](run, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 3
    except InversionQualityError as exc:
        print(f"inversion-quality failure: {exc}", file=sys.stderr)
        return 5
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
