"""Command line front end.

Subcommands:
    validate        check model and observable consistency, report metrics
    evolve          propagate the initial state, report trace and leakage
    charfunc        characteristic value for the configured test function
    counts          photon-counting distribution of one observable
    homodyne        homodyne density of one observable
    oracle-compare  engine vs dense-exponential and duality cross-checks

Exit codes: 0 success, 2 config error, 3 validation failure (including
an observable that `counts` or `homodyne` cannot invert, a counting
eigenvalue at or above `n_points`, and a model whose operators, or whose
dissipativity block, overflow), 4 integration failure (including a state
that is no longer finite, and a step count too large for a float, as a
dt of 5e-324 asks for), 5 inversion-quality failure (including a homodyne
x grid, or density, that is not finite).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .config import (build_evolution, build_field, build_initial_state,
                     build_kappa, build_model, build_observables, build_run,
                     load_config)
from .errors import (ConfigError, IntegrationError, InversionQualityError,
                     ValidationError)
from .evolution import evolve
from .fock import guard_band_leakage
from .generator import GeneratorContext
from .model import check_dissipativity, check_S_unitary
from .oracle import DENSE_DIM_LIMIT, dense_expm_propagate, duality_check
from .signals import TestFunction
from .statistics import (counting_distribution, diffusive_axis,
                         homodyne_distribution)


def _fmt(x) -> str:
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _json_value(obj):
    """`json.dumps`'s hook for what it cannot write itself: a complex
    number as [re, im], any other numpy scalar as its Python value."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


class Run:
    """Everything assembled from one config file."""

    # `_seed` is ignored; perfbench/setup_probe.py still passes it
    def __init__(self, cfg: dict, _seed=None):
        known = {"model", "observables", "field", "evolution",
                 "initial_state", "kappa", "run", "_sha256"}
        unknown = set(cfg) - known
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        self.sha256 = cfg.get("_sha256", "")
        self.model, params = build_model(cfg.get("model", {}))
        self.obs = build_observables(cfg.get("observables", {}),
                                     self.model, params)
        self.field = build_field(cfg.get("field"), self.model, params,
                                 self.obs.horizon)
        self.evo = build_evolution(cfg.get("evolution"))
        self.rho0 = build_initial_state(cfg.get("initial_state"), self.model)
        self.kappa = build_kappa(cfg.get("kappa"), self.obs.m)
        self.run = build_run(cfg.get("run"))

    def t_end(self) -> float:
        t = self.run.get("t_end", self.obs.horizon)
        if not 0 < t <= self.obs.horizon:
            raise ConfigError("run.t_end must lie in (0, horizon]")
        return t

    def observable(self) -> int:
        idx = self.run.get("observable")
        if idx is None or idx > self.obs.m:
            raise ConfigError(f"run.observable must be 1..{self.obs.m}")
        return idx

    def guard(self) -> int:
        """Guard-band width, at most the smaller cutoff, so the band never
        covers the vacuum."""
        space = self.model.space
        return min(self.run.get("guard", 2), space.n_max, space.m_max)

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

    def leakage(self, t_end: float, final: np.ndarray | None = None) -> float:
        """Guard-band occupation of a plain (test function zero) run at
        t_end.  `final` is the end state of that run when the caller has
        made it already: a run with the configured test function when that
        is zero, or the kappa = 0 member of a sweep.  Without it the plain
        run is propagated here."""
        if final is None:
            ctx = self.context(TestFunction.zero(self.obs.m))
            final = evolve(ctx, self.rho0, t_end, self.evo).final[0]
        return guard_band_leakage(self.model.space, final, self.guard())


def _write(text: str, out: str | None):
    """Write a report to the file `out`, or to stdout without one."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None):
    _write(json.dumps(payload, indent=2, default=_json_value) + "\n", out)


def _emit_csv(header: dict, columns: dict, out: str | None):
    lines = [f"# {k} = {v}" for k, v in _flatten(header)]
    names = list(columns)
    lines.append(",".join(names))
    rows = len(next(iter(columns.values())))
    for i in range(rows):
        lines.append(",".join(_fmt(columns[name][i]) for name in names))
    _write("\n".join(lines) + "\n", out)


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
    diss = check_dissipativity(run.model, guard=run.guard())
    report["dissipativity_residual"] = diss.max_residual
    report["interior_dim"] = diss.interior_dim
    report["scattering_unitarity"] = check_S_unitary(run.model)
    report["observables_ok"] = True   # construction already checked them
    if not diss.max_residual <= 1e-10:
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
        "trace": res.trace[0],
        "max_abs_trace": res.max_abs_trace[0],
        "leakage": run.leakage(t_end,
                               res.final[0] if run.kappa.is_zero else None),
    })
    _emit(report, out)


def cmd_charfunc(run: Run, out):
    t_end = run.t_end()
    res = evolve(run.context(), run.rho0, t_end, run.evo)
    report = dict(run.header())
    report.update({
        "t_end": t_end,
        "charfunc": res.trace[0],
        "abs": abs(res.trace[0]),
        "leakage": run.leakage(t_end,
                               res.final[0] if run.kappa.is_zero else None),
    })
    _emit(report, out)


def cmd_counts(run: Run, out):
    t_end = run.t_end()
    n_points = run.run.get("n_points", 256)
    p = counting_distribution(run.model, run.obs, run.field, run.rho0,
                              run.observable(), t_end, n_points, run.evo)
    header = dict(run.header())
    header.update({"t_end": t_end, "observable": run.observable(),
                   "n_points": n_points, "leakage": run.leakage(t_end)})
    _emit_csv(header, {"n": list(range(len(p))), "probability": list(p)}, out)


def cmd_homodyne(run: Run, out):
    t_end = run.t_end()
    n_points = run.run.get("n_points", 257)
    kappa_max = run.run.get("kappa_max", 12.0)
    x_min = run.run.get("x_min", -6.0)
    x_max = run.run.get("x_max", 6.0)
    x_points = run.run.get("x_points", 201)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linspace(x_min, x_max, x_points)   # invert_homodyne checks it
    finals = {0: None}      # the kappa = 0 member, for the leakage
    p = homodyne_distribution(run.model, run.obs, run.field, run.rho0,
                              run.observable(), t_end, kappa_max, x,
                              n_points, run.evo, finals)
    header = dict(run.header())
    header.update({"t_end": t_end, "observable": run.observable(),
                   "kappa_max": kappa_max,
                   "n_points": len(diffusive_axis(kappa_max, n_points)),
                   "leakage": run.leakage(t_end, finals[0])})
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
    engine = evolve(ctx, run.rho0, t_end, frozen).final[0]
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
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        run = Run(cfg)
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
