"""JSON run configuration.

Complex numbers are written as two-element arrays [re, im].  Unknown keys
are rejected so that typos fail loudly instead of silently using a
default, and every number must be finite.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError, ValidationError
from .evolution import EvolutionConfig
from .fock import TruncatedSpace
from .measurement import ObservableSpec, dpo_observables
from .model import (DpoParams, ModelSpec, dpo_laser_field, dpo_model,
                    trivial_model)
from .signals import ZERO, Constant, FieldProfile, Harmonic, TestFunction


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    data["_sha256"] = hashlib.sha256(raw.encode()).hexdigest()
    return data


def _real(node, where: str) -> float:
    """A finite JSON number; booleans, strings and NaN/Infinity fail."""
    if (isinstance(node, bool) or not isinstance(node, (int, float))
            or not math.isfinite(node)):
        raise ConfigError(f"{where}: expected a finite number, got {node!r}")
    return float(node)


def _integer(node, where: str, minimum: int = 0) -> int:
    """A JSON integer no smaller than `minimum`."""
    if isinstance(node, bool) or not isinstance(node, int) or node < minimum:
        raise ConfigError(f"{where}: expected an integer >= {minimum}, "
                          f"got {node!r}")
    return node


def _complex(node, where: str) -> complex:
    """A finite number or a finite [re, im] pair."""
    pair = node if isinstance(node, list) and len(node) == 2 else (node, 0.0)
    return complex(*(_real(x, where) for x in pair))


def _rows(node, where: str, width: int) -> np.ndarray:
    """Non-empty list of rows of `width` finite numbers, as an array."""
    if (not isinstance(node, list) or not node
            or not all(isinstance(r, list) and len(r) == width for r in node)):
        raise ConfigError(f"{where}: expected rows of {width} numbers")
    return np.array([[_real(x, f"{where}[{a}][{i}]")
                      for i, x in enumerate(row)]
                     for a, row in enumerate(node)])


def _take(node: dict, where: str, required=(), optional=()):
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(node) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in node]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return node


def build_model(cfg: dict):
    """Returns (model, params_or_None)."""
    node = _take(cfg, "model", required=("type",),
                 optional=("truncation", "params", "d"))
    kind = node["type"]
    if kind == "trivial":
        return trivial_model(_integer(node.get("d"), "model.d", 1)), None
    if kind != "dpo":
        raise ConfigError(f"model: unknown type {kind!r}")
    tr = _take(node.get("truncation", {}), "model.truncation",
               required=("n_max", "m_max"))
    space = TruncatedSpace(_integer(tr["n_max"], "model.truncation.n_max"),
                           _integer(tr["m_max"], "model.truncation.m_max"))
    p = _take(node.get("params", {}), "model.params",
              required=("omega_c", "g", "kappa", "nbar", "kappa_p", "nbar_p",
                        "alpha", "beta"),
              optional=("theta3", "lambda_drive"))
    for key in ("alpha", "beta"):
        if not isinstance(p[key], list) or len(p[key]) != 4:
            raise ConfigError(f"model.params.{key}: expected 4 entries")
    real = {key: _real(p.get(key, 0.0), f"model.params.{key}")
            for key in ("omega_c", "g", "kappa", "nbar", "kappa_p", "nbar_p",
                        "theta3")}
    params = DpoParams(
        **real,
        alpha=tuple(_complex(x, "model.params.alpha") for x in p["alpha"]),
        beta=tuple(_complex(x, "model.params.beta") for x in p["beta"]),
        lambda_drive=_complex(p.get("lambda_drive", 0.0),
                              "model.params.lambda_drive"))
    try:
        model = dpo_model(params, space)
    except ValidationError:
        # parameter constraint violations keep their own exit code
        raise
    except Exception as exc:
        raise ConfigError(f"model: {exc}") from exc
    return model, params


def build_observables(cfg: dict, model: ModelSpec, params) -> ObservableSpec:
    node = _take(cfg, "observables", required=("type", "horizon"),
                 optional=("eigenvalues",))
    horizon = _real(node["horizon"], "observables.horizon")
    if node["type"] == "dpo":
        if params is None:
            raise ConfigError("observables: dpo observables need a dpo model")
        return dpo_observables(params, horizon)
    if node["type"] == "counting":
        if "eigenvalues" not in node:
            raise ConfigError("observables: counting type needs eigenvalues")
        ev = _rows(node["eigenvalues"], "observables.eigenvalues", model.d)
        return ObservableSpec.counting_only(model.d, horizon, ev)
    raise ConfigError(f"observables: unknown type {node['type']!r}")


# each signal type: what builds it, and its keys with their parser and
# default, in the builder's argument order
_SIGNALS = {
    "zero": (lambda: ZERO, {}),
    "constant": (Constant, {"value": (_complex, 0.0)}),
    "harmonic": (Harmonic, {"amplitude": (_complex, 1.0),
                            "phase": (_real, 0.0),
                            "frequency": (_real, 0.0)}),
}


def _build_signal(node, where: str):
    kind = node.get("type") if isinstance(node, dict) else None
    if kind not in _SIGNALS:
        raise ConfigError(f"{where}: expected an object with a type in "
                          f"{sorted(_SIGNALS)}, got {node!r}")
    build, keys = _SIGNALS[kind]
    _take(node, where, required=("type",), optional=keys)
    return build(*(parse(node.get(key, default), where)
                   for key, (parse, default) in keys.items()))


def build_field(cfg, model: ModelSpec, params, horizon: float) -> FieldProfile:
    if cfg is None:
        return FieldProfile((ZERO,) * model.d, horizon)
    node = _take(cfg, "field", required=("type",),
                 optional=("window", "signals"))
    window = _real(node.get("window", horizon), "field.window")
    if window < 0:
        raise ConfigError(f"field.window: expected a number >= 0, "
                          f"got {window!r}")
    if node["type"] == "laser":
        if params is None:
            raise ConfigError("field: laser profile needs a dpo model")
        return dpo_laser_field(params, window)
    if node["type"] == "signals":
        sigs = node.get("signals")
        if not isinstance(sigs, list) or len(sigs) != model.d:
            raise ConfigError(f"field.signals: expected {model.d} entries")
        return FieldProfile(tuple(_build_signal(s, f"field.signals[{i}]")
                                  for i, s in enumerate(sigs)), window)
    raise ConfigError(f"field: unknown type {node['type']!r}")


def build_evolution(cfg) -> EvolutionConfig:
    if cfg is None:
        return EvolutionConfig()
    node = _take(cfg, "evolution", optional=(
        "dt", "max_steps", "contractivity_check", "contractivity_tol"))
    try:
        return EvolutionConfig(
            dt=_real(node.get("dt", 1e-2), "evolution.dt"),
            max_steps=_integer(node.get("max_steps", 2_000_000),
                               "evolution.max_steps", 1),
            contractivity_check=node.get("contractivity_check", "auto"),
            contractivity_tol=_real(node.get("contractivity_tol", 1e-6),
                                    "evolution.contractivity_tol"))
    except ValueError as exc:
        raise ConfigError(f"evolution: {exc}") from exc


def build_initial_state(cfg, model: ModelSpec) -> np.ndarray:
    space = model.space
    if cfg is None:
        cfg = {"type": "vacuum"}
    node = _take(cfg, "initial_state", required=("type",),
                 optional=("n", "m"))
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    if node["type"] == "vacuum":
        rho[space.index(0, 0), space.index(0, 0)] = 1.0
        return rho
    if node["type"] == "fock":
        n = _integer(node.get("n", 0), "initial_state.n")
        m = _integer(node.get("m", 0), "initial_state.m")
        if not (0 <= n <= space.n_max and 0 <= m <= space.m_max):
            raise ConfigError("initial_state: occupation outside truncation")
        rho[space.index(n, m), space.index(n, m)] = 1.0
        return rho
    raise ConfigError(f"initial_state: unknown type {node['type']!r}")


def build_kappa(cfg, m: int) -> TestFunction:
    if cfg is None:
        return TestFunction.zero(m)
    node = _take(cfg, "kappa", required=("breakpoints", "values"))
    breaks = node["breakpoints"]
    if not isinstance(breaks, list):
        raise ConfigError("kappa.breakpoints: expected a list")
    breaks = [_real(b, f"kappa.breakpoints[{i}]")
              for i, b in enumerate(breaks)]
    values = _rows(node["values"], "kappa.values", m)
    try:
        return TestFunction(breaks, values)
    except ValueError as exc:
        raise ConfigError(f"kappa: {exc}") from exc


def build_run(cfg) -> dict:
    """The `run` section, each integer key checked against its least value
    and every other key as a finite number."""
    integers = {"observable": 1, "n_points": 1, "x_points": 1, "guard": 0}
    reals = ("t_end", "kappa_max", "x_min", "x_max")
    node = _take(cfg or {}, "run", optional=(*integers, *reals))
    return {key: _integer(val, f"run.{key}", integers[key])
            if key in integers else _real(val, f"run.{key}")
            for key, val in node.items()}
