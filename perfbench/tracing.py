"""Per-layer counters and busy times, recorded around the public functions
of each contmeas module from outside the program.

A wrapper replaces the function everywhere it is bound: in its own module,
in every contmeas module that imported it by name, or on its class.  Each
metric accumulates over one solve; `Tracer.take()` returns the totals and
starts the next solve from zero.  Times are inclusive (they contain the
layers called inside), and a nested call to the same metric is not
counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric names, in the order they are reported
PER_LAYER = (
    "config.load_s", "cli.build_s", "model.build_s",
    "cli.leakage_calls", "cli.leakage_s",
    "statistics.grid_points", "statistics.sweep_s", "statistics.invert_s",
    "evolution.propagations", "evolution.propagate_s", "evolution.rk4_steps",
    "evolution.static_propagations",
    "generator.contexts", "generator.context_s",
    "generator.assemble_calls", "generator.assemble_s",
    "generator.apply_calls", "generator.apply_s",
    "generator.adjoint_calls", "generator.adjoint_s",
    "measurement.r_vector_calls", "measurement.r_vector_s",
    "signals.value_calls",
    "oracle.dense_expm_s", "oracle.duality_s",
    "trace.overhead_s",
)


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self._active = defaultdict(int)
        self._undo = []
        self._static_seen = False

    def take(self) -> dict:
        out = {name: self.totals.get(name, 0.0) for name in PER_LAYER}
        self.totals.clear()
        return out

    # -- wrappers -------------------------------------------------------------

    def timed(self, fn, seconds: str, calls: str | None = None,
              after=None):
        """Add the call's wall time to `seconds` and one to `calls`;
        `after(args, kwargs, result)` records more from the call."""
        totals, active = self.totals, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[seconds]:
                return fn(*args, **kwargs)
            active[seconds] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                totals[seconds] += time.perf_counter() - t0
                active[seconds] -= 1
            if calls is not None:
                totals[calls] += 1
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def counted(self, fn, calls: str):
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[calls] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _replace(self, module, name: str, make):
        """Rebind module.name, and every alias of it in contmeas, to
        make(original)."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod in [m for k, m in sys.modules.items()
                    if k == "contmeas" or k.startswith("contmeas.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, name: str, make):
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def install(self):
        from contmeas import (cli, config, evolution, generator,
                              measurement, model, oracle, signals,
                              statistics)
        t = self.timed
        self._replace(config, "load_config",
                      lambda f: t(f, "config.load_s"))
        self._replace_method(cli.Run, "__init__",
                             lambda f: t(f, "cli.build_s"))
        for name in ("dpo_model", "trivial_model", "dpo_laser_field"):
            self._replace(model, name, lambda f: t(f, "model.build_s"))
        self._replace_method(cli.Run, "leakage",
                             lambda f: t(f, "cli.leakage_s",
                                         "cli.leakage_calls"))

        def grid_points(args, kwargs, result):
            self.totals["statistics.grid_points"] += result.size

        self._replace(statistics, "joint_charfunc",
                      lambda f: t(f, "statistics.sweep_s",
                                  after=grid_points))
        for name in ("invert_counting", "invert_homodyne"):
            self._replace(statistics, name,
                          lambda f: t(f, "statistics.invert_s"))

        def propagated(args, kwargs, result):
            self.totals["evolution.rk4_steps"] += result.n_steps
            if self._static_seen:
                self.totals["evolution.static_propagations"] += 1

        def evolve_wrapper(f):
            inner = t(f, "evolution.propagate_s", "evolution.propagations",
                      after=propagated)

            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                self._static_seen = False
                return inner(*args, **kwargs)
            return wrapper

        def static_probe(f):
            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                result = f(*args, **kwargs)
                self._static_seen = self._static_seen or bool(result)
                return result
            return wrapper

        self._replace(evolution, "evolve", evolve_wrapper)
        self._replace(generator, "context_is_piecewise_static", static_probe)
        self._replace_method(generator.GeneratorContext, "__init__",
                             lambda f: t(f, "generator.context_s",
                                         "generator.contexts"))
        self._replace(generator, "generator_at",
                      lambda f: t(f, "generator.assemble_s",
                                  "generator.assemble_calls"))
        self._replace_method(generator.FrozenGenerator, "apply",
                             lambda f: t(f, "generator.apply_s",
                                         "generator.apply_calls"))
        self._replace_method(generator.FrozenGenerator, "apply_adjoint",
                             lambda f: t(f, "generator.adjoint_s",
                                         "generator.adjoint_calls"))
        self._replace_method(measurement.ObservableSpec, "r_vector",
                             lambda f: t(f, "measurement.r_vector_s",
                                         "measurement.r_vector_calls"))
        for cls in vars(signals).values():
            if (isinstance(cls, type) and cls.__module__ == signals.__name__
                    and "value" in cls.__dict__
                    and not getattr(cls.__dict__["value"],
                                    "__isabstractmethod__", False)):
                self._replace_method(cls, "value", lambda f: self.counted(
                    f, "signals.value_calls"))
        self._replace(oracle, "dense_expm_propagate",
                      lambda f: t(f, "oracle.dense_expm_s"))
        self._replace(oracle, "duality_check",
                      lambda f: t(f, "oracle.duality_s"))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
