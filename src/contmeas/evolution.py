"""Integration of the reduced evolution equation  d tau / dt = A_t[tau]
over [t_start, t_end], in absolute time.

The coefficients are smooth except at finitely many breakpoints (edges of
the field window, steps of the test function).  The stepper never
straddles a breakpoint: the interval is split into smooth segments and
each segment is covered by whole steps, with the last RK stage of a step
that ends a segment taking the left limit of the coefficients.  Inside a
segment everything is smooth, so classical fourth-order Runge-Kutta keeps
its full order.  Because times are absolute, propagation to s, then from
s to t, meets every breakpoint from the same side as the one-shot run.

When every coefficient is constant between breakpoints, or when
`EvolutionConfig.freeze` asks for it, each segment instead uses one
generator frozen at the segment midpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractivityError, IntegrationError
from .generator import (GeneratorContext, context_is_piecewise_static,
                        generator_at)


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 1e-2
    max_steps: int = 2_000_000
    contractivity_check: str = "auto"   # "auto", "on", "off"
    contractivity_tol: float = 1e-6
    freeze: bool = False         # hold each segment at its midpoint value

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.contractivity_check not in ("auto", "on", "off"):
            raise ValueError("contractivity_check must be auto, on or off")


@dataclass
class EvolutionResult:
    final: np.ndarray
    t_end: float
    n_steps: int
    trace: complex
    max_abs_trace: float


def is_state(rho: np.ndarray, tol: float = 1e-9) -> bool:
    """Hermitian, unit-trace, positive up to tol."""
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        return False
    if abs(np.trace(rho) - 1.0) > tol:
        return False
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return bool(evals.min() > -tol)


def _rk4_step(gen, t, h, tau, t_stop=None):
    """One classical RK4 step with stage generators `gen(t, side)`; a step
    that ends a segment at `t_stop` takes its last stage there, from the
    left, so accumulated rounding never crosses a breakpoint."""
    t4, side4 = (t + h, 1) if t_stop is None else (t_stop, -1)
    k1 = gen(t, 1).apply(tau)
    g_mid = gen(t + 0.5 * h, 1)
    k2 = g_mid.apply(tau + 0.5 * h * k1)
    k3 = g_mid.apply(tau + 0.5 * h * k2)
    k4 = gen(t4, side4).apply(tau + h * k3)
    return tau + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@np.errstate(over="ignore", invalid="ignore")
def evolve(ctx: GeneratorContext, rho0: np.ndarray, t_end: float,
           config: EvolutionConfig | None = None,
           t_start: float = 0.0) -> EvolutionResult:
    """Propagate tau(t_start) = rho0 to time t_end.

    A state that is no longer finite at the end of a segment raises
    IntegrationError whatever `contractivity_check` says; numpy's
    overflow warnings on the way there are silenced in its favour.
    """
    if config is None:
        config = EvolutionConfig()
    dim = ctx.model.space.dim
    tau = np.array(rho0, dtype=complex)
    if tau.shape != (dim, dim):
        raise IntegrationError(f"initial matrix must be {dim}x{dim}")
    if not t_start <= t_end:
        raise IntegrationError("t_end must not precede t_start")

    check = config.contractivity_check == "on" or (
        config.contractivity_check == "auto" and is_state(tau))

    static = config.freeze or context_is_piecewise_static(ctx)

    def gen(t, side):
        return frozen if static else generator_at(ctx, t, side)

    n_steps = 0
    max_abs_trace = abs(np.trace(tau))
    for lo, hi in ctx.segments(t_end, start=t_start):
        if static:
            frozen = generator_at(ctx, 0.5 * (lo + hi))
        count = max(1, int(np.ceil((hi - lo) / config.dt - 1e-12)))
        h = (hi - lo) / count
        for j in range(count):
            last = j == count - 1
            tau = _rk4_step(gen, lo + j * h, h, tau, hi if last else None)
            n_steps += 1
            if n_steps > config.max_steps:
                raise IntegrationError("step budget exhausted")
        tr = abs(np.trace(tau))
        if not (np.isfinite(tr) and np.isfinite(tau).all()):
            raise IntegrationError(f"non-finite state at t = {hi:.6g}; "
                                   "the step is too large")
        max_abs_trace = max(max_abs_trace, tr)
        if check and tr > 1.0 + config.contractivity_tol:
            raise ContractivityError(
                f"|trace| = {tr:.12g} exceeds 1 at t = {hi:.6g}; the "
                "truncation is too small or the step too large")
    return EvolutionResult(final=tau, t_end=t_end, n_steps=n_steps,
                           trace=complex(np.trace(tau)),
                           max_abs_trace=max_abs_trace)


def composition_check(ctx: GeneratorContext, rho0: np.ndarray, s: float,
                      t: float, config: EvolutionConfig | None = None) -> dict:
    """Compare one-shot propagation over [0, t] with propagation to s,
    then from s to t.

    Returns the entrywise deviation together with a step-halving error
    estimate of the one-shot run for scale.
    """
    if not 0.0 < s < t:
        raise ValueError("need 0 < s < t")
    if config is None:
        config = EvolutionConfig()
    one_shot = evolve(ctx, rho0, t, config).final
    mid = evolve(ctx, rho0, s, config).final
    two_leg = evolve(ctx, mid, t, config, t_start=s).final
    fine = replace(config, dt=0.5 * config.dt, contractivity_check="off")
    refined = evolve(ctx, rho0, t, fine).final
    return {
        "deviation": float(np.max(np.abs(one_shot - two_leg))),
        "step_halving_estimate": float(np.max(np.abs(one_shot - refined))),
        "one_shot": one_shot,
        "two_leg": two_leg,
    }
