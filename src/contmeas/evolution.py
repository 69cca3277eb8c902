"""Integration of the reduced evolution equation  d tau / dt = A_t[tau].

The coefficients are smooth except at finitely many breakpoints (edges of
the field window, steps of the test function).  The stepper never
straddles a breakpoint: the interval is split into smooth segments and
each segment is covered by whole steps, with the last RK stage of a step
that ends a segment taking the left limit of the coefficients.  Inside a
segment everything is smooth, so classical fourth-order Runge-Kutta keeps
its full order.

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
    method: str = "rk4"          # "rk4" or "adaptive"
    rtol: float = 1e-8
    atol: float = 1e-10
    max_steps: int = 2_000_000
    contractivity_check: str = "auto"   # "auto", "on", "off"
    contractivity_tol: float = 1e-6
    freeze: bool = False         # hold each segment at its midpoint value

    def __post_init__(self):
        if self.method not in ("rk4", "adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
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


def _rk4_step(ctx, t, h, tau, last_in_segment, frozen=None, t_stop=None):
    """One classical RK4 step; `t_stop` pins the final stage time to the
    exact segment edge so accumulated rounding never crosses a breakpoint."""
    if frozen is not None:
        k1 = frozen.apply(tau)
        k2 = frozen.apply(tau + 0.5 * h * k1)
        k3 = frozen.apply(tau + 0.5 * h * k2)
        k4 = frozen.apply(tau + h * k3)
        return tau + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    t4 = (t + h) if t_stop is None else t_stop
    k1 = generator_at(ctx, t, side=1).apply(tau)
    g_mid = generator_at(ctx, t + 0.5 * h, side=1)
    k2 = g_mid.apply(tau + 0.5 * h * k1)
    k3 = g_mid.apply(tau + 0.5 * h * k2)
    end_side = -1 if last_in_segment else 1
    k4 = generator_at(ctx, t4, side=end_side).apply(tau + h * k3)
    return tau + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve(ctx: GeneratorContext, rho0: np.ndarray, t_end: float,
           config: EvolutionConfig | None = None) -> EvolutionResult:
    """Propagate tau(0) = rho0 to time t_end."""
    if config is None:
        config = EvolutionConfig()
    dim = ctx.model.space.dim
    tau = np.array(rho0, dtype=complex)
    if tau.shape != (dim, dim):
        raise IntegrationError(f"initial matrix must be {dim}x{dim}")
    if t_end < 0:
        raise IntegrationError("t_end must be nonnegative")

    check = config.contractivity_check == "on" or (
        config.contractivity_check == "auto" and is_state(tau))

    static = config.freeze or context_is_piecewise_static(ctx)
    n_steps = 0
    max_abs_trace = abs(np.trace(tau))
    for lo, hi in ctx.segments(t_end):
        frozen = generator_at(ctx, 0.5 * (lo + hi)) if static else None
        if config.method == "rk4":
            count = max(1, int(np.ceil((hi - lo) / config.dt - 1e-12)))
            h = (hi - lo) / count
            for j in range(count):
                t = lo + j * h
                last = j == count - 1
                tau = _rk4_step(ctx, t, h, tau, last, frozen,
                                t_stop=hi if last else None)
                n_steps += 1
                if n_steps > config.max_steps:
                    raise IntegrationError("step budget exhausted")
        else:
            tau, n_steps = _adaptive_segment(ctx, tau, lo, hi, config,
                                             n_steps, frozen)
        tr = abs(np.trace(tau))
        max_abs_trace = max(max_abs_trace, tr)
        if check and tr > 1.0 + config.contractivity_tol:
            raise ContractivityError(
                f"|trace| = {tr:.12g} exceeds 1 at t = {hi:.6g}; the "
                "truncation is too small or the step too large")
    return EvolutionResult(final=tau, t_end=t_end, n_steps=n_steps,
                           trace=complex(np.trace(tau)),
                           max_abs_trace=max_abs_trace)


def _adaptive_segment(ctx, tau, lo, hi, config, n_steps, frozen=None):
    """Step doubling: compare one step of size h with two of size h/2."""
    t = lo
    h = min(config.dt, hi - lo)
    while t < hi - 1e-14 * max(1.0, hi):
        h = min(h, hi - t)
        last = (t + h >= hi - 1e-14 * max(1.0, hi))
        stop = hi if last else None
        big = _rk4_step(ctx, t, h, tau, last, frozen, t_stop=stop)
        half = _rk4_step(ctx, t, 0.5 * h, tau, False, frozen)
        small = _rk4_step(ctx, t + 0.5 * h, 0.5 * h, half, last, frozen,
                          t_stop=stop)
        err = np.max(np.abs(big - small)) / 15.0
        scale = config.atol + config.rtol * max(1.0, float(np.max(np.abs(small))))
        if err <= scale:
            # local extrapolation: the two half steps are already 4th order,
            # keep them without the Richardson correction to stay contractive
            tau = small
            t += h
            n_steps += 2
            if err < 0.25 * scale:
                h *= 2.0
        else:
            h *= max(0.25, 0.9 * (scale / err) ** 0.2)
        if n_steps > config.max_steps:
            raise IntegrationError("step budget exhausted")
    return tau, n_steps


def composition_check(ctx: GeneratorContext, rho0: np.ndarray, s: float,
                      t: float, config: EvolutionConfig | None = None) -> dict:
    """Compare one-shot propagation over [0, t] with propagation to s
    followed by propagation of the shifted problem over [0, t - s].

    Returns the entrywise deviation together with a step-halving error
    estimate of the one-shot run for scale.
    """
    if not 0.0 < s < t:
        raise ValueError("need 0 < s < t")
    if config is None:
        config = EvolutionConfig()
    one_shot = evolve(ctx, rho0, t, config).final
    mid = evolve(ctx, rho0, s, config).final
    two_leg = evolve(ctx.shifted(s), mid, t - s, config).final
    fine = replace(config, dt=0.5 * config.dt, contractivity_check="off")
    refined = evolve(ctx, rho0, t, fine).final
    return {
        "deviation": float(np.max(np.abs(one_shot - two_leg))),
        "step_halving_estimate": float(np.max(np.abs(one_shot - refined))),
        "one_shot": one_shot,
        "two_leg": two_leg,
    }
