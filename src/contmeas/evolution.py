"""Integration of the reduced evolution equation  d tau / dt = A_t[tau]
over [t_start, t_end], in absolute time, by classical RK4 on the smooth
segments between breakpoints (`signals.segments`), so propagation to s
and then on to t splits where the one-shot run does.

- `evolve`: the one propagation function, for a stack of any size.
- `rk4_stages`, `rk4_step`, `_walk`: the stages, the step and the
  segment walk, which `oracle.duality_check`'s backward pass shares.
- `contractivity`: where an "auto" contractivity check is decided.
- `composition_check`: the composition law, as a diagnostic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractivityError, IntegrationError
from .generator import (GeneratorContext, GeneratorStack,
                        context_is_piecewise_static, generator_at, relaid,
                        stage_generators)


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
        if self.contractivity_tol < 0:
            raise ValueError("contractivity_tol must be non-negative")


@dataclass
class EvolutionResult:
    """Final states (n, dim, dim), step count, traces and peak |trace|s
    (n,) of a propagation of a stack of n members."""

    final: np.ndarray
    n_steps: int
    trace: np.ndarray
    max_abs_trace: np.ndarray


def is_state(rho: np.ndarray, tol: float = 1e-9) -> bool:
    """Square, finite, and Hermitian, unit-trace, positive up to tol."""
    if (rho.ndim != 2 or rho.shape[0] != rho.shape[1]
            or not np.isfinite(rho).all()):
        return False
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        return False
    if abs(np.trace(rho) - 1.0) > tol:
        return False
    evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return bool(evals.min() > -tol)


def contractivity(config: EvolutionConfig, rho0: np.ndarray) -> str:
    """`config.contractivity_check` with "auto" decided: "on" when the
    complex array rho0 is a state, else "off".  A rho0 that is not finite
    raises IntegrationError, whatever the check."""
    if not np.isfinite(rho0).all():
        raise IntegrationError("initial matrix is not finite")
    if config.contractivity_check != "auto":
        return config.contractivity_check
    return "on" if is_state(rho0) else "off"


def step_count(start: float, stop: float, dt: float) -> int:
    """Number of equal steps of at most dt that cover the interval from
    start to stop, in either direction."""
    count = np.ceil(abs(stop - start) / dt - 1e-12)
    if count == np.inf:     # more than a float holds: beyond any budget
        raise IntegrationError("step budget exhausted")
    return max(1, int(count))


def rk4_stages(stack: GeneratorStack, start: float, stop: float,
               count: int):
    """Stage generators (start, middle, end) of `stack` for each of
    `count` equal RK4 steps from `start` to `stop`, in either direction;
    the end of one step is the start of the next.  The segment is read
    at its lower end, so the backward run reads the test functions and
    field window of the forward one.  When a step's later stages leave
    the stack's sectors, its earlier ones are `relaid` with them, so
    that all three act on one layout."""
    times = start + np.arange(2 * count + 1) * (0.5 * (stop - start) / count)
    times[-1] = stop
    stages = stage_generators(stack, times, min(start, stop))
    g0 = next(stages)
    for _ in range(count):
        sectored = stack.sectors is not None
        g_mid, g1 = next(stages), next(stages)
        if sectored and stack.sectors is None:
            g0, g_mid = relaid(g0), relaid(g_mid)
        yield g0, g_mid, g1
        g0 = g1


def step_constants(h: float, scalar: bool = False) -> tuple:
    """h/2, h, h/6 and 2 as `rk4_step` takes them: complex (1, 1, 1)
    arrays, or, for a Python complex state, Python complex numbers."""
    values = (0.5 * h, h, h / 6.0, 2.0)
    if scalar:
        return tuple(map(complex, values))
    return tuple(np.array(values, dtype=complex).reshape(4, 1, 1, 1))


def rk4_step(a0, a_mid, a1, constants, tau):
    """One classical RK4 step for d tau = a(tau), with the maps a0, a_mid
    and a1 at the start, middle and end of the step and the
    `step_constants` of its length h.

    k1 + 2 k2 + 2 k3 + k4 is summed left to right, as the textbook
    expression is, but as each stage finishes, so that k1 and k2 are
    freed early.  numpy takes a Python float factor as the complex
    h + 0j; a complex (1, 1, 1) array gives the same bits in about half
    the time on a 1x1 stack.  `2 k` stays a product: `k + k` ran 1.7x
    slower from dim 20 up."""
    half, h, sixth, two = constants
    k1 = a0(tau)
    k2 = a_mid(tau + half * k1)
    total = k1 + two * k2
    del k1
    k3 = a_mid(tau + half * k2)
    del k2
    total += two * k3
    total += a1(tau + h * k3)
    return tau + sixth * total


def _traces(tau, sectors=None) -> np.ndarray:
    """Trace of each member of a stack, held on `sectors` if given, or of
    a Python complex state."""
    if isinstance(tau, complex):
        return np.array([tau])
    if sectors is not None:
        return sectors.traces(tau)
    return np.array([np.trace(x) for x in tau])


def _walk(stack: GeneratorStack, segs, tau, config: EvolutionConfig,
          check: bool, steps):
    """RK4 over the segments `segs`, each a (start, stop) pair walked in
    either direction, from the state tau of `stack`'s members;
    `steps(start, stop, count)` gives the (start, middle, end) maps of
    each step of a segment.  Returns the final tau, the number of steps
    and each member's peak |trace|.

    A tau that is exactly zero off the model's sectors is held on them
    (`GeneratorStack.hold`) until a generator leaves them; it then goes
    to one block, before the step that generator is in, for the rest of
    the walk.  The final tau is the whole (n, dim, dim) stack either way.

    A segment whose steps would exceed `max_steps` raises IntegrationError
    before `steps` is asked for its generators.  At the end of each
    segment, a member that is no longer finite raises IntegrationError,
    and with `check` one whose |trace| exceeds 1 raises
    ContractivityError.
    """
    n_steps = 0
    scalar = isinstance(tau, complex)
    sectors = None if scalar else stack.model.operators.sectors
    if sectors is not None and sectors.holds(tau):
        tau = sectors.pack(tau)
    else:
        sectors = None
    stack.hold(sectors)
    try:
        peak = np.abs(_traces(tau, sectors))
        for start, stop in segs:
            count = step_count(start, stop, config.dt)
            if n_steps + count > config.max_steps:
                raise IntegrationError("step budget exhausted")
            constants = step_constants(abs(stop - start) / count, scalar)
            for a0, a_mid, a1 in steps(start, stop, count):
                if sectors is not None and stack.sectors is None:
                    tau, sectors = sectors.unpack(tau), None
                tau = rk4_step(a0, a_mid, a1, constants, tau)
            n_steps += count
            tr = np.abs(_traces(tau, sectors))
            if not (np.isfinite(tr).all() and np.isfinite(tau).all()):
                raise IntegrationError(f"non-finite state at t = {stop:.6g}; "
                                       "the step is too large")
            peak = np.maximum(peak, tr)
            over = tr > 1.0 + config.contractivity_tol
            if check and over.any():
                raise ContractivityError(
                    f"|trace| = {tr[over][0]:.12g} exceeds 1 at "
                    f"t = {stop:.6g}; the truncation is too small or the "
                    "step too large")
    finally:
        stack.hold(None)
    if sectors is not None:
        tau = sectors.unpack(tau)
    return tau, n_steps, peak


@np.errstate(over="ignore", invalid="ignore")
def evolve(stack: GeneratorStack, rho0: np.ndarray, t_end: float,
           config: EvolutionConfig | None = None,
           t_start: float = 0.0) -> EvolutionResult:
    """Propagate tau(t_start) = rho0 to time t_end under every member of
    `stack` at once, on the members' common segments, with the checks of
    `_walk`; numpy's overflow warnings are silenced in their favour.  A
    member whose own segments are the stack's gets exactly the final
    state of its one-member run.

    Each segment runs on its own generators (RK4 route), or, when the
    stack is piecewise static or `config.freeze` asks for it, on the one
    generator at its midpoint (frozen route).

    A one-member system-free run (1x1, no operators) holds its state as
    a Python complex, since numpy's per-call cost on one-element arrays
    was most of its time.  The bits are the same: the step's products
    are with real constants, where Python and numpy agree, and the
    generator's stays numpy's (`FrozenGenerator.apply`).
    """
    if config is None:
        config = EvolutionConfig()
    dim = stack.model.space.dim
    tau = np.array(rho0, dtype=complex)
    if tau.shape != (dim, dim):
        raise IntegrationError(f"initial matrix must be {dim}x{dim}")
    check = contractivity(config, tau) == "on"
    if not t_start <= t_end:
        raise IntegrationError("t_end must not precede t_start")

    if config.freeze or context_is_piecewise_static(stack):
        def steps(lo, hi, count):
            return itertools.repeat(
                (generator_at(stack, 0.5 * (lo + hi)).apply,) * 3, count)
    else:
        def steps(lo, hi, count):
            return ((g0.apply, g_mid.apply, g1.apply)
                    for g0, g_mid, g1 in rk4_stages(stack, lo, hi, count))

    # rebinding tau frees the (dim, dim) copy before the walk: kept alive
    # across it, it nearly tripled a dim-117 run's minor page faults
    if dim == len(stack) == 1 and not stack.model.operators.basis.shape[1]:
        tau = complex(tau[0, 0])
    else:
        tau = np.repeat(tau[None], len(stack), axis=0)
    tau, n_steps, peak = _walk(stack, stack.segments(t_end, start=t_start),
                               tau, config, check, steps)
    final = np.full((1, 1, 1), tau) if isinstance(tau, complex) else tau
    return EvolutionResult(final=final, n_steps=n_steps, trace=_traces(tau),
                           max_abs_trace=peak)


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
    one_shot = evolve(ctx, rho0, t, config).final[0]
    mid = evolve(ctx, rho0, s, config).final[0]
    two_leg = evolve(ctx, mid, t, config, t_start=s).final[0]
    fine = replace(config, dt=0.5 * config.dt, contractivity_check="off")
    refined = evolve(ctx, rho0, t, fine).final[0]
    return {
        "deviation": float(np.max(np.abs(one_shot - two_leg))),
        "step_halving_estimate": float(np.max(np.abs(one_shot - refined))),
        "one_shot": one_shot,
        "two_leg": two_leg,
    }
