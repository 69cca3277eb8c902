"""From characteristic functions to measured statistics.

A kappa sweep is a list of piecewise-constant test functions; the trace
of each one's propagation to the final time is its characteristic value.
Every propagation is one call of `evolution.evolve` on a
`generator.GeneratorStack` of test functions, which gives each member
exactly the value of its own one-member run.  The test functions that
share their segments form one group, on either route.  With a
time-dependent generator a group is one stack and one propagation, or
several where its states would exceed STACK_BUDGET entries; on the
frozen route of a piecewise-static generator each member is propagated
alone, on its one-member stack from `GeneratorStack.split`, and the
group assembles each segment's midpoint generator once for all its
members.  For a marginal, `on_interval` builds one test function per
kappa sample, holding it on [0, t_end] for one observable; joint
statistics over several windows come from passing multi-interval test
functions instead.

Counting observables have integer outcomes, so their marginal is
recovered by a discrete Fourier transform over kappa in [0, 2 pi).
Diffusive (homodyne) observables have densities, recovered by a
truncated continuous Fourier transform; the tail of the characteristic
function must have decayed at the truncation edge, and the x window must
be narrower than the period 2 pi / (kappa spacing) of the quadrature.
A measured record is real, so phi(-kappa) = conj phi(kappa): a homodyne
marginal propagates only the kappa >= 0 half of its grid and reads the
other half as the conjugate.  This is exact when the initial state is
Hermitian and the classical offsets c^alpha are real; the first is
checked here, the second by `ObservableSpec`.

Each marginal first checks that its observable is one it can invert: a
counting observable has non-negative integer eigenvalues and no
quadrature profile, a diffusive one zero eigenvalues and a nonzero
profile.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .errors import AliasingError, InversionQualityError, ValidationError
from .evolution import EvolutionConfig, contractivity, evolve
from .generator import GeneratorStack, context_is_piecewise_static
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import FieldProfile, TestFunction, segments

COUNTING_IMAG_TOL = 1e-6
NEGATIVE_PROB_TOL = 1e-7
DECAY_TOL = 1e-8
# (dim, dim) entries of the states of one stack on the RK4 route, and at
# least one member: the state, the RK4 temporaries and the workspace of
# the generator grow with it, about 3 MB a member at dim 117.  Holds the
# 129 members of the shipped homodyne grid at dim 20 in one stack
STACK_BUDGET = 1 << 16


def counting_axis(n_points: int = 256) -> np.ndarray:
    """Uniform kappa samples on [0, 2 pi), endpoint excluded; n a power
    of two."""
    if n_points < 2 or n_points & (n_points - 1):
        raise ValidationError("n_points must be a power of two")
    return 2.0 * np.pi * np.arange(n_points) / n_points


def diffusive_axis(kappa_max: float, n_points: int = 256) -> np.ndarray:
    """Symmetric kappa samples on [-kappa_max, kappa_max], endpoints
    included; a count below 3 is raised to 3 and an even count to the
    next odd one, so kappa = 0 is always a sample.  The negative half is
    the mirror of the non-negative one, so sample j is exactly minus
    sample n-1-j."""
    if kappa_max <= 0:
        raise ValidationError("kappa_max must be positive")
    half = np.linspace(0.0, kappa_max, max(n_points, 3) // 2 + 1)
    return np.concatenate((-half[:0:-1], half))


def on_interval(m: int, observable: int, t_end: float,
                kappas) -> list[TestFunction]:
    """One test function per kappa: component `observable` (1-based) of m
    held at kappa on [0, t_end], every other component zero."""
    values = np.zeros((len(kappas), 1, m))
    values[:, 0, observable - 1] = kappas
    return [TestFunction((0.0, float(t_end)), v) for v in values]


def joint_charfunc(model: ModelSpec, obs: ObservableSpec, field: FieldProfile,
                   rho0: np.ndarray, kappas: list[TestFunction],
                   t_end: float, config: EvolutionConfig | None = None,
                   finals: list | None = None) -> np.ndarray:
    """Characteristic values at t_end of a sequence of test functions, as a
    1-D complex array in their order.  Each test function's final state is
    appended to `finals`, in the same order, when it is given.

    The test functions with equal segments form one group, one stack, and
    each gets exactly the value of its one-member run.  On the RK4 route a
    group is one `evolve` call per part of `GeneratorStack.split` of at
    most STACK_BUDGET (dim, dim) entries, so that the sweep's memory does
    not grow with its number of points.  On the frozen route (a
    piecewise-static generator, or `config.freeze`) each member of a
    group is one `evolve` call on its one-member part, and the group
    assembles its generator at each segment midpoint once for all of
    them.  A `contractivity_check` of "auto" is decided once for the
    sweep.
    """
    if config is None:
        config = EvolutionConfig()
    config = replace(config, contractivity_check=contractivity(
        config, np.asarray(rho0, dtype=complex)))
    stack = GeneratorStack(model, obs, field, kappas)
    frozen = config.freeze or context_is_piecewise_static(stack)
    size = 1 if frozen else max(1, STACK_BUDGET // model.space.dim ** 2)
    groups = {}
    for j, kappa in enumerate(kappas):
        groups.setdefault(tuple(segments(t_end, field, kappa)), []).append(j)
    out = np.empty(len(kappas), dtype=complex)
    states = {}
    for members in groups.values():
        group = GeneratorStack(model, obs, field, [kappas[j] for j in members])
        # frozen: one run per member, which the tracer test pins until
        # ROADMAP item 1; stacking them is then only a larger size.  A
        # part's stack is gone before the next part's run starts
        for part in group.split(size):
            res = evolve(part, rho0, t_end, config)
            rows = members[part.row:part.row + len(part)]
            out[rows] = res.trace
            if finals is not None:
                states.update(zip(rows, res.final))
    if finals is not None:
        finals.extend(states[j] for j in range(len(kappas)))
    return out


def _check_observable(obs: ObservableSpec, observable: int, counting: bool):
    """Raise ValidationError unless observable `observable` (1-based) is
    one the inversion can read: a counting observable has non-negative
    integer eigenvalues and no quadrature profile, a diffusive one zero
    eigenvalues and a nonzero profile."""
    ev = obs.eigenvalues[observable - 1]
    profile = any(abs(h.amplitude) > obs.CHECK_TOL
                  for h in obs.h[observable - 1])
    if counting and (profile or (ev < 0).any() or (ev != np.round(ev)).any()):
        raise ValidationError(
            f"observable {observable} is not a counting observable: counts "
            "need non-negative integer eigenvalues and no quadrature profile")
    if not counting and (ev.any() or not profile):
        raise ValidationError(
            f"observable {observable} is not a diffusive observable: a "
            "homodyne density needs zero eigenvalues and a nonzero "
            "quadrature profile")


# -- inversion ----------------------------------------------------------------

def invert_counting(phi: np.ndarray) -> np.ndarray:
    """Counting probabilities from characteristic values on the uniform
    grid kappa_j = 2 pi j / N:  p(n) = (1/N) sum_j phi_j exp(-i n kappa_j)."""
    phi = np.asarray(phi, dtype=complex)
    n = len(phi)
    p = np.fft.fft(phi) / n
    imag_residue = float(np.max(np.abs(p.imag)))
    if imag_residue > COUNTING_IMAG_TOL:
        raise InversionQualityError(
            f"imaginary residue {imag_residue:.3e} in counting inversion; "
            "the characteristic function is inconsistent")
    p = p.real
    if p.min() < -NEGATIVE_PROB_TOL:
        raise InversionQualityError(
            f"probability {p.min():.3e} below tolerance in counting inversion")
    if p.min() < 0:
        if p.min() < -1e-12:
            warnings.warn("clipping small negative counting probabilities",
                          RuntimeWarning)
        p = np.clip(p, 0.0, None)
    return p


@np.errstate(over="ignore", invalid="ignore")
def invert_homodyne(kappas: np.ndarray, phi: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Density p(x) = (1/2 pi) int phi(kappa) exp(-i kappa x) d kappa
    by trapezoid quadrature on the symmetric kappa grid.

    The quadrature makes the result periodic in x with period
    2 pi / (kappa spacing), so the x window must be narrower than that.
    A non-finite x grid, or a density that overflows to a non-finite
    value, raises InversionQualityError; numpy's warnings on the way
    there are silenced in its favour.
    """
    kappas = np.asarray(kappas, dtype=float)
    phi = np.asarray(phi, dtype=complex)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise InversionQualityError("x grid is not finite")
    edge = max(abs(phi[0]), abs(phi[-1]))
    if edge > DECAY_TOL:
        raise AliasingError(
            f"characteristic function has not decayed at the grid edge "
            f"(|phi| = {edge:.3e}); increase kappa_max")
    period = 2.0 * np.pi * (len(kappas) - 1) / (kappas[-1] - kappas[0])
    width = float(np.ptp(x)) if x.size else 0.0
    if width >= period:
        raise AliasingError(
            f"x window of width {width:.6g} is not narrower than the "
            f"period 2 pi / dkappa = {period:.6g}; raise n_points or "
            f"narrow the x window")
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    kernel = np.exp(-1j * np.outer(x, kappas))
    vals = trapezoid(kernel * phi[None, :], kappas, axis=1) / (2.0 * np.pi)
    if not np.isfinite(vals).all():
        raise InversionQualityError("homodyne density is not finite; the "
                                    "x window is too far out")
    residue = float(np.max(np.abs(vals.imag)))
    if residue > COUNTING_IMAG_TOL:
        raise InversionQualityError(
            f"imaginary residue {residue:.3e} in homodyne inversion")
    return vals.real


def counting_distribution(model: ModelSpec, obs: ObservableSpec,
                          field: FieldProfile, rho0: np.ndarray,
                          observable: int, t_end: float, n_points: int = 256,
                          config: EvolutionConfig | None = None) -> np.ndarray:
    """Counting probabilities p(0..n_points-1) of one counting observable
    at t_end; an eigenvalue at or above n_points, whose counts would wrap
    onto n mod n_points, is refused."""
    _check_observable(obs, observable, counting=True)
    top = obs.eigenvalues[observable - 1].max()
    if top >= n_points:
        raise ValidationError(f"observable {observable} has eigenvalue "
                              f"{top:g} >= n_points; raise n_points")
    kappas = on_interval(obs.m, observable, t_end, counting_axis(n_points))
    return invert_counting(joint_charfunc(model, obs, field, rho0, kappas,
                                          t_end, config))


def homodyne_distribution(model: ModelSpec, obs: ObservableSpec,
                          field: FieldProfile, rho0: np.ndarray,
                          observable: int, t_end: float, kappa_max: float,
                          x: np.ndarray, n_points: int = 257,
                          config: EvolutionConfig | None = None,
                          finals: list | None = None) -> np.ndarray:
    """Density of one diffusive observable over x at t_end.  Only the
    kappa >= 0 half of `diffusive_axis(kappa_max, n_points)` is
    propagated; phi(-kappa) is taken as conj phi(kappa), which is exact
    for a Hermitian rho0 (checked) and real classical offsets (checked
    by `ObservableSpec`).  The final states of the propagated half are
    appended to `finals` when it is given; the first, at kappa = 0, is
    the plain run's."""
    _check_observable(obs, observable, counting=False)
    rho0 = np.asarray(rho0)
    dev = float(np.max(np.abs(rho0 - rho0.conj().T)))
    if dev > ObservableSpec.CHECK_TOL:
        raise ValidationError(
            f"initial state is not Hermitian: max |rho0 - rho0^dag| = {dev:.3e}")
    samples = diffusive_axis(kappa_max, n_points)
    mid = len(samples) // 2
    kappas = on_interval(obs.m, observable, t_end, samples[mid:])
    half = joint_charfunc(model, obs, field, rho0, kappas, t_end, config,
                          finals)
    phi = np.concatenate((np.conj(half[:0:-1]), half))
    return invert_homodyne(samples, phi, x)
