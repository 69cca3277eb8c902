"""From characteristic functions to measured statistics.

The characteristic function of a batch of increments is obtained by one
propagation per point of a kappa grid: each grid point defines a
piecewise-constant test function (the kappa value held on its time
interval, for its observable), the evolution is run to the final
breakpoint, and the trace of the result is the characteristic value.

Counting observables have integer outcomes, so their marginal is
recovered by a discrete Fourier transform over kappa in [0, 2 pi).
Diffusive (homodyne) observables have densities, recovered by a
truncated continuous Fourier transform; the tail of the characteristic
function must have decayed at the truncation edge, and the x window must
be narrower than the period 2 pi / (kappa spacing) of the quadrature.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, InversionQualityError, ValidationError
from .evolution import EvolutionConfig, evolve
from .generator import GeneratorContext
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import FieldProfile, TestFunction

COUNTING_IMAG_TOL = 1e-6
NEGATIVE_PROB_TOL = 1e-7
DECAY_TOL = 1e-8


@dataclass(frozen=True)
class GridAxis:
    """One increment: observable `observable` (1-based) accumulated over
    time interval number `interval` of the grid, sampled at `samples`."""

    interval: int
    observable: int
    kind: str          # "counting" or "diffusive"
    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if self.kind not in ("counting", "diffusive"):
            raise ValidationError(f"unknown axis kind {self.kind!r}")


def counting_axis(interval: int, observable: int, n_points: int = 256) -> GridAxis:
    """Uniform kappa grid on [0, 2 pi), endpoint excluded; n a power of two."""
    if n_points < 2 or n_points & (n_points - 1):
        raise ValidationError("n_points must be a power of two")
    samples = 2.0 * np.pi * np.arange(n_points) / n_points
    return GridAxis(interval, observable, "counting", samples)


def diffusive_axis(interval: int, observable: int, kappa_max: float,
                   n_points: int = 256) -> GridAxis:
    """Symmetric kappa grid on [-kappa_max, kappa_max], endpoints included."""
    if kappa_max <= 0:
        raise ValidationError("kappa_max must be positive")
    if n_points < 3 or n_points % 2 == 0:
        n_points += 1
    samples = np.linspace(-kappa_max, kappa_max, n_points)
    return GridAxis(interval, observable, "diffusive", samples)


@dataclass(frozen=True)
class IncrementGrid:
    """Time breakpoints 0 = t_0 < ... < t_L and one axis per increment."""

    breakpoints: tuple
    axes: tuple

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        if len(bp) < 2 or bp[0] != 0.0:
            raise ValidationError("breakpoints must start at 0 and contain "
                                  "at least one interval")
        if any(hi <= lo for lo, hi in zip(bp[:-1], bp[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        for ax in self.axes:
            if not 0 <= ax.interval < len(bp) - 1:
                raise ValidationError(f"axis interval {ax.interval} out of range")

    @property
    def t_end(self) -> float:
        return self.breakpoints[-1]

    def shape(self):
        return tuple(len(ax.samples) for ax in self.axes)

    def test_function(self, m: int, kappa_values) -> TestFunction:
        """Piecewise-constant test function with component
        (axis.observable - 1) equal to kappa on the axis interval."""
        n_int = len(self.breakpoints) - 1
        values = np.zeros((n_int, m))
        for ax, kap in zip(self.axes, kappa_values):
            values[ax.interval, ax.observable - 1] += kap
        return TestFunction(np.asarray(self.breakpoints), values)


def joint_charfunc(model: ModelSpec, obs: ObservableSpec, field: FieldProfile,
                   rho0: np.ndarray, grid: IncrementGrid,
                   config: EvolutionConfig | None = None) -> np.ndarray:
    """Characteristic function on the full grid, one propagation per point."""
    shape = grid.shape()
    out = np.empty(shape, dtype=complex)
    for idx in itertools.product(*(range(n) for n in shape)):
        kappas = [ax.samples[i] for ax, i in zip(grid.axes, idx)]
        k = grid.test_function(obs.m, kappas)
        ctx = GeneratorContext(model=model, observables=obs, field=field,
                               kappa=k)
        out[idx] = evolve(ctx, rho0, grid.t_end, config).trace
    return out


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


def invert_homodyne(kappas: np.ndarray, phi: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """Density p(x) = (1/2 pi) int phi(kappa) exp(-i kappa x) d kappa
    by trapezoid quadrature on the symmetric kappa grid.

    The quadrature makes the result periodic in x with period
    2 pi / (kappa spacing), so the x window must be narrower than that.
    """
    kappas = np.asarray(kappas, dtype=float)
    phi = np.asarray(phi, dtype=complex)
    x = np.asarray(x, dtype=float)
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
    residue = float(np.max(np.abs(vals.imag)))
    if residue > COUNTING_IMAG_TOL:
        raise InversionQualityError(
            f"imaginary residue {residue:.3e} in homodyne inversion")
    return vals.real


def counting_distribution(model: ModelSpec, obs: ObservableSpec,
                          field: FieldProfile, rho0: np.ndarray,
                          observable: int, t_end: float, n_points: int = 256,
                          config: EvolutionConfig | None = None) -> np.ndarray:
    axis = counting_axis(0, observable, n_points)
    grid = IncrementGrid((0.0, float(t_end)), (axis,))
    phi = joint_charfunc(model, obs, field, rho0, grid, config)
    return invert_counting(phi)


def homodyne_distribution(model: ModelSpec, obs: ObservableSpec,
                          field: FieldProfile, rho0: np.ndarray,
                          observable: int, t_end: float, kappa_max: float,
                          x: np.ndarray, n_points: int = 257,
                          config: EvolutionConfig | None = None) -> np.ndarray:
    axis = diffusive_axis(0, observable, kappa_max, n_points)
    grid = IncrementGrid((0.0, float(t_end)), (axis,))
    phi = joint_charfunc(model, obs, field, rho0, grid, config)
    return invert_homodyne(axis.samples, phi, x)
