"""Time-dependent generator of the reduced characteristic-operator
evolution.

At each time the generator is assembled from four pieces: the drift
K(lambda, r) with the field value lambda(t) and the observable vector
r(+/-kappa; t) folded in, displaced channel operators B_i(lambda), the
unimodular kernel diagonal s_i(kappa), and a state-independent scalar
rate.  Applied to a matrix tau it reads

    A[tau] = K(lam, r(-kappa)) tau + tau K(lam, r(+kappa))^dagger
             + sum_i s_i(kappa) B_i(lam) tau B_i(lam)^dagger
             + c(kappa; t) tau.

With kappa identically zero this is a Lindblad master equation in the
interaction picture; nonzero kappa tilts it into the characteristic
direction of the chosen observables.

Expanding B_i(lam) = R_i + (S lam)_i reduces every application to a fixed
set of sparse products K tau, R_i tau, tau R_i^dag, R_i tau R_i^dag with
time-dependent scalar weights, so the sparse operators are built once per
context and only the weights are recomputed per integrator stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import Constant, FieldProfile, TestFunction, segments


class _OperatorCache:
    """Sparse matrices of the model, shared by all frozen generators."""

    __slots__ = ("K", "K_dag", "R", "R_dag", "R_nonzero", "K_nonzero", "dim")

    def __init__(self, model: ModelSpec):
        self.K_nonzero = model.K.nnz > 0
        self.K = model.K.matrix
        self.K_dag = model.K.matrix.conj().T.tocsr()
        self.R = [op.matrix for op in model.R]
        self.R_dag = [op.matrix.conj().T.tocsr() for op in model.R]
        self.R_nonzero = [op.nnz > 0 for op in model.R]
        self.dim = model.space.dim


@dataclass(frozen=True)
class GeneratorContext:
    """Everything needed to evaluate the generator at a point in time."""

    model: ModelSpec
    observables: ObservableSpec
    field: FieldProfile
    kappa: TestFunction

    def __post_init__(self):
        if self.observables.d != self.model.d:
            raise ValidationError("observables and model disagree on the "
                                  "number of channels")
        if self.field.d != self.model.d:
            raise ValidationError(f"field profile needs {self.model.d} channels")
        if self.kappa.m != self.observables.m:
            raise ValidationError(f"test function needs {self.observables.m} "
                                  "components")
        object.__setattr__(self, "_cache", _OperatorCache(self.model))

    def segments(self, t_end: float) -> list[tuple[float, float]]:
        """Smooth pieces of [0, t_end] of the whole generator."""
        return segments(t_end, self.field, self.kappa, self.observables)

    def shifted(self, s: float) -> "GeneratorContext":
        return GeneratorContext(
            model=self.model,
            observables=self.observables.shifted(s),
            field=self.field.shifted(s),
            kappa=self.kappa.shifted(s))


def scalar_rate(obs: ObservableSpec, kappa: np.ndarray, t: float,
                side: int = 1) -> complex:
    """State-independent scalar rate of the generator at time t:
    sum_i (s_i - 1)|b_i|^2 + i sum_a kappa_a c^a
    - (1/2) sum_ab kappa_a <h^a(t), h^b(t)> kappa_b."""
    kappa = np.asarray(kappa, dtype=float)
    s = obs.kernel_diagonal(kappa)
    acc = 0j
    for i in range(obs.d):
        if s[i] != 1.0:
            bv = obs.b[i].value(t, side)
            acc += (s[i] - 1.0) * abs(bv) ** 2
    for alpha in range(obs.m):
        if kappa[alpha] != 0:
            acc += 1j * kappa[alpha] * obs.c[alpha].value(t, side)
    if np.any(kappa):
        hvals = np.array([[obs.h[alpha][i].value(t, side)
                           for i in range(obs.d)] for alpha in range(obs.m)])
        acc -= 0.5 * (kappa @ (hvals.conj() @ hvals.T) @ kappa)
    return complex(acc)


def _rmul(M, X: np.ndarray) -> np.ndarray:
    """X @ M for sparse M without densifying M."""
    return (M.T @ X.T).T


class FrozenGenerator:
    """Generator coefficients at a fixed time, applied matrix-free.

    Weight layout (mu = S lam, r_pm = r(+/-kappa; t)):
        R_i tau           : conj(r_minus_i) + s_i conj(mu_i)
        R_i^dag tau       : -mu_i
        tau R_i           : -conj(mu_i)
        tau R_i^dag       : r_plus_i + s_i mu_i
        R_i tau R_i^dag   : s_i
        tau               : c_left + conj(c_right) + sum_i s_i |mu_i|^2 + rate
    with c_left/right = -|lam|^2/2 + sum_i conj(r_mp_i) mu_i the scalar
    parts of the two drift operators.
    """

    __slots__ = ("cache", "w_left", "w_left_dag", "w_right", "w_right_dag",
                 "s", "scalar")

    def __init__(self, cache: _OperatorCache, lam, mu, r_plus, r_minus, s,
                 rate):
        self.cache = cache
        self.s = np.asarray(s, dtype=complex)
        mu = np.asarray(mu, dtype=complex)
        self.w_left = np.conj(r_minus) + self.s * np.conj(mu)
        self.w_left_dag = -mu
        self.w_right = -np.conj(mu)
        self.w_right_dag = r_plus + self.s * mu
        norm2 = float(np.real(np.vdot(lam, lam)))
        c_left = -0.5 * norm2 + complex(np.conj(r_minus) @ mu)
        c_right_conj = -0.5 * norm2 + complex(r_plus @ np.conj(mu))
        self.scalar = (c_left + c_right_conj
                       + complex(self.s @ (np.abs(mu) ** 2)) + rate)

    def apply(self, tau: np.ndarray) -> np.ndarray:
        c = self.cache
        if c.K_nonzero:
            out = c.K @ tau
            out += _rmul(c.K_dag, tau)
        else:
            out = np.zeros_like(tau)
        if self.scalar != 0:
            out += self.scalar * tau
        for i in range(len(c.R)):
            if c.R_nonzero[i]:
                Rt = c.R[i] @ tau
                if self.s[i] != 0:
                    out += self.s[i] * _rmul(c.R_dag[i], Rt)
                if self.w_left[i] != 0:
                    out += self.w_left[i] * Rt
                if self.w_left_dag[i] != 0:
                    out += self.w_left_dag[i] * (c.R_dag[i] @ tau)
                if self.w_right[i] != 0:
                    out += self.w_right[i] * _rmul(c.R[i], tau)
                if self.w_right_dag[i] != 0:
                    out += self.w_right_dag[i] * _rmul(c.R_dag[i], tau)
        return out

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        """Dual map under the pairing Tr(X tau):

            X -> K(lam, r_+)^dag X + X K(lam, r_-)
                 + sum_i s_i B_i^dag X B_i + scalar * X.
        """
        c = self.cache
        if c.K_nonzero:
            out = c.K_dag @ X
            out += _rmul(c.K, X)
        else:
            out = np.zeros_like(X)
        if self.scalar != 0:
            out += self.scalar * X
        for i in range(len(c.R)):
            if c.R_nonzero[i]:
                XR = _rmul(c.R[i], X)
                if self.s[i] != 0:
                    out += self.s[i] * (c.R_dag[i] @ XR)
                if self.w_left[i] != 0:
                    out += self.w_left[i] * XR
                if self.w_left_dag[i] != 0:
                    out += self.w_left_dag[i] * _rmul(c.R_dag[i], X)
                if self.w_right[i] != 0:
                    out += self.w_right[i] * (c.R[i] @ X)
                if self.w_right_dag[i] != 0:
                    out += self.w_right_dag[i] * (c.R_dag[i] @ X)
        return out


def generator_at(ctx: GeneratorContext, t: float, side: int = 1) -> FrozenGenerator:
    """Assemble the generator weights at time t."""
    lam = ctx.field.value(t, side)
    kappa = ctx.kappa.value(t, side)
    obs = ctx.observables
    if np.any(kappa):
        s = obs.kernel_diagonal(kappa)
        r_plus = obs.r_vector(kappa, t, side)
        r_minus = obs.r_vector(-kappa, t, side)
        rate = scalar_rate(obs, kappa, t, side)
    else:
        s = np.ones(obs.d, dtype=complex)
        r_plus = np.zeros(obs.d, dtype=complex)
        r_minus = np.zeros(obs.d, dtype=complex)
        rate = 0j
    mu = ctx.model.S @ lam
    return FrozenGenerator(ctx._cache, lam, mu, r_plus, r_minus, s, rate)


def context_is_piecewise_static(ctx: GeneratorContext) -> bool:
    """True when all coefficients are constant between breakpoints, so a
    frozen generator built at a segment midpoint is exact on the segment."""
    sigs = ctx.field.signals + ctx.observables.signals
    return all(isinstance(s, Constant) for s in sigs)
