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

Expanding B_i(lam) = R_i + (S lam)_i folds every drift and channel term
into two sparse operators, K_L acting from the left and K_R from the
right, plus one sandwich P_g tau P_g^dag per group of proportional channel
operators R_i = c_i P_g.  The model caches K, R_i and R_i^dag on one
sparse pattern and the groups once (`ModelSpec.operators`); each
assembly forms K_L and K_R^T as weighted sums on that pattern, and the
adjoint reuses both through a cached transposing permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import Constant, FieldProfile, TestFunction, segments


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

    def segments(self, t_end: float,
                 start: float = 0.0) -> list[tuple[float, float]]:
        """Smooth pieces of [start, t_end] of the whole generator, split
        where the field window or the test function jumps."""
        return segments(t_end, self.field, self.kappa, start=start)


def scalar_rate(obs: ObservableSpec, kappa: np.ndarray, t: float) -> complex:
    """State-independent scalar rate of the generator at time t:
    sum_i (s_i - 1)|b_i|^2 + i sum_a kappa_a c^a
    - (1/2) sum_ab kappa_a <h^a(t), h^b(t)> kappa_b."""
    kappa = np.asarray(kappa, dtype=float)
    s = obs.kernel_diagonal(kappa)
    acc = 0j
    for i in range(obs.d):
        if s[i] != 1.0:
            bv = obs.b[i].value(t)
            acc += (s[i] - 1.0) * abs(bv) ** 2
    for alpha in range(obs.m):
        if kappa[alpha] != 0:
            acc += 1j * kappa[alpha] * obs.c[alpha].value(t)
    if np.any(kappa):
        hvals = np.array([[obs.h[alpha][i].value(t)
                           for i in range(obs.d)] for alpha in range(obs.m)])
        acc -= 0.5 * (kappa @ (hvals.conj() @ hvals.T) @ kappa)
    return complex(acc)


def _act(x, scalar, left, right_t, sandwiches, weights) -> np.ndarray:
    """scalar x + left x + x right + sum_g weights_g (b_g (a_g x)^T)^T for
    sparse left, right_t = right^T and sandwich pairs (a_g, b_g); the
    scalar term stays a dense scaling."""
    out = scalar * x
    if left is not None:
        out += left @ x
        out += (right_t @ x.T).T
    for (a, b), w in zip(sandwiches, weights):
        out += w * (b @ (a @ x).T).T
    return out


class FrozenGenerator:
    """Generator coefficients at a fixed time, applied matrix-free as

        A[tau] = scalar tau + K_L tau + tau K_R + sum_g w_g P_g tau P_g^dag

    with the two fused drift operators
        K_L = K     + sum_i (w_left_i R_i + w_left_dag_i R_i^dag)
        K_R = K^dag + sum_i (w_right_i R_i + w_right_dag_i R_i^dag)
    and one sandwich per group g of proportional channel operators
    R_i = c_i P_g, with w_g = sum_{i in g} s_i |c_i|^2 (`ModelSpec.operators`
    holds the groups).  K_L and K_R^T are weighted sums of the cached basis
    on one sparse pattern, formed once per assembly; applying the
    generator costs one sparse product for each and two per group.

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
                 "s", "scalar", "w_group", "K_L", "K_R_t")

    def __init__(self, cache, lam, mu, r_plus, r_minus, s, rate):
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
        self.w_group = self.s @ cache.group_weights
        if cache.pattern.nnz:
            # basis rows are [K, R_i, R_i^dag], and
            # K_R^T = conj(K + sum_i conj(w_right_dag_i) R_i
            #              + conj(w_right_i) R_i^dag)
            one = np.ones(1)
            self.K_L = cache.matrix(np.concatenate(
                (one, self.w_left, self.w_left_dag)) @ cache.basis)
            self.K_R_t = cache.matrix(np.conj(np.concatenate(
                (one, np.conj(self.w_right_dag), np.conj(self.w_right)))
                @ cache.basis))
        else:
            self.K_L = self.K_R_t = None

    def apply(self, tau: np.ndarray) -> np.ndarray:
        return _act(tau, self.scalar, self.K_L, self.K_R_t,
                    self.cache.sandwich, self.w_group)

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        """Dual map under the pairing Tr(X tau):

            X -> scalar X + K_R X + X K_L + sum_g w_g P_g^dag X P_g,

        on the operators of `apply`, transposed by the cached permutation.
        """
        c = self.cache
        if self.K_L is None:
            left = right_t = None
        else:
            left = c.transpose(self.K_R_t.data)
            right_t = c.transpose(self.K_L.data)
        return _act(X, self.scalar, left, right_t, c.sandwich_adj,
                    self.w_group)


def generator_at(ctx: GeneratorContext, t: float, side: int = 1) -> FrozenGenerator:
    """Assemble the generator weights at time t; `side` as in `signals`."""
    lam = ctx.field.value(t, side)
    kappa = ctx.kappa.value(t, side)
    obs = ctx.observables
    if np.any(kappa):
        s = obs.kernel_diagonal(kappa)
        r_plus = obs.r_vector(kappa, t)
        r_minus = obs.r_vector(-kappa, t)
        rate = scalar_rate(obs, kappa, t)
    else:
        s = np.ones(obs.d, dtype=complex)
        r_plus = np.zeros(obs.d, dtype=complex)
        r_minus = np.zeros(obs.d, dtype=complex)
        rate = 0j
    mu = ctx.model.S @ lam
    return FrozenGenerator(ctx.model.operators, lam, mu, r_plus, r_minus, s,
                           rate)


def context_is_piecewise_static(ctx: GeneratorContext) -> bool:
    """True when all coefficients are constant between breakpoints, so a
    frozen generator built at a segment midpoint is exact on the segment."""
    sigs = ctx.field.signals + ctx.observables.signals
    return all(isinstance(s, Constant) for s in sigs)
