"""Time-dependent generator of the reduced characteristic-operator
evolution.

The generator at time t is built from four pieces: the drift
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
generator forms K_L and K_R^T as weighted sums on that pattern, and the
adjoint reuses both through a cached transposing permutation.

`stage_generators` assembles the generators at a whole run of times at
once: the signals, s, r(+/-kappa), the scalar rate and the weights are
array expressions over a block of times, and each generator's K_L and
K_R^T are formed only when it is handed out.  `generator_at` is its
one-time case.  `stacked_stage_generators` does the same for the members
of a `GeneratorStack` together: the weights of all members at a block of
times in one pass, and at each time one block-diagonal K_L and K_R^T on
the cached pattern tiled once per member.
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


def scalar_rate(obs: ObservableSpec, kappa: np.ndarray, t):
    """State-independent scalar rate of the generator at time t:
    sum_i (s_i - 1)|b_i|^2 + i sum_a kappa_a c^a
    - (1/2) sum_ab kappa_a <h^a(t), h^b(t)> kappa_b,
    or one rate per row for kappas of shape (n, m) and n times."""
    return obs.coefficients(kappa, t)[3]


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

    __slots__ = ("cache", "s", "scalar", "w_group", "left", "right", "K_L",
                 "K_R_t")

    def __init__(self, cache, s, scalar, w_group, left, right):
        self.cache = cache
        self.s = s
        self.scalar = scalar
        self.w_group = w_group
        self.left = left
        self.right = right
        if cache.pattern.nnz:
            self.K_L = cache.matrix(left @ cache.basis)
            self.K_R_t = cache.matrix(np.conj(right @ cache.basis))
        else:
            self.K_L = self.K_R_t = None

    @property
    def w_left(self) -> np.ndarray:
        return self.left[1:1 + self.s.size]

    @property
    def w_left_dag(self) -> np.ndarray:
        return self.left[1 + self.s.size:]

    @property
    def w_right(self) -> np.ndarray:
        return np.conj(self.right[1 + self.s.size:])

    @property
    def w_right_dag(self) -> np.ndarray:
        return np.conj(self.right[1:1 + self.s.size])

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


def _act_stack(X, scalar, left, right_t, sandwiches, weights) -> np.ndarray:
    """`_act` on every member of an (n, dim, dim) stack at once, with one
    scalar and one row of group weights per member and block-diagonal
    `left` and `right_t`; each sandwich is two sparse products over the
    members side by side.  Every entry is formed by the operations, in the
    order, that `_act` uses for that member alone."""
    n, dim, _ = X.shape
    out = scalar[:, None, None] * X
    if left is not None:
        out += (left @ X.reshape(n * dim, dim)).reshape(n, dim, dim)
        out += (right_t @ X.transpose(0, 2, 1).reshape(n * dim, dim)
                ).reshape(n, dim, dim).transpose(0, 2, 1)
    side = X.transpose(1, 0, 2).reshape(dim, n * dim)   # X_1 ... X_n
    for (a, b), w in zip(sandwiches, weights.T):
        # (a X_1)^T ... (a X_n)^T side by side, then b times each
        ax_t = (a @ side).reshape(dim, n, dim).transpose(2, 1, 0)
        bax_t = b @ ax_t.reshape(dim, n * dim)
        out += w[:, None, None] * bax_t.reshape(dim, n, dim).transpose(1, 2, 0)
    return out


class GeneratorStack:
    """The generators of several test functions on one model, observable
    family and field (one `GeneratorContext` each), propagated together.

    The drift operators of all members at one time form one
    block-diagonal matrix on the model's operator pattern tiled once per
    member; the tiled pattern is built here, once per stack.
    """

    def __init__(self, contexts: list[GeneratorContext]):
        first = contexts[0]
        self.model = first.model
        self.observables = first.observables
        self.field = first.field
        self.kappas = [ctx.kappa for ctx in contexts]
        self.pattern = self.model.operators.tiled(len(contexts))

    def __len__(self) -> int:
        return len(self.kappas)

    def segments(self, t_end: float) -> list[tuple[float, float]]:
        """Smooth pieces of [0, t_end] of every member's generator."""
        return segments(t_end, self.field, *self.kappas)


class StackedGenerator:
    """The generators of a `GeneratorStack`'s members at one time, applied
    to an (n, dim, dim) stack: slice k of the result is member k's
    `FrozenGenerator.apply` of slice k, entry for entry.  K_L and K_R^T of
    all members are one block-diagonal sparse matrix each."""

    __slots__ = ("sandwich", "scalar", "w_group", "K_L", "K_R_t")

    def __init__(self, stack: GeneratorStack, scalar, w_group, left, right):
        cache = stack.model.operators
        self.sandwich = cache.sandwich
        self.scalar = scalar
        self.w_group = w_group
        if cache.pattern.nnz:
            # one vector-matrix product per member, as FrozenGenerator
            # forms it; a matrix-matrix product would round differently
            self.K_L = cache.matrix(
                np.matmul(left[:, None], cache.basis).ravel(), stack.pattern)
            self.K_R_t = cache.matrix(
                np.conj(np.matmul(right[:, None], cache.basis)).ravel(),
                stack.pattern)
        else:
            self.K_L = self.K_R_t = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        return _act_stack(X, self.scalar, self.K_L, self.K_R_t,
                          self.sandwich, self.w_group)


# stage times whose weights are formed together; the weight rows of a
# block are all a segment holds at once, whatever its length
BLOCK = 64


def _weight_rows(model: ModelSpec, obs: ObservableSpec, lam: np.ndarray,
                 kappa: np.ndarray, t: np.ndarray):
    """s, scalar, w_group and the left and right basis weights (see
    `FrozenGenerator`) for the field values `lam` and test-function values
    `kappa` at the times t, one row per time."""
    s, r_plus, r_minus, rate = obs.coefficients(kappa, t)
    # mu = S lam and w_group = s G as plain sums, so that each row comes
    # out the same however many rows there are
    mu = (lam[:, None, :] * model.S).sum(axis=-1)
    w_group = (s[:, :, None] * model.operators.group_weights).sum(axis=-2)
    r_minus_conj = np.conj(r_minus)
    mu_conj = np.conj(mu)
    half_norm2 = 0.5 * (np.abs(lam) ** 2).sum(axis=-1)
    scalar = (-half_norm2 + (r_minus_conj * mu).sum(axis=-1)
              + (-half_norm2 + (r_plus * mu_conj).sum(axis=-1))
              + (s * np.abs(mu) ** 2).sum(axis=-1) + rate)
    one = np.ones((len(t), 1))
    left = np.concatenate((one, r_minus_conj + s * mu_conj, -mu), axis=1)
    right = np.concatenate((one, np.conj(r_plus + s * mu), -mu), axis=1)
    return s, scalar, w_group, left, right


def stage_generators(ctx: GeneratorContext, times, sides):
    """Yield the generator at each time of `times`, in order, taken from
    the side of the matching entry of `sides` (as in `signals`).

    The weights are formed for BLOCK times at a time with array
    operations; each generator's two sparse drift operators are formed
    only when it is yielded.
    """
    times = np.asarray(times, dtype=float)
    sides = np.asarray(sides)
    cache = ctx.model.operators
    for lo in range(0, len(times), BLOCK):
        t, side = times[lo:lo + BLOCK], sides[lo:lo + BLOCK]
        s, scalar, w_group, left, right = _weight_rows(
            ctx.model, ctx.observables, ctx.field.value(t, side),
            ctx.kappa.value(t, side), t)
        for k in range(len(scalar)):
            yield FrozenGenerator(cache, s[k], scalar[k], w_group[k],
                                  left[k], right[k])


def stacked_stage_generators(stack: GeneratorStack, times, sides):
    """`stage_generators` for all members of `stack` together: the weights
    of every member are formed at once, BLOCK times at a time, and one
    `StackedGenerator` is yielded per time."""
    times = np.asarray(times, dtype=float)
    sides = np.asarray(sides)
    n = len(stack)
    for lo in range(0, len(times), BLOCK):
        t, side = times[lo:lo + BLOCK], sides[lo:lo + BLOCK]
        # one row per (time, member), time-major
        kappa = np.stack([k.value(t, side) for k in stack.kappas], axis=1)
        rows = _weight_rows(stack.model, stack.observables,
                            np.repeat(stack.field.value(t, side), n, axis=0),
                            kappa.reshape(len(t) * n, -1), np.repeat(t, n))
        _, scalar, w_group, left, right = (
            r.reshape((len(t), n) + r.shape[1:]) for r in rows)
        for k in range(len(t)):
            yield StackedGenerator(stack, scalar[k], w_group[k], left[k],
                                   right[k])


def generator_at(ctx: GeneratorContext, t: float, side: int = 1) -> FrozenGenerator:
    """Assemble the generator at time t; `side` as in `signals`."""
    return next(stage_generators(ctx, (t,), (side,)))


def context_is_piecewise_static(ctx: GeneratorContext) -> bool:
    """True when all coefficients are constant between breakpoints, so a
    frozen generator built at a segment midpoint is exact on the segment."""
    sigs = ctx.field.signals + ctx.observables.signals
    return all(isinstance(s, Constant) for s in sigs)
