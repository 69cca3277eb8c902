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
sparse pattern and the groups once (`ModelSpec.operators`).

A `GeneratorStack` is the one spec of a generator: n test functions on
one model, observable family and field, checked against them once per
stack.  A `GeneratorContext` is its one-member case, built from a single
test function.  A `FrozenGenerator` is the stack's generators at one
time, applied to an (n, dim, dim) stack: K_L and K_R^T of all members
are one block-diagonal operator each on the cached pattern tiled once
per member, and each sandwich is two sparse products over the members
side by side.  The adjoint of a one-member generator reuses both through
a cached transposing permutation.  Every sparse operator is held, like
`SystemOperator.csr`, as the arguments of scipy's CSR kernel,
(rows, cols, indptr, indices, data), and every sparse product is one
call of that kernel (`_product`).

`stage_generators` assembles the generators at a whole run of times at
once: the signals, s, r(+/-kappa), the scalar rate and the weights of
every member are array expressions over a block of times, and each
generator's K_L and K_R^T are formed only when it is handed out.
`generator_at` is its one-time case.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError
from .fock import csr_matvecs
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import Constant, FieldProfile, TestFunction, segments


def _product(op: tuple, X: np.ndarray) -> np.ndarray:
    """op X for op = (rows, cols, indptr, indices, data) and a 2-D X: the
    kernel call scipy's CSR matrix makes for `op * X` after its checks."""
    rows, cols, indptr, indices, data = op
    out = np.zeros((rows, X.shape[1]), dtype=complex)
    csr_matvecs(rows, cols, X.shape[1], indptr, indices, data, X.ravel(),
                out.ravel())
    return out


def _act(X, scalar, left, right_t, sandwiches, weights) -> np.ndarray:
    """scalar_k X_k + left X_k + X_k right + sum_g w_kg a_g X_k a_g^dag
    on each member X_k of an (n, dim, dim) stack, for block-diagonal
    sparse `left` and `right_t = right^T`, one (1, 1) scalar and one row
    of group weights per member, and sandwich pairs (a_g, b_g = conj a_g)
    that form a_g X a_g^dag as (b_g (a_g X)^T)^T, two sparse products over
    the members side by side.  Every entry of member k is formed by the
    same operations, in the same order, whatever n is."""
    # the weights stay the first operand of `*`: numpy's complex product
    # is not commutative to the last bit
    n, dim, _ = X.shape
    out = scalar * X
    if left is not None:
        out += _product(left, X.reshape(n * dim, dim)).reshape(n, dim, dim)
        out += _product(right_t, X.transpose(0, 2, 1).reshape(n * dim, dim)
                        ).reshape(n, dim, dim).transpose(0, 2, 1)
    if sandwiches:
        side = X.transpose(1, 0, 2).reshape(dim, n * dim)   # X_1 ... X_n
    for (a, b), w in zip(sandwiches, weights.T):
        # (a X_1)^T ... (a X_n)^T side by side, then b times each; one
        # expression, so that each temporary is freed as soon as it is
        # used: held in names until the next group, they doubled the
        # minor page faults of a dim-117 propagation
        out += w[:, None, None] * _product(b, _product(a, side).reshape(
            dim, n, dim).transpose(2, 1, 0).reshape(dim, n * dim)).reshape(
                dim, n, dim).transpose(1, 2, 0)
    return out


class FrozenGenerator:
    """The generators of a `GeneratorStack`'s n members at a fixed time,
    applied matrix-free to an (n, dim, dim) stack: member k of the result
    is

        A_k[tau_k] = scalar_k tau_k + K_L,k tau_k + tau_k K_R,k
                     + sum_g w_kg P_g tau_k P_g^dag

    with the two fused drift operators
        K_L = K     + sum_i (w_left_i R_i + w_left_dag_i R_i^dag)
        K_R = K^dag + sum_i (w_right_i R_i + w_right_dag_i R_i^dag)
    and one sandwich per group g of proportional channel operators
    R_i = c_i P_g, with w_g = sum_{i in g} s_i |c_i|^2 (`ModelSpec.operators`
    holds the groups).  K_L and K_R^T of all members are weighted sums of
    the cached basis on the stack's tiled pattern, one block-diagonal
    sparse operator each in the form `_product` takes, formed once per
    assembly; applying the generator costs one sparse product for each
    and two per group.  `apply_adjoint` forms their transposes on its
    first call and keeps them in `drift_adj`.

    `s`, `w_group`, `left` and `right` hold one row per member and
    `scalar` one (1, 1) entry per member, so that it scales each member
    directly.  Row k of `left` is (1, w_left, w_left_dag), the weights of
    K, R_1..R_d and R_1^dag..R_d^dag in K_L; row k of `right` is
    (1, conj w_right_dag, conj w_right), their weights in conj K_R^T.

    Weight layout (mu = S lam, r_pm = r(+/-kappa; t)):
        R_i tau         : w_left_i      = conj(r_minus_i) + s_i conj(mu_i)
        R_i^dag tau     : w_left_dag_i  = -mu_i
        tau R_i         : w_right_i     = -conj(mu_i)
        tau R_i^dag     : w_right_dag_i = r_plus_i + s_i mu_i
        R_i tau R_i^dag : s_i
        tau             : c_left + conj(c_right) + sum_i s_i |mu_i|^2 + rate
    with c_left/right = -|lam|^2/2 + sum_i conj(r_mp_i) mu_i the scalar
    parts of the two drift operators.
    """

    __slots__ = ("cache", "s", "scalar", "w_group", "left", "right", "K_L",
                 "K_R_t", "drift_adj")

    def __init__(self, stack: GeneratorStack, s, scalar, w_group, left,
                 right):
        cache = self.cache = stack.model.operators
        self.s = s
        self.scalar = scalar[:, None, None]
        self.w_group = w_group
        self.left = left
        self.right = right
        if cache.basis.shape[1]:
            # one vector-matrix product per member: a matrix-matrix
            # product would round differently as the member count changes
            self.K_L = stack.pattern + (
                np.matmul(left[:, None], cache.basis).ravel(),)
            self.K_R_t = stack.pattern + (
                np.conj(np.matmul(right[:, None], cache.basis)).ravel(),)
        else:
            self.K_L = self.K_R_t = None
        self.drift_adj = None

    def apply(self, X: np.ndarray) -> np.ndarray:
        return _act(X, self.scalar, self.K_L, self.K_R_t,
                    self.cache.sandwich, self.w_group)

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        """Dual map under the pairing Tr(X tau), for a one-member
        generator and a (1, dim, dim) stack X:

            X -> scalar X + K_R X + X K_L + sum_g w_g P_g^dag X P_g,

        on the operators of `apply`, transposed by the cached permutation.
        """
        c = self.cache
        if self.drift_adj is None and self.K_L is not None:
            self.drift_adj = (c.transpose(self.K_R_t[-1]),
                              c.transpose(self.K_L[-1]))
        left, right_t = self.drift_adj or (None, None)
        return _act(X, self.scalar, left, right_t, c.sandwich_adj,
                    self.w_group)


class GeneratorStack:
    """The generators of n test functions on one model, observable family
    and field, propagated together; member k is the generator tilted by
    `kappas[k]`.

    The drift operators of all members at one time form one
    block-diagonal operator on the model's operator pattern tiled once per
    member; the tiled pattern is built the first time a generator asks
    for it.
    """

    def __init__(self, model: ModelSpec, observables: ObservableSpec,
                 field: FieldProfile, kappas):
        if observables.d != model.d:
            raise ValidationError("observables and model disagree on the "
                                  "number of channels")
        if field.d != model.d:
            raise ValidationError(f"field profile needs {model.d} channels")
        if any(kappa.m != observables.m for kappa in kappas):
            raise ValidationError(f"test function needs {observables.m} "
                                  "components")
        self.model = model
        self.observables = observables
        self.field = field
        self.kappas = list(kappas)

    def __len__(self) -> int:
        return len(self.kappas)

    @functools.cached_property
    def pattern(self):
        return self.model.operators.tiled(len(self))

    def segments(self, t_end: float,
                 start: float = 0.0) -> list[tuple[float, float]]:
        """Smooth pieces of [start, t_end] of every member's generator,
        split where the field window or a test function jumps."""
        return segments(t_end, self.field, *self.kappas, start=start)


class GeneratorContext(GeneratorStack):
    """The one-member stack of a single test function `kappa`."""

    def __init__(self, model: ModelSpec, observables: ObservableSpec,
                 field: FieldProfile, kappa: TestFunction):
        super().__init__(model, observables, field, [kappa])


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


def stage_generators(stack: GeneratorStack, times, sides):
    """Yield the generator of every member of `stack` at each time of
    `times`, in order, taken from the side of the matching entry of
    `sides` (as in `signals`).

    The weights of all members are formed for BLOCK times at a time with
    array operations; each generator's two sparse drift operators are
    formed only when it is yielded.
    """
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
        s, scalar, w_group, left, right = (
            r.reshape((len(t), n) + r.shape[1:]) for r in rows)
        for k in range(len(t)):
            yield FrozenGenerator(stack, s[k], scalar[k], w_group[k],
                                  left[k], right[k])


def generator_at(stack: GeneratorStack, t: float,
                 side: int = 1) -> FrozenGenerator:
    """Assemble the generators of every member of `stack` at time t;
    `side` as in `signals`."""
    return next(stage_generators(stack, (t,), (side,)))


def context_is_piecewise_static(stack: GeneratorStack) -> bool:
    """True when all coefficients are constant between breakpoints, so a
    frozen generator built at a segment midpoint is exact on the segment."""
    sigs = stack.field.signals + stack.observables.signals
    return all(isinstance(s, Constant) for s in sigs)
