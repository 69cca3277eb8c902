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
operators R_i = c_i P_g.  The model caches K, R_i, R_i^dag and the
identity on one sparse pattern, and the groups, once
(`ModelSpec.operators`).

A `GeneratorStack` is the one spec of a generator: n test functions on
one model, observable family and field, checked against them once per
stack.  A `GeneratorContext` is its one-member case, built from a single
test function.  A `FrozenGenerator` is the stack's generators at one
time, applied to an (n, dim, dim) stack in two calls of scipy's CSR
kernel (`_act`) that do all of its arithmetic: K_L + s I, with the
scalar rate s on the identity, and every P_g, stacked by rows, on the
members; then, into one output plane per member,
[K_R^T | w_1 conj P_1 | ... | w_G conj P_G], with the sandwich weights
w_g in its data, on the transposes of the member and of its first-call
products.  Each block is tiled once per member, and one add of the two
products ends the application.  The stack builds the patterns of both
operators and the sandwich data of the first once, and one workspace
that every application reuses; each generator adds the data of its
K_L + s I and all of the second operator's.  The adjoint, under the
pairing Tr(X tau), is the generator of the dual stack
(`GeneratorStack.dual`) on the dual model (`ModelSpec.dual`), in the
same layout.  Every sparse operator is held, like `SystemOperator.csr`,
as the arguments of scipy's CSR kernel, (rows, cols, indptr, indices,
data), and every sparse product is one call of that kernel (`_product`).

`stage_generators` assembles the generators at a whole run of times
inside one segment at once, a block at a time.  It reads every member's
kappa and the field window once, at the segment's start, and forms each
factor at its own rank: the smooth signals once per time, s once per
member, and only r(+/-kappa), the scalar rate and the weights per (time,
member).  The data of each kernel operator for a sub-block of times,
bounded by OPERAND_BUDGET entries, comes from one stacked product of
the weight rows and a basis of the model into one array, a row per
time (`_operands`).  `generator_at` is its one-time case, reading
everything at its time.  On a one-member stack from
`GeneratorStack.split` it forms the member's generator from the
member's row of the split stack's weights, which that stack assembles
once per time for all its members.  A model without operators has its
scalar rate as its generator, so an application is the one product
scalar * tau, numpy's even on the Python complex state of a one-member
1x1 run (`FrozenGenerator.apply`).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ValidationError
from .fock import csr_matvecs
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import Constant, FieldProfile, TestFunction, segments


def _product(op: tuple, X: np.ndarray, out: np.ndarray | None = None):
    """op X for op = (rows, cols, indptr, indices, data) and X of `cols`
    rows, 2-D or flat: scipy's kernel call for `op * X` after its checks,
    into `out` if given, a zeroed C-contiguous array of the result's size."""
    rows, cols, indptr, indices, data = op
    if out is None:
        out = np.zeros((rows, X.size // cols), dtype=complex)
    csr_matvecs(rows, cols, X.size // cols, indptr, indices, data,
                X.ravel(), out.ravel())
    return out


class _Workspace:
    """`_act`'s scratch arrays of one stack, held flat: the left-hand
    products and the right-hand operands, each (1 + G, n, dim, dim), and
    the right-hand products, (n, dim, dim); with every view of them that
    an application uses."""

    __slots__ = ("products", "operands", "right", "product0", "sandwich_t",
                 "operand0", "operand_rest", "right_t")

    def __init__(self, shape: tuple):
        products = np.empty(shape, dtype=complex)
        operands = np.empty(shape, dtype=complex)
        right = np.empty(shape[1:], dtype=complex)
        self.products, self.operands = products.ravel(), operands.ravel()
        self.right = right.ravel()
        self.product0 = products[0]
        self.sandwich_t = products[1:].transpose(0, 1, 3, 2)
        self.operand0, self.operand_rest = operands[0], operands[1:]
        self.right_t = right.transpose(0, 2, 1)


def _act(X, ops, ws: _Workspace) -> np.ndarray:
    """(K_L,k + s_k) X_k + X_k K_R,k + sum_g w_kg P_g X_k P_g^dag on each
    member X_k of an (n, dim, dim) stack, in two kernel calls on the
    operators `ops` (`FrozenGenerator.ops`, formed by `_operands`), in
    views of the stack's workspace `ws`: [K_L + s I; P_1; ...; P_G] on
    the members, then, into one output plane per member,
    [K_R^T | w_1 conj P_1 | ... | w_G conj P_G] on X_k^T and every
    (P_g X_k)^T stacked, each block once per member.  The second call
    gives (X_k K_R + sum_g w_kg P_g X_k P_g^dag)^T, since
    conj P_g (P_g X)^T = (P_g X P_g^dag)^T, and one add of the two
    products ends the application.  Every entry of member k is formed
    by the same operations, in the same order, whatever n is."""
    ws.products.fill(0)
    _product(ops[0], X, ws.products)
    ws.operand0[...] = X.transpose(0, 2, 1)
    ws.operand_rest[...] = ws.sandwich_t
    ws.right.fill(0)
    _product(ops[1], ws.operands, ws.right)
    return ws.product0 + ws.right_t


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
    holds the groups).  The data of the stack's two kernel operators
    (`ops`, see `_act`) are weighted sums of the cached bases: K_L + s I
    of `left`, and [K_R^T | w_1 conj P_1 | ...] of `right`, formed with
    those of a whole sub-block of times (`_operands`); applying the
    generator costs those two kernel calls, in the stack's workspace.
    Without operators (`ops` None) it is the one product scalar_k tau_k.
    The adjoint is the generator of the dual stack
    (`GeneratorStack.dual`).

    `left` and `right` hold one row per member, `scalar` (n, 1, 1) one
    entry per member, to scale it directly.  Row k of `left` is
    (1, w_left, w_left_dag, scalar), the weights of K, R_1..R_d,
    R_1^dag..R_d^dag and the identity in K_L + s I; row k of `right` is
    (1, w_right_dag, w_right, w_1..w_G), the weights of conj K, conj
    R_1..conj R_d and conj R_1^dag..conj R_d^dag in K_R^T and of each
    conj P_g.

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

    __slots__ = ("stack", "scalar", "left", "right", "ops")

    def __init__(self, stack: GeneratorStack, scalar, left, right, ops):
        self.stack = stack
        self.scalar = scalar
        self.left = left
        self.right = right
        self.ops = ops

    def apply(self, X):
        """A_k[X_k] for each member X_k of an (n, dim, dim) stack X, or for
        the Python complex state of a one-member system-free run
        (`evolution.evolve`), which gets a Python complex back.  That
        product is still numpy's, through a (1, 1, 1) array: numpy's
        complex product uses fused multiply-adds and Python's does not,
        so about 4 in 10 of Python's products differ in the last bit."""
        if self.ops is None:
            product = self.scalar * X
            return product.item() if isinstance(X, complex) else product
        return _act(X, self.ops, self.stack.workspace)

    # the name `oracle.duality_check` applies a dual stack's generators by,
    # so that a tracer counts its applications apart from `apply`'s
    apply_adjoint = apply


class GeneratorStack:
    """The generators of n test functions on one model, observable family
    and field, propagated together; member k is the generator tilted by
    `kappas[k]`.

    The kernel operators of every application (`_OperatorCache.stacked`)
    have their patterns and the left-hand sandwich data once per stack,
    and every application runs in one workspace per stack; each is built
    the first time a generator asks for it.

    A part of `split` has `group`, the stack split, and `row`, the index
    there of its first member.  A stack from `dual` has `primal`, the
    stack it is the dual of.
    """

    group: GeneratorStack | None = None
    row = 0
    primal: GeneratorStack | None = None

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
    def layout(self):
        return self.model.operators.stacked(len(self))

    @functools.cached_property
    def workspace(self) -> _Workspace:
        """`_act`'s scratch arrays and all their views, built once."""
        dim = self.model.space.dim
        return _Workspace((1 + len(self.model.operators.sandwich), len(self),
                           dim, dim))

    def split(self, size: int = 1):
        """Yield the members, in order, as stacks of `size` members (the
        last may hold fewer), each made as the one before it is done
        with.  `generator_at` takes their generators from this stack's
        weights, which it keeps in `frozen_rows` by time."""
        self.frozen_rows = {}
        for row in range(0, len(self), size):
            part = GeneratorStack(self.model, self.observables, self.field,
                                  self.kappas[row:row + size])
            part.group, part.row = self, row
            yield part

    def dual(self) -> GeneratorStack:
        """This stack on the dual model (`ModelSpec.dual`): its member k's
        generator is the adjoint of member k's here (see `stage_rows`)."""
        dual = GeneratorStack(self.model.dual, self.observables, self.field,
                              self.kappas)
        dual.primal = self
        return dual

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


# (time, member) weight rows formed together in one pass, and at least
# one time, so that a pass's memory does not grow with the member count
BLOCK = 4096
# complex entries of the data array of one kernel operator shared by a
# sub-block of stage generators, and at least one time: 16 KB a sub-block.
# Kept small: at dim 117, freeing two 59 KB arrays (4096 entries) joined
# the heap's top chunk, pushed it past glibc's trim threshold (twice the
# (dim, dim) RK4 temporaries) and made most steps page-fault afresh
OPERAND_BUDGET = 1024


def stage_rows(stack: GeneratorStack, times, start: float):
    """Yield scalar, left and right (see `FrozenGenerator`) for the
    members of `stack` at the times `times`, one block of times after
    another, in order; `start` is the start of the segment (see
    `signals.segments`) that holds them.

    Every member's kappa and the field window are constant on the
    segment, so they are read once, right-continuously at `start`; only
    the smooth signals are evaluated at each time.  A block holds as many
    times as BLOCK (time, member) rows hold.  Each factor is formed at
    its own rank: mu = S lam and the signals once per time, s and the
    sandwich weights w_g = sum_i s_i |c_i|^2 once per member, and only
    r(+/-kappa), the scalar rate and the drift weights per (time,
    member), by broadcasting, each written straight into its place in
    `left` (T, n, 2 + 2d) or `right` (T, n, 1 + 2d + G); `scalar` is
    the last column of `left`.  Every entry is formed by the operations,
    in the order, of its own one-row assembly.  On a dual stack, whose
    K_L is the primal's K_R and K_R its K_L, on the basis K^dag, R_i^dag,
    R_i, the drift parts go into the other array; the scalar rate and
    the w_g stay where they are, as the adjoint keeps both and the dual
    model finds the same channel groups.
    """
    times = np.asarray(times, dtype=float)
    model, obs, field = stack.model, stack.observables, stack.field
    d, n, weights = model.d, len(stack), model.operators.group_weights
    on = field.covers(start)
    kappa = np.stack([k.value(start) for k in stack.kappas])
    block = max(1, BLOCK // n)
    for lo in range(0, len(times), block):
        t = times[lo:lo + block]
        lam = np.where(on, field.table(t), 0j)
        s, r_plus, r_minus, rate = obs.coefficients(kappa, t[:, None])
        left = np.empty((len(t), n, 2 + 2 * d), complex)
        right = np.empty((len(t), n, 1 + 2 * d + weights.shape[1]), complex)
        drift_left, drift_right = ((right, left) if stack.primal is not None
                                   else (left, right))
        # mu = S lam and w_g = s G as plain sums, so that each row comes
        # out the same however many rows there are
        mu = (lam[:, None, :] * model.S).sum(axis=-1)[:, None]
        right[..., 1 + 2 * d:] = (s[:, :, None] * weights).sum(axis=-2)
        r_minus_conj, mu_conj = np.conj(r_minus), np.conj(mu)
        half_norm2 = 0.5 * (np.abs(lam) ** 2).sum(axis=-1)[:, None]
        left[..., -1] = (-half_norm2 + (r_minus_conj * mu).sum(axis=-1)
                         + (-half_norm2 + (r_plus * mu_conj).sum(axis=-1))
                         + (s * np.abs(mu) ** 2).sum(axis=-1) + rate)
        drift_left[..., 0] = drift_right[..., 0] = 1.0
        drift_left[..., 1:1 + d] = r_minus_conj + s * mu_conj
        drift_right[..., 1:1 + d] = r_plus + s * mu
        drift_left[..., 1 + d:1 + 2 * d] = -mu
        drift_right[..., 1 + d:1 + 2 * d] = -mu_conj
        yield left[..., -1], left, right


def _operands(stack: GeneratorStack, left, right) -> list:
    """The two kernel operators of `_act` (see `_OperatorCache.stacked`)
    of the members of `stack` at each of k times, K_L + s I and
    [K_R^T | w_1 conj P_1 | ...] from their weight rows `left` and
    `right` (k, n, .).

    Each operator keeps the data of all k times in one array, a row per
    time.  The first holds the drift data of its n members end to end,
    then the stack's sandwich data, copied in once; the second only its
    members' data.  One stacked product forms each operator's members'
    data; each (time, member) is still its own vector-matrix product, as
    a matrix-matrix product would round differently as the member count
    changes.  Returns each time's pair of operators, their data a row
    view."""
    c = stack.model.operators
    k, n, _ = left.shape
    m = n * c.basis.shape[1]
    (first, fixed), second = stack.layout
    lhs = np.empty((k, m + len(fixed)), dtype=complex)
    lhs[:, m:] = fixed
    rhs = np.empty((k, n * c.right_basis.shape[1]), dtype=complex)
    np.matmul(left[:, :, None], c.basis,
              out=lhs[:, :m].reshape(k, n, 1, -1))
    np.matmul(right[:, :, None], c.right_basis, out=rhs.reshape(k, n, 1, -1))
    return [(first + (a,), second + (b,)) for a, b in zip(lhs, rhs)]


def _block_generators(stack: GeneratorStack, rows):
    """Yield the generators of the members of `stack` at each time of one
    `stage_rows` block `rows`, forming their kernel operators
    (`_operands`) a sub-block of times at a time, as many as
    OPERAND_BUDGET entries of an operator's data hold (both hold the
    same number per time)."""
    scalar, left, right = rows
    scalar = scalar[:, :, None, None]
    nnz = stack.model.operators.basis.shape[1]
    step = len(scalar)
    if nnz:
        per_time = len(stack) * nnz + len(stack.layout[0][1])
        step = max(1, OPERAND_BUDGET // per_time)
    for lo in range(0, len(scalar), step):
        sub = slice(lo, lo + step)
        ops = (_operands(stack, left[sub], right[sub]) if nnz
               else itertools.repeat(None))
        for scalar_k, left_k, right_k, ops_k in zip(
                scalar[sub], left[sub], right[sub], ops):
            yield FrozenGenerator(stack, scalar_k, left_k, right_k, ops_k)


def stage_generators(stack: GeneratorStack, times, start: float):
    """Yield the generator of every member of `stack` at each time of
    `times` (in the segment from `start`), from `stage_rows`, their
    operators formed a sub-block of times at a time (`_block_generators`)."""
    for rows in stage_rows(stack, times, start):
        yield from _block_generators(stack, rows)


def generator_at(stack: GeneratorStack, t: float) -> FrozenGenerator:
    """Assemble the generators of every member of `stack` at time t,
    reading every coefficient there.

    A part of `GeneratorStack.split` takes its rows of the group's
    weights at t, formed for all members on the first such call and kept
    on the group.  A row does not depend on how many rows its block
    holds, so each member gets the bits of its own assembly."""
    group = stack.group
    if group is None:
        return next(stage_generators(stack, (t,), t))
    rows = group.frozen_rows.get(t)
    if rows is None:
        rows = group.frozen_rows[t] = next(stage_rows(group, (t,), t))
    j = slice(stack.row, stack.row + len(stack))
    return next(_block_generators(stack, [part[:, j] for part in rows]))


def context_is_piecewise_static(stack: GeneratorStack) -> bool:
    """True when all coefficients are constant between breakpoints, so a
    frozen generator built at a segment midpoint is exact on the segment.

    The test is the `Constant` type, not a zero frequency: the stage route
    gives a zero-frequency harmonic the same numbers and stacks a sweep's
    members, which the frozen route propagates one at a time
    (`joint_charfunc`), so a 16-point dim-9 `counts` sweep runs 3-4 times
    faster there."""
    sigs = stack.field.signals + stack.observables.signals
    return all(isinstance(s, Constant) for s in sigs)
