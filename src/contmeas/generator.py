"""Time-dependent generator of the reduced characteristic-operator
evolution.  Applied to a matrix tau it reads

    A[tau] = K(lam, r(-kappa)) tau + tau K(lam, r(+kappa))^dagger
             + sum_i s_i(kappa) B_i(lam) tau B_i(lam)^dagger
             + c(kappa; t) tau,

a Lindblad master equation in the interaction picture at kappa = 0.

- `GeneratorStack`: n test functions on one model, observable family and
  field, propagated together; `GeneratorContext` is its one-member case.
- `FrozenGenerator`: a stack's generators at one time, and their
  application (`_act`).
- `stage_rows`, `stage_generators`: the generators at many times of one
  segment; `generator_at`: at one time.
- `context_is_piecewise_static`: whether the frozen route is exact.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import ValidationError
from .fock import csr_product
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import Constant, FieldProfile, TestFunction, segments


class _Workspace:
    """`_act`'s scratch arrays of one stack, flat, and their views."""

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
    member X_k of an (n, dim, dim) stack, in two kernel calls on `ops`
    in the workspace `ws`: [K_L + s I; P_1; ...; P_G] on the members,
    then [K_R^T | w_1 conj P_1 | ... | w_G conj P_G], tiled once per
    member, on X_k^T and every (P_g X_k)^T, which gives
    (X_k K_R + sum_g w_kg P_g X_k P_g^dag)^T; one add ends it.

    Member k's entries get the same operations in the same order
    whatever n is and whatever entries the operators leave out beyond
    those its own live weight rows reach: a left-out entry is zero, and
    the kernel, which starts each sum at +0, adds its zero product to a
    finite X without changing a bit."""
    ws.products.fill(0)
    csr_product(ops[0], X, ws.products)
    ws.operand0[...] = X.transpose(0, 2, 1)
    ws.operand_rest[...] = ws.sandwich_t
    ws.right.fill(0)
    csr_product(ops[1], ws.operands, ws.right)
    return ws.product0 + ws.right_t


class FrozenGenerator:
    """The generators of a `GeneratorStack`'s n members at a fixed time:
    member k is

        A_k[tau_k] = scalar_k tau_k + K_L,k tau_k + tau_k K_R,k
                     + sum_g w_kg P_g tau_k P_g^dag

    with K_L = K + sum_i (w_left_i R_i + w_left_dag_i R_i^dag), K_R the
    same on K^dag with the right weights, and one sandwich per group g
    of proportional channel operators R_i = c_i P_g, w_g =
    sum_{i in g} s_i |c_i|^2.  Row k of `left` is (1, w_left,
    w_left_dag, scalar), the weights of the rows of the model's `basis`;
    row k of `right` is (1, w_right_dag, w_right, w_1..w_G), those of
    its `right_basis`; `scalar` is (n, 1, 1).  `ops` are the two kernel
    operators of `_act`, None for a model without operators.
    """

    __slots__ = ("stack", "scalar", "left", "right", "ops")

    def __init__(self, stack: GeneratorStack, scalar, left, right, ops):
        self.stack = stack
        self.scalar = scalar
        self.left = left
        self.right = right
        self.ops = ops

    def apply(self, X):
        """A_k[X_k] for each member X_k of an (n, dim, dim) stack X, or of
        the Python complex state of a one-member system-free run, which
        gets a Python complex back.  That product is still numpy's:
        numpy's complex product uses fused multiply-adds and Python's
        does not, so about 4 in 10 of Python's differ in the last bit."""
        if self.ops is None:
            product = self.scalar * X
            return product.item() if isinstance(X, complex) else product
        return _act(X, self.ops, self.stack.workspace)

    # the name the backward run of `oracle.duality_check` applies by, so
    # that a tracer counts its applications apart
    apply_adjoint = apply


class GeneratorStack:
    """The generators of n test functions on one model, observable family
    and field, propagated together; member k is tilted by `kappas[k]`.

    A part of `split` has `group`, the stack split, and `row`, the index
    there of its first member; `generator_at` reads the weights of the
    group, or of a stack without one, kept in its `frozen_rows` by time.
    A stack from `dual` has `primal`, the stack it is the dual of.
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
        self.frozen_rows = {}

    def __len__(self) -> int:
        return len(self.kappas)

    @functools.cached_property
    def workspace(self) -> _Workspace:
        """`_act`'s scratch arrays, built once per stack."""
        dim = self.model.space.dim
        return _Workspace((1 + len(self.model.operators.sandwich), len(self),
                           dim, dim))

    def split(self, size: int = 1):
        """Yield the members, in order, as stacks of `size` members (the
        last may hold fewer), each made as the one before it is done
        with, whose `group` is this stack."""
        for row in range(0, len(self), size):
            part = GeneratorStack(self.model, self.observables, self.field,
                                  self.kappas[row:row + size])
            part.group, part.row = self, row
            yield part

    def dual(self) -> GeneratorStack:
        """This stack on the dual model (`ModelSpec.dual`), whose member k
        is the adjoint of member k here under Tr(X tau)."""
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


# (time, member) weight rows formed in one pass, and at least one time
BLOCK = 4096
# complex entries of one kernel operator's data for a sub-block of times,
# and at least one time.  Kept small: at dim 117, freeing two 59 KB arrays
# (4096 entries) joined the heap's top chunk, pushed it past glibc's trim
# threshold (twice the (dim, dim) RK4 temporaries) and made most steps
# page-fault afresh
OPERAND_BUDGET = 1024


def stage_rows(stack: GeneratorStack, times, start: float):
    """Yield scalar, left and right (see `FrozenGenerator`) for the
    members of `stack` at `times`, a block of up to BLOCK (time, member)
    rows at a time, in order.  Every member's kappa and the field window
    are read once, at `start`, the start of the segment that holds the
    times; only the smooth signals are read per time.

    Weight layout (mu = S lam, r_pm = r(+/-kappa; t)):
        R_i tau         : w_left_i      = conj(r_minus_i) + s_i conj(mu_i)
        R_i^dag tau     : w_left_dag_i  = -mu_i
        tau R_i         : w_right_i     = -conj(mu_i)
        tau R_i^dag     : w_right_dag_i = r_plus_i + s_i mu_i
        tau             : c_left + conj(c_right) + sum_i s_i |mu_i|^2 + rate
    with c_left/right = -|lam|^2/2 + sum_i conj(r_mp_i) mu_i.  A dual
    stack's K_L is the primal's K_R on the basis K^dag, R_i^dag, R_i, so
    its drift weights go into the other array; its scalar rate and w_g
    stay, as the dual model finds the same channel groups.
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


def _operands(stack: GeneratorStack, layout, left, right) -> list:
    """Each time's pair of kernel operators of `_act` on `layout`, from
    the weight rows `left` and `right` (k times, n members), their data
    rows of one array per operator.  Each (time, member) is its own
    vector-matrix product with the whole basis, of which the kept
    columns are taken: a matrix-matrix product would round differently
    as the member count changes."""
    c = stack.model.operators
    k, n, _ = left.shape
    m = n * len(layout.left)
    lhs = np.empty((k, m + len(layout.fixed)), dtype=complex)
    lhs[:, m:] = layout.fixed
    rhs = np.empty((k, n * len(layout.right)), dtype=complex)
    # the kept columns are in range, and "clip" takes them straight into
    # `out`, where "raise" would go through a buffer
    for rows, basis, kept, out in ((left, c.basis, layout.left, lhs[:, :m]),
                                   (right, c.right_basis, layout.right, rhs)):
        np.take(np.matmul(rows[:, :, None], basis), kept, axis=-1,
                out=out.reshape(k, n, 1, -1), mode="clip")
    first, second = layout.first, layout.second
    return [(first + (a,), second + (b,)) for a, b in zip(lhs, rhs)]


def _block_generators(stack: GeneratorStack, rows):
    """Yield the generators of `stack` at each time of one `stage_rows`
    block `rows`, on the layout of the basis rows whose weight is
    nonzero at some time and member of the block, their operators formed
    as many times at once as OPERAND_BUDGET entries hold.  A state that
    is not finite, where a left-out entry would matter, still fails
    `evolution._walk`'s check at the same segment end."""
    scalar, left, right = rows
    scalar = scalar[:, :, None, None]
    c, n = stack.model.operators, len(stack)
    nnz = c.basis.shape[1]
    step = len(scalar)
    if nnz:
        layout = c.stacked(n, left.any(axis=(0, 1)), right.any(axis=(0, 1)))
        per_time = max(n * len(layout.left) + len(layout.fixed),
                       n * len(layout.right))
        step = max(1, OPERAND_BUDGET // per_time)
    for lo in range(0, len(scalar), step):
        sub = slice(lo, lo + step)
        ops = (_operands(stack, layout, left[sub], right[sub]) if nnz
               else itertools.repeat(None))
        for scalar_k, left_k, right_k, ops_k in zip(
                scalar[sub], left[sub], right[sub], ops):
            yield FrozenGenerator(stack, scalar_k, left_k, right_k, ops_k)


def stage_generators(stack: GeneratorStack, times, start: float):
    """Yield the generators of `stack` at each time of `times`, in the
    segment from `start`."""
    for rows in stage_rows(stack, times, start):
        yield from _block_generators(stack, rows)


def generator_at(stack: GeneratorStack, t: float) -> FrozenGenerator:
    """The generators of `stack` at time t, reading every coefficient
    there: its rows of its group's weights at t, formed for all the
    group's members on the first call.  A row does not depend on how
    many rows its block holds, so each member gets the bits of its own
    assembly."""
    # a stack is not its own `group`: the cycle would keep its workspace
    # alive until the cyclic collector runs
    group = stack if stack.group is None else stack.group
    rows = group.frozen_rows.get(t)
    if rows is None:
        rows = group.frozen_rows[t] = next(stage_rows(group, (t,), t))
    j = slice(stack.row, stack.row + len(stack))
    return next(_block_generators(stack, [part[:, j] for part in rows]))


def context_is_piecewise_static(stack: GeneratorStack) -> bool:
    """True when all coefficients are constant between breakpoints, so a
    generator frozen at a segment's midpoint is exact on it.  The test is
    the `Constant` type, not a zero frequency: the stage route gives a
    zero-frequency harmonic the same numbers and stacks a sweep's
    members, which the frozen route propagates one at a time, so a
    16-point dim-9 `counts` sweep runs 3-4 times faster there."""
    sigs = stack.field.signals + stack.observables.signals
    return all(isinstance(s, Constant) for s in sigs)
