"""Model data: the drift operator K, channel operators R_i and the scalar
scattering matrix S, plus the degenerate-parametric-oscillator builder.

The DPO couples two cavity modes through a chi^(2) crystal: subharmonic
mode (a, frequency omega_c) and pump mode (b, frequency 2*omega_c), with
mirror losses, thermal noise, laser injection on the pump, two
photocounter channels and one homodyne channel (d = 8 channels total).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .fock import (SystemOperator, TruncatedSpace, csr_matvecs, csr_pattern,
                   ladder_a, ladder_a_dag, ladder_b, ladder_b_dag)


# Two channel operators share a sandwich product when one is a scalar
# multiple of the other to within this many units in the last place of
# its largest entry.
_PROPORTIONAL_ULPS = 8


class _OperatorCache:
    """Sparse data of the model in the layout the generator applies,
    shared by all frozen generators.

    Every operator is held, like `SystemOperator.csr`, as the arguments
    of scipy's CSR kernel, (rows, cols, indptr, indices, data), and a
    pattern as the same without the data.  `pattern` is the union of the
    sparsity patterns of K, R_1..R_d, R_1^dag..R_d^dag and the identity;
    row j of `basis` holds the entries of the j-th of them on it, so a
    weighted sum of these operators, the scalar rate included, costs one
    vector-matrix product.  A model without operators keeps an empty
    pattern: its generator is its scalar rate.

    The nonzero channel operators are grouped as R_i = c_i P_g, P_g the
    operator of the group's first channel `channels[g]`;
    `group_weights[i, g]` is |c_i|^2 (zero off the group) and
    `sandwich[g]` is P_g (`_channel_groups`).  The right-hand operator
    of one member, [K_R^T | w_1 conj P_1 | ... | w_G conj P_G], has
    `right_pattern`, dim rows and (1 + G) dim columns, the columns of
    conj P_g moved right by g + 1 blocks.  Each row holds the entries of
    `pattern` there, then those of each conj P_g.  Row j of
    `right_basis` holds, in that order, the entries of conj K, conj
    R_1..conj R_d, conj R_1^dag..conj R_d^dag (K_R^T is their weighted
    sum) and then of each conj P_g, so the operator's data is one
    vector-matrix product too.  `stacked` tiles both operators for n
    members, each on only the entries that its live basis rows reach,
    and keeps every layout it builds in `layouts`, for all the stacks of
    the model.  The adjoint's operators are those of the dual model's
    cache (`ModelSpec.dual`), which finds the same groups and weights.
    """

    __slots__ = ("pattern", "basis", "channels", "group_weights",
                 "sandwich", "right_pattern", "right_basis", "layouts")

    def __init__(self, model: "ModelSpec"):
        dim, d = model.space.dim, model.d
        coos = [op.coo() for op in (model.K, *model.R)]
        keys = [r * dim + c for r, c, _ in coos]
        keys += [c.astype(np.int64) * dim + r for r, c, _ in coos[1:]]
        vals = [v for _, _, v in coos] + [v.conj() for _, _, v in coos[1:]]
        union = np.unique(np.concatenate(keys))
        identity = np.arange(dim if len(union) else 0) * (dim + 1)
        union = np.union1d(union, identity)
        keys.append(identity)
        vals.append(np.ones(len(identity), dtype=complex))
        self.basis = np.zeros((len(keys), len(union)), dtype=complex)
        for j, (key, val) in enumerate(zip(keys, vals)):
            self.basis[j, np.searchsorted(union, key)] = val
        self.pattern = csr_pattern(*np.divmod(union, dim), dim)

        self.channels, self.group_weights = _channel_groups(
            keys[1:1 + d], vals[1:1 + d])
        self.sandwich = [model.R[i].csr for i in self.channels]
        self.right_pattern, self.right_basis = _right_operator(
            self.pattern, self.basis[:1 + 2 * d], self.sandwich)
        self.layouts = {}

    def stacked(self, n: int, live_left, live_right) -> _Layout:
        """The two kernel operators of one application to n members (see
        `generator._act`) whose weights are zero outside the rows
        `live_left` of `basis` and `live_right` of `right_basis` (boolean
        masks): each keeps only the entries of its pattern that a live
        row reaches, the columns `left` of `basis` and `right` of
        `right_basis`.  Every other entry is zero in each such generator.
        With every row live this is the whole union layout, less the
        right-hand entries that no row of `right_basis` reaches (the
        diagonal of the identity, which only the left-hand basis has,
        where K has no entry).

        The first operator is held as (pattern, sandwich data), the drift
        data, first in its data, being every generator's own; the second
        as a pattern, all of its data every generator's own.  The first
        holds the drift and each P_g one below the other, each as n
        diagonal blocks, ((1 + G) n dim, n dim); the second is n copies
        of the kept `right_pattern`, (n dim, (1 + G) n dim), that of
        member k reading block k of each group of n column blocks.  Built
        once per (n, live rows) and kept in `layouts`."""
        key = (n, live_left.tobytes(), live_right.tobytes())
        layout = self.layouts.get(key)
        if layout is None:
            left = np.flatnonzero(self.basis[live_left].any(axis=0))
            right = np.flatnonzero(self.right_basis[live_right].any(axis=0))
            drift = _restricted(self.pattern, left)
            kept = _restricted(self.right_pattern, right)
            dim, ops = self.pattern[0], (drift, *self.sandwich)
            first, fixed = _tiled(ops, n, [0] * len(ops), n * dim)
            second, _ = _tiled((kept,), n, [kept[3] // dim * (n - 1)],
                               n * kept[1])
            layout = self.layouts[key] = _Layout(first, fixed, second, left,
                                                right)
        return layout


class _Layout(NamedTuple):
    """The kernel operators of one application to n members, from
    `_OperatorCache.stacked`: the patterns `first` and `second`, the
    sandwich data `fixed` of the first, and the columns `left` of
    `basis` and `right` of `right_basis` whose weighted sums give the
    rest of their data."""

    first: tuple
    fixed: np.ndarray
    second: tuple
    left: np.ndarray
    right: np.ndarray


def _restricted(pattern, entries) -> tuple:
    """The CSR pattern of the entries `entries` (indices, in order) of
    `pattern`."""
    rows, cols, indptr, indices = pattern
    kept = np.zeros(len(indices) + 1, dtype=np.int32)
    kept[entries + 1] = 1
    return (rows, cols, np.cumsum(kept, dtype=np.int32)[indptr],
            indices[entries])


def _right_operator(pattern, drift, sandwich) -> tuple:
    """`right_pattern` and `right_basis` of `_OperatorCache`, from the
    drift `pattern`, the basis rows `drift` of K, R_i and R_i^dag on it,
    and the P_g (`sandwich`): the entries of each operator, in turn, put
    into row-major order, the columns of the g-th moved right by g
    blocks, and each operator's conjugated data placed where its entries
    went."""
    dim = pattern[0]
    ops = [pattern + (drift,)] + [p[:4] + (p[4][None],) for p in sandwich]
    rows = np.concatenate([np.repeat(np.arange(dim), np.diff(op[2]))
                           for op in ops])
    cols = np.concatenate([op[3] + g * dim for g, op in enumerate(ops)])
    order = np.lexsort((cols, rows))
    at = np.empty_like(order)
    at[order] = np.arange(len(order))
    basis = np.zeros((sum(len(op[4]) for op in ops), len(order)),
                     dtype=complex)
    row = entry = 0
    for *_, data in ops:
        count = data.shape[1]
        basis[row:row + len(data), at[entry:entry + count]] = data.conj()
        row, entry = row + len(data), entry + count
    return ((dim, len(ops) * dim)
            + csr_pattern(rows[order], cols[order], dim)[2:]), basis


def _tiled(ops, n: int, shift, cols: int) -> tuple:
    """(pattern, data) of the operators `ops` one below the other, each
    repeated as n diagonal blocks of dim rows, the entries of ops[j]
    moved right by shift[j] blocks (a number, or one per entry); the
    data is that of all but the first, a bare pattern, tiled once per
    block."""
    dim, member = ops[0][0], np.arange(n)[:, None]
    indptr, indices, start = [[0]], [], 0
    for (_, _, ptr, idx, *_), s in zip(ops, shift):
        indptr.append((ptr[1:] + start + len(idx) * member).ravel())
        indices.append((idx + dim * (s + member)).ravel())
        start += n * len(idx)
    return ((n * dim * len(ops), cols,
             np.concatenate(indptr).astype(np.int32),
             np.concatenate(indices).astype(np.int32)),
            np.concatenate([np.zeros(0, dtype=complex)]
                           + [np.tile(op[4], n) for op in ops[1:]]))


def _channel_groups(keys, vals) -> tuple:
    """(channels, group_weights) of the channel operators with entries
    `vals` at the flat positions `keys`: the first channel of each group
    of nonzero operators proportional to it, and the (d, G) array of
    |c_i|^2 for R_i = c_i R_channels[g], zero off the group.  |c_i| is
    max|R_i| / max|P_g|: R_i^dag's entries have the moduli of R_i's, bit
    for bit, so the dual model (`ModelSpec.dual`) finds the same weights,
    where a ratio of two entries could be read at another entry there."""
    d = len(keys)
    first, columns = [], []
    for i, (key, val) in enumerate(zip(keys, vals)):
        if len(val) == 0:
            continue
        for g, j in enumerate(first):
            if _proportional(key, val, keys[j], vals[j]):
                columns[g][i] = (np.max(np.abs(val))
                                 / np.max(np.abs(vals[j]))) ** 2
                break
        else:
            first.append(i)
            columns.append(np.eye(d)[i])
    return first, np.array(columns).reshape(-1, d).T


def _proportional(key, val, rkey, rval) -> bool:
    """Whether val = c * rval entrywise on the same pattern, for some c."""
    if not np.array_equal(key, rkey):
        return False
    k = int(np.argmax(np.abs(rval)))
    c = val[k] / rval[k]
    tol = _PROPORTIONAL_ULPS * np.finfo(float).eps * np.max(np.abs(val))
    return bool(np.max(np.abs(val - c * rval)) <= tol)


@dataclass(frozen=True)
class ModelSpec:
    """Finite-dimensional model data (K, R_1..R_d, scalar S matrix)."""

    space: TruncatedSpace
    d: int
    K: SystemOperator
    R: tuple
    S: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.R) != self.d:
            raise ValidationError(f"expected {self.d} channel operators, "
                                  f"got {len(self.R)}")
        S = np.asarray(self.S, dtype=complex)
        if S.shape != (self.d, self.d):
            raise ValidationError(f"S must be {self.d}x{self.d}")
        object.__setattr__(self, "S", S)
        for op in self.R:
            if op.space != self.space:
                raise ValidationError("channel operator on wrong space")
        if self.K.space != self.space:
            raise ValidationError("K on wrong space")
        entries = [S] + [op.csr[-1] for op in (self.K, *self.R)]
        if not all(np.isfinite(x).all() for x in entries):
            raise ValidationError("K, the R_i and S must be finite")

    @functools.cached_property
    def operators(self) -> _OperatorCache:
        """K, R_i and their adjoints on one sparse pattern, and the channel
        groups, built on first use."""
        return _OperatorCache(self)

    @functools.cached_property
    def dual(self) -> ModelSpec:
        """The model with K^dag and every R_i^dag, each built in one pass,
        and S.  Under Tr(X tau) the dual of s tau + K_L tau + tau K_R +
        sum_g w_g P_g tau P_g^dag is s X + K_R X + X K_L + sum_g w_g
        P_g^dag X P_g, so with the drift weights exchanged
        (`generator.stage_rows`) its generator is this model's adjoint.
        Its operator cache finds this model's channel groups and their
        weights itself, bit for bit (`_channel_groups`)."""
        def adjoint(op):
            rows, cols, data = op.coo()
            return SystemOperator._from_coo(self.space, cols, rows,
                                            data.conj())
        return ModelSpec(self.space, self.d, adjoint(self.K),
                         tuple(map(adjoint, self.R)), self.S, self.label)


@dataclass(frozen=True)
class DpoParams:
    """Physical constants of the degenerate parametric oscillator.

    The channel amplitudes must satisfy
        |alpha_1|^2 + |alpha_2|^2 + |alpha_3|^2 = 2*kappa*(nbar+1)
        |alpha_4|^2 = 2*kappa*nbar
    and the analogous identities for beta with (kappa_p, nbar_p).
    """

    omega_c: float
    g: float
    kappa: float
    nbar: float
    kappa_p: float
    nbar_p: float
    alpha: tuple
    beta: tuple
    theta3: float = 0.0
    lambda_drive: complex = 0j

    REL_TOL = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(complex(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(complex(b) for b in self.beta))
        object.__setattr__(self, "lambda_drive", complex(self.lambda_drive))

    @classmethod
    def from_splittings(cls, *, omega_c, g, kappa, kappa_p, nbar=0.0,
                        nbar_p=0.0, alpha_fractions=None, beta_fractions=None,
                        theta3=0.0, lambda_drive=0j):
        """Build amplitudes from splitting fractions c_i with sum |c_i|^2 = 1.

        alpha = (sqrt(2*kappa*(nbar+1)) * c_i, sqrt(2*kappa*nbar)); same
        pattern for beta with the pump constants.
        """
        if alpha_fractions is None:
            alpha_fractions = (1 / np.sqrt(3),) * 3
        if beta_fractions is None:
            beta_fractions = (1 / np.sqrt(3),) * 3
        for name, fr in (("alpha", alpha_fractions), ("beta", beta_fractions)):
            if len(fr) != 3:
                raise ValidationError(f"{name}_fractions needs 3 entries")
            if abs(sum(abs(c) ** 2 for c in fr) - 1.0) > 1e-10:
                raise ValidationError(
                    f"{name}_fractions must satisfy sum |c_i|^2 = 1")
        alpha = tuple(np.sqrt(2 * kappa * (nbar + 1)) * complex(c)
                      for c in alpha_fractions) + (np.sqrt(2 * kappa * nbar),)
        beta = tuple(np.sqrt(2 * kappa_p * (nbar_p + 1)) * complex(c)
                     for c in beta_fractions) + (np.sqrt(2 * kappa_p * nbar_p),)
        return cls(omega_c=omega_c, g=g, kappa=kappa, nbar=nbar,
                   kappa_p=kappa_p, nbar_p=nbar_p, alpha=alpha, beta=beta,
                   theta3=theta3, lambda_drive=lambda_drive)

    def validate(self):
        if self.omega_c <= 0:
            raise ValidationError("omega_c must be positive")
        if self.kappa <= 0 or self.kappa_p <= 0:
            raise ValidationError("kappa and kappa_p must be positive")
        if self.nbar < 0 or self.nbar_p < 0:
            raise ValidationError("thermal occupations must be nonnegative")
        if len(self.alpha) != 4 or len(self.beta) != 4:
            raise ValidationError("alpha and beta must have 4 components each")
        checks = [
            ("|alpha_1|^2+|alpha_2|^2+|alpha_3|^2 = 2*kappa*(nbar+1)",
             sum(abs(a) ** 2 for a in self.alpha[:3]),
             2 * self.kappa * (self.nbar + 1)),
            ("|alpha_4|^2 = 2*kappa*nbar",
             abs(self.alpha[3]) ** 2, 2 * self.kappa * self.nbar),
            ("|beta_1|^2+|beta_2|^2+|beta_3|^2 = 2*kappa_p*(nbar_p+1)",
             sum(abs(b) ** 2 for b in self.beta[:3]),
             2 * self.kappa_p * (self.nbar_p + 1)),
            ("|beta_4|^2 = 2*kappa_p*nbar_p",
             abs(self.beta[3]) ** 2, 2 * self.kappa_p * self.nbar_p),
        ]
        bad = [name for name, lhs, rhs in checks
               if abs(lhs - rhs) > self.REL_TOL * max(1.0, abs(rhs))]
        if bad:
            raise ValidationError(
                "amplitude constraints violated: " + "; ".join(bad))
        if self.lambda_drive != 0 and self.beta[1] == 0:
            raise ValidationError("beta_2 must be nonzero when the laser "
                                  "drive is on")


def _dpo_drift(params: DpoParams, space: TruncatedSpace) -> SystemOperator:
    """Entrywise construction of K on the truncated basis."""
    g = params.g
    wc = params.omega_c
    kap, nb = params.kappa, params.nbar
    kap_p, nb_p = params.kappa_p, params.nbar_p
    entries = {}
    for n in range(space.n_max + 1):
        for m in range(space.m_max + 1):
            row = space.index(n, m)
            # (K u)_{n,m} picks u_{n-2,m+1} with weight (g/2)sqrt(n(n-1)(m+1))
            if n >= 2 and m + 1 <= space.m_max and g != 0:
                entries[(row, space.index(n - 2, m + 1))] = \
                    0.5 * g * np.sqrt(n * (n - 1) * (m + 1))
            if m >= 1 and n + 2 <= space.n_max and g != 0:
                entries[(row, space.index(n + 2, m - 1))] = \
                    -0.5 * g * np.sqrt(m * (n + 1) * (n + 2))
            diag = (kap * nb + kap_p * nb_p
                    + 1j * wc * n + kap * (2 * nb + 1) * n
                    + 2j * wc * m + kap_p * (2 * nb_p + 1) * m)
            if diag != 0:
                entries[(row, row)] = -diag
    return SystemOperator.from_entries(space, entries)


def dpo_model(params: DpoParams, space: TruncatedSpace) -> ModelSpec:
    """Degenerate parametric oscillator on a truncated space, d = 8.

    Channel order: 1, 2 photocounters; 3 homodyne; 4 laser injection;
    5-8 losses and thermal noise.  No scattering between channels.
    """
    params.validate()
    a = ladder_a(space)
    adag = ladder_a_dag(space)
    b = ladder_b(space)
    bdag = ladder_b_dag(space)
    al, be = params.alpha, params.beta
    R = (be[0] * b, al[0] * a, al[1] * a, be[1] * b,
         be[2] * b, al[2] * a, be[3] * bdag, al[3] * adag)
    K = _dpo_drift(params, space)
    return ModelSpec(space=space, d=8, K=K, R=R, S=np.eye(8, dtype=complex),
                     label="dpo")


def trivial_model(d: int) -> ModelSpec:
    """System-free model: dim-1 space, K = 0, R_i = 0, S = identity."""
    space = TruncatedSpace(0, 0)
    zero = SystemOperator.zero(space)
    return ModelSpec(space=space, d=d, K=zero, R=(zero,) * d,
                     S=np.eye(d, dtype=complex), label="trivial")


@dataclass(frozen=True)
class DissipativityReport:
    max_residual: float
    interior_dim: int


@np.errstate(over="ignore", invalid="ignore")
def check_dissipativity(model: ModelSpec, guard: int = 2) -> DissipativityReport:
    """Exact residual of 2 Re<Ku|u> + sum_k ||R_k u||^2 on the truncation
    interior, `space.interior(guard)`.

    The identity reads u^dag D u = 0 with D = K + K^dag + sum_k R_k^dag R_k,
    so its supremum over unit vectors u supported on the interior is the
    largest |eigenvalue| of the interior block of D, formed densely.  The
    identity is exact in the interior and broken only at the cutoff, so
    the guard must cover the largest raising degree of K and the R_i.  A
    block that overflows raises ValidationError.
    """
    space = model.space
    interior = space.interior(guard)
    if len(interior) == 0:
        raise ValueError(f"guard={guard} leaves no interior on "
                         f"({space.n_max}, {space.m_max})")
    block = _dissipation(model)[np.ix_(interior, interior)]
    if not np.isfinite(block).all():
        raise ValidationError("K + K^dag + sum_k R_k^dag R_k overflows")
    return DissipativityReport(
        max_residual=float(np.max(np.abs(np.linalg.eigvalsh(block)))),
        interior_dim=len(interior))


def _dissipation(model: ModelSpec) -> np.ndarray:
    """D = K + K^dag + sum_k R_k^dag R_k, dense.  Each R_k^dag R_k is one
    call of the CSR kernel, R_k^dag (of `ModelSpec.dual`) on the dense
    R_k: nnz(R_k) dim multiply-adds, where a dense product takes dim^3."""
    K = model.K.to_dense()
    D = K + K.conj().T
    product = np.empty_like(D)
    for op, adjoint in zip(model.R, model.dual.R):
        rows, cols, indptr, indices, data = adjoint.csr
        product.fill(0)
        csr_matvecs(rows, cols, cols, indptr, indices, data,
                    op.to_dense().ravel(), product.ravel())
        D += product
    return D


def check_S_unitary(model: ModelSpec) -> float:
    """Max deviation of S*S and SS* from the identity."""
    S = model.S
    eye = np.eye(model.d)
    dev1 = np.max(np.abs(S.conj().T @ S - eye)) if model.d else 0.0
    dev2 = np.max(np.abs(S @ S.conj().T - eye)) if model.d else 0.0
    return float(max(dev1, dev2))


def dpo_laser_field(params: DpoParams, horizon: float):
    """Coherent field profile realizing the laser drive on the pump.

    Only channel 4 carries the laser; its profile is
    f_4(t) = i * lambda * exp(-2 i omega_c t) / conj(beta_2) on [0, horizon).
    """
    from .signals import ZERO, FieldProfile, Harmonic

    params.validate()
    signals = [ZERO] * 8
    if params.lambda_drive != 0:
        amp = 1j * params.lambda_drive / np.conj(params.beta[1])
        signals[3] = Harmonic(amp, 0.0, -2.0 * params.omega_c)
    return FieldProfile(tuple(signals), horizon)
