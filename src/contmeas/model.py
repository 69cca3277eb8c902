"""Model data: the drift operator K, channel operators R_i, the scalar
scattering matrix S and an optional Z2 grading of the basis, plus the
degenerate-parametric-oscillator builder.

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
from .fock import (SystemOperator, TruncatedSpace, csr_pattern, csr_product,
                   ladder_a, ladder_a_dag, ladder_b, ladder_b_dag)


# Two channel operators share a sandwich product when one is a scalar
# multiple of the other to within this many units in the last place of
# its largest entry.
_PROPORTIONAL_ULPS = 8


class _OperatorCache:
    """The model's operators in the layout the generator applies, each,
    like `SystemOperator.csr`, as the arguments of scipy's CSR kernel, a
    pattern as the same without the data.

    `pattern` is the union of the patterns of K, R_1..R_d,
    R_1^dag..R_d^dag and the identity, and row j of `basis` the j-th of
    them on it, so a weighted sum of them is one vector-matrix product;
    it is empty for a model without operators.  The nonzero channel
    operators are grouped as R_i = c_i P_g (`_channel_groups`), P_g =
    `sandwich[g]`.  `right_pattern` is that of one member's right-hand
    operator [K_R^T | w_1 conj P_1 | ... | w_G conj P_G], and row j of
    `right_basis` is conj K, conj R_1..conj R_d, conj R_1^dag..conj
    R_d^dag and then each conj P_g on it.

    For a model with a grading of two nonempty sectors, `sectors` is its
    index map (`_Sectors`) and `odd` marks the rows of `basis` and of
    `right_basis` that belong to an odd R_i or R_i^dag; else both are
    None.
    """

    __slots__ = ("pattern", "basis", "channels", "group_weights",
                 "sandwich", "right_pattern", "right_basis", "layouts",
                 "sectors", "odd")

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
        grading = model.grading
        self.sectors = self.odd = None
        if grading is not None and grading.any() and not grading.all():
            self.sectors = _sectors(grading)
            odd = [len(r) > 0 and grading[r[0]] != grading[c[0]]
                   for r, c, _ in coos[1:]]
            self.odd = (np.array([False, *odd, *odd, False]),
                        np.array([False, *odd, *odd]
                                 + [False] * len(self.sandwich)))

    def keeps_sectors(self, live_left, live_right) -> bool:
        """Whether generators whose live rows of `basis` and `right_basis`
        are `live_left` and `live_right` keep tau on the sectors: no live
        drift row belongs to an odd operator, so odd operators enter only
        through sandwiches P_g tau P_g^dag, which map sector to sector."""
        return not ((self.odd[0] & live_left).any()
                    or (self.odd[1] & live_right).any())

    def stacked(self, n: int, live_left, live_right,
                sectored: bool = False) -> _Layout:
        """The `laid` layout for n members whose weights are zero outside
        the rows `live_left` of `basis` and `live_right` of `right_basis`
        (boolean masks), on only the entries a live row reaches.  Built
        once per (n, live rows, sectored) for all the model's stacks."""
        key = (n, live_left.tobytes(), live_right.tobytes(), sectored)
        layout = self.layouts.get(key)
        if layout is None:
            layout = self.layouts[key] = self.laid(
                n, np.flatnonzero(self.basis[live_left].any(axis=0)),
                np.flatnonzero(self.right_basis[live_right].any(axis=0)),
                sectored)
        return layout

    def laid(self, n: int, left, right, sectored: bool) -> _Layout:
        """The layout of the two kernel operators of `generator._act` for
        n members on the entries `left` of `pattern` and `right` of
        `right_pattern`.  Each member is held on the grading's sectors
        (`sectored`), as a (2, D, D) array of its two diagonal blocks
        (`_Sectors`), or as one (dim, dim) block; either way as s blocks
        of D states one below the other.  The first operator holds the
        drift and each P_g one
        below the other, each entry moved into the block of its column,
        so an odd P_g maps a block to the other; each as n diagonal
        member blocks.  The second is n copies of `right_pattern` on the
        blocks, member k reading block k of each group of n column
        blocks."""
        dim = self.pattern[0]
        position, member = ((self.sectors.position, self.sectors.member)
                            if sectored else (np.arange(dim), (dim, dim)))
        width, size = member[-1], int(np.prod(member[:-1]))

        def folded(r, c):
            return position[c] // width * width + position[r] % width, \
                position[c]

        drift, left = _moved(self.pattern, left, folded, (size, size))
        sandwich = []
        for p in self.sandwich:
            pattern, order = _moved(p, np.arange(len(p[3])), folded,
                                    (size, size))
            sandwich.append(pattern + (p[4][order],))
        kept, right = _moved(
            self.right_pattern, right,
            lambda r, c: (position[r], c // dim * size + position[c % dim]),
            (size, self.right_pattern[1] // dim * size))
        first, fixed = _tiled((drift, *sandwich), n,
                              [0] * (1 + len(sandwich)), n * size)
        second, _ = _tiled((kept,), n, [kept[3] // size * (n - 1)],
                           n * kept[1])
        return _Layout(first, fixed, second, left, right, member)


class _Layout(NamedTuple):
    """The patterns `first` and `second` of `_OperatorCache.stacked`,
    the sandwich data `fixed` that ends the first's data, the kept
    columns `left` of `basis` and `right` of `right_basis` in the order
    of the patterns' entries, and the shape `member` of a member."""

    first: tuple
    fixed: np.ndarray
    second: tuple
    left: np.ndarray
    right: np.ndarray
    member: tuple


class _Sectors(NamedTuple):
    """The index map of a grading's two sectors.  A member tau that is
    zero off the sectors is held as its two diagonal blocks, each padded
    to the larger sector's D states, a (2, D, D) array of shape
    `member`: basis state r is row `position[r]` = D * sector + its rank
    in its sector of the blocks one below the other, so the basis order
    holds inside a sector.  `entries` are the flat indices of the
    in-sector entries of a (dim, dim) matrix, `packed` theirs in a
    member, and `diagonal` those of the diagonal there, in basis
    order."""

    member: tuple
    position: np.ndarray
    entries: np.ndarray
    packed: np.ndarray
    diagonal: np.ndarray

    def holds(self, tau) -> bool:
        """Whether every member of the (n, dim, dim) stack tau is exactly
        zero off the sectors."""
        flat = tau.reshape(len(tau), -1)
        return np.count_nonzero(flat[:, self.entries]) == np.count_nonzero(
            flat)

    def pack(self, tau) -> np.ndarray:
        """The (n, 2, D, D) blocks of the (n, dim, dim) stack tau."""
        out = np.zeros((len(tau),) + self.member, dtype=complex)
        out.reshape(len(tau), -1)[:, self.packed] = \
            tau.reshape(len(tau), -1)[:, self.entries]
        return out

    def unpack(self, tau) -> np.ndarray:
        """The (n, dim, dim) stack of the blocks tau."""
        dim = len(self.position)
        out = np.zeros((len(tau), dim, dim), dtype=complex)
        out.reshape(len(tau), -1)[:, self.entries] = \
            tau.reshape(len(tau), -1)[:, self.packed]
        return out

    def traces(self, tau) -> np.ndarray:
        """The trace of each member of the blocks tau, its diagonal summed
        in basis order, as `np.trace` sums it."""
        return np.array([x.sum() for x in
                         tau.reshape(len(tau), -1)[:, self.diagonal]])


def _sectors(odd) -> _Sectors:
    """The `_Sectors` of the grading `odd`, True on the odd sector."""
    odd = odd.astype(np.intp)
    sizes = np.bincount(odd, minlength=2)
    width = int(sizes.max())
    rank = np.empty(len(odd), dtype=np.intp)
    for label, size in enumerate(sizes):
        rank[odd == label] = np.arange(size)
    position = odd * width + rank
    rows, cols = np.nonzero(odd[:, None] == odd)
    return _Sectors((2, width, width), position, rows * len(odd) + cols,
                    position[rows] * width + rank[cols],
                    position * width + rank)


def _moved(pattern, entries, move, shape) -> tuple:
    """The CSR pattern, of `shape`, of the entries `entries` (indices) of
    `pattern`, entry (r, c) moved to move(r, c), and those entries in
    its order.  A move that keeps the order of each row's columns keeps
    the order of its terms."""
    rows = np.repeat(np.arange(pattern[0]), np.diff(pattern[2]))[entries]
    rows, cols = move(rows, pattern[3][entries])
    order = np.lexsort((cols, rows))
    return (shape + csr_pattern(rows[order], cols[order], shape[0])[2:],
            entries[order])


def _right_operator(pattern, drift, sandwich) -> tuple:
    """`right_pattern` and `right_basis` of `_OperatorCache`, from the
    drift `pattern`, the basis rows `drift` of K, R_i and R_i^dag on it,
    and the P_g (`sandwich`), the g-th moved right by g blocks."""
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
    as n diagonal blocks, ops[j] moved right by shift[j] blocks (a number
    or one per entry); the data is that of all but the first, a bare
    pattern."""
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
    """Finite-dimensional model data (K, R_1..R_d, scalar S matrix), and
    an optional Z2 `grading` of the basis, True on the odd sector, under
    which K must be even and every nonzero R_i even or odd (checked).
    A model without one has one sector."""

    space: TruncatedSpace
    d: int
    K: SystemOperator
    R: tuple
    S: np.ndarray
    grading: np.ndarray | None = None

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
        if self.grading is not None:
            odd = np.asarray(self.grading, dtype=bool)
            if odd.shape != (self.space.dim,):
                raise ValidationError("the grading needs one entry per "
                                      "basis state")
            object.__setattr__(self, "grading", odd)
            for j, op in enumerate((self.K, *self.R)):
                rows, cols, _ = op.coo()
                flips = odd[rows] != odd[cols]
                if flips.any() and (j == 0 or not flips.all()):
                    raise ValidationError("the grading must leave K even "
                                          "and each R_i even or odd")

    @functools.cached_property
    def operators(self) -> _OperatorCache:
        """K, R_i and their adjoints on one sparse pattern, and the channel
        groups, built on first use."""
        return _OperatorCache(self)

    @functools.cached_property
    def dual(self) -> ModelSpec:
        """The model with K^dag, every R_i^dag and S.  Under Tr(X tau) the
        dual of s tau + K_L tau + tau K_R + sum_g w_g P_g tau P_g^dag is
        s X + K_R X + X K_L + sum_g w_g P_g^dag X P_g, so with the drift
        weights exchanged (`generator.stage_rows`) its generator is this
        model's adjoint."""
        def adjoint(op):
            rows, cols, data = op.coo()
            return SystemOperator._from_coo(self.space, cols, rows,
                                            data.conj())
        return ModelSpec(self.space, self.d, adjoint(self.K),
                         tuple(map(adjoint, self.R)), self.S, self.grading)


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
    """Degenerate parametric oscillator on a truncated space, d = 8,
    graded by the parity of the subharmonic photon number n: K and the
    pump's operators are even under a -> -a, the a-channel ones odd.

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
                     grading=_a_parity(space))


def _a_parity(space: TruncatedSpace) -> np.ndarray:
    """True on the basis states of odd subharmonic photon number n."""
    return np.arange(space.dim) // (space.m_max + 1) % 2 == 1


def trivial_model(d: int) -> ModelSpec:
    """System-free model: dim-1 space, K = 0, R_i = 0, S = identity."""
    space = TruncatedSpace(0, 0)
    zero = SystemOperator.zero(space)
    return ModelSpec(space=space, d=d, K=zero, R=(zero,) * d,
                     S=np.eye(d, dtype=complex))


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
    """D = K + K^dag + sum_k R_k^dag R_k, dense, each R_k^dag R_k a sparse
    product with the dense R_k: nnz(R_k) dim multiply-adds, not dim^3."""
    K = model.K.to_dense()
    D = K + K.conj().T
    for op, adjoint in zip(model.R, model.dual.R):
        D += csr_product(adjoint.csr, op.to_dense())
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
