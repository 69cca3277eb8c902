"""Sparse complex operator algebra on a truncated two-mode Fock space.

Basis vectors are e_{n,m} with 0 <= n <= n_max (first mode) and
0 <= m <= m_max (second mode), flattened as idx = n*(m_max+1) + m.
Operators are stored sparse (they are banded); states and density
matrices are dense numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class TruncatedSpace:
    """Finite two-index Fock basis with hard photon-number cutoffs."""

    n_max: int
    m_max: int

    def __post_init__(self):
        if self.n_max < 0 or self.m_max < 0:
            raise ValueError("cutoffs must be nonnegative")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * (self.m_max + 1)

    def index(self, n: int, m: int) -> int:
        if not (0 <= n <= self.n_max and 0 <= m <= self.m_max):
            raise IndexError(f"(n={n}, m={m}) outside truncation "
                             f"({self.n_max}, {self.m_max})")
        return n * (self.m_max + 1) + m

    def basis_vector(self, n: int, m: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index(n, m)] = 1.0
        return v


class SystemOperator:
    """Immutable sparse complex matrix bound to a TruncatedSpace.

    Only exact zeros are dropped from storage; every entry produced by a
    formula is kept as-is.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: TruncatedSpace, matrix):
        mat = sp.csr_matrix(matrix, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise DimensionMismatchError(
                f"matrix shape {mat.shape} does not match space dim {space.dim}")
        mat.eliminate_zeros()
        self.space = space
        self.matrix = mat

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_entries(cls, space: TruncatedSpace, entries: dict) -> "SystemOperator":
        """Build from a {(row, col): value} map."""
        if entries:
            rows, cols = zip(*entries.keys())
            vals = list(entries.values())
        else:
            rows, cols, vals = [], [], []
        mat = sp.coo_matrix((vals, (rows, cols)),
                            shape=(space.dim, space.dim), dtype=complex)
        return cls(space, mat)

    @classmethod
    def zero(cls, space: TruncatedSpace) -> "SystemOperator":
        return cls(space, sp.csr_matrix((space.dim, space.dim), dtype=complex))

    # -- inspection --------------------------------------------------------

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    # -- algebra -----------------------------------------------------------

    def scale(self, scalar: complex) -> "SystemOperator":
        return SystemOperator(self.space, self.matrix * complex(scalar))

    def __mul__(self, scalar):
        return self.scale(scalar)

    __rmul__ = __mul__

    # -- matrix-free applications -----------------------------------------

    def apply_to_vector(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.space.dim,):
            raise DimensionMismatchError("vector length does not match space")
        return self.matrix @ v


# -- ladder operators ----------------------------------------------------


def ladder_a(space: TruncatedSpace) -> SystemOperator:
    """Annihilator of the first mode: a e_{n,m} = sqrt(n) e_{n-1,m}."""
    entries = {}
    for n in range(1, space.n_max + 1):
        for m in range(space.m_max + 1):
            entries[(space.index(n - 1, m), space.index(n, m))] = np.sqrt(n)
    return SystemOperator.from_entries(space, entries)


def ladder_a_dag(space: TruncatedSpace) -> SystemOperator:
    """Creator of the first mode; the row leaving the truncation is dropped."""
    return SystemOperator(space, ladder_a(space).matrix.T)


def ladder_b(space: TruncatedSpace) -> SystemOperator:
    entries = {}
    for n in range(space.n_max + 1):
        for m in range(1, space.m_max + 1):
            entries[(space.index(n, m - 1), space.index(n, m))] = np.sqrt(m)
    return SystemOperator.from_entries(space, entries)


def ladder_b_dag(space: TruncatedSpace) -> SystemOperator:
    return SystemOperator(space, ladder_b(space).matrix.T)


def guard_band_leakage(space: TruncatedSpace, rho: np.ndarray,
                       guard: int = 2) -> float:
    """Occupation pushed against the truncation edge.

    Sum of |rho_{(n,m),(n,m)}| over the guard band n > n_max - guard or
    m > m_max - guard.  Meaningful on a density matrix (a plain
    propagation with the test function switched off); a large value means
    the cutoff is interfering with the dynamics.
    """
    if rho.shape != (space.dim, space.dim):
        raise DimensionMismatchError("matrix shape does not match space")
    total = 0.0
    for n in range(space.n_max + 1):
        for m in range(space.m_max + 1):
            if n > space.n_max - guard or m > space.m_max - guard:
                idx = space.index(n, m)
                total += abs(rho[idx, idx])
    return float(total)
