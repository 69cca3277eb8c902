"""Sparse complex operator algebra on a truncated two-mode Fock space.

Basis vectors are e_{n,m} with 0 <= n <= n_max (first mode) and
0 <= m <= m_max (second mode), flattened as idx = n*(m_max+1) + m.
Every sparse operator of the program is held as the arguments of
scipy's CSR kernel, (rows, cols, indptr, indices, data), and
`csr_product` is its one kernel call; states are dense arrays.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

_SPARSETOOLS = "scipy.sparse._sparsetools"


class _BindKernel:
    """Meta path finder that binds the already loaded kernel module to
    `scipy.sparse`, imported later, as `_sparsetools` before the
    package's `__init__` runs: Python binds a submodule to its package
    only when it loads the submodule.  It removes itself on use."""

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name != "scipy.sparse":
            return None
        sys.meta_path.remove(cls)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def bind_and_exec(module):
            module._sparsetools = sys.modules[_SPARSETOOLS]
            exec_module(module)

        spec.loader.exec_module = bind_and_exec
        return spec


def _load_sparsetools():
    """scipy's compiled sparse kernel module, without the `scipy.sparse`
    package, whose `__init__` loads about 300 modules; the kernel needs
    only numpy.  Registered under its own name, so `scipy.sparse`,
    imported before or after, shares it (`_BindKernel`)."""
    if _SPARSETOOLS not in sys.modules:
        scipy = importlib.util.find_spec("scipy")
        spec = scipy and importlib.machinery.PathFinder.find_spec(
            _SPARSETOOLS, [os.path.join(path, "sparse")
                           for path in scipy.submodule_search_locations])
        if spec is None:
            from importlib.metadata import version
            found = f"scipy {version('scipy')}" if scipy else "no scipy"
            raise ImportError(f"{_SPARSETOOLS} not found ({found} "
                              "installed; contmeas needs scipy>=1.10)")
        sys.modules[_SPARSETOOLS] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[_SPARSETOOLS])
        sys.meta_path.insert(0, _BindKernel)
    return sys.modules[_SPARSETOOLS]


_sparsetools = _load_sparsetools()
csr_matvecs = _sparsetools.csr_matvecs


def csr_product(op: tuple, X: np.ndarray, out: np.ndarray | None = None):
    """op X for op = (rows, cols, indptr, indices, data) and X of `cols`
    rows, 2-D or flat: scipy's kernel call for `op * X` after its checks,
    into `out` if given, a zeroed C-contiguous array of the result's size."""
    rows, cols, indptr, indices, data = op
    if out is None:
        out = np.zeros((rows, X.size // cols), dtype=complex)
    csr_matvecs(rows, cols, X.size // cols, indptr, indices, data,
                X.ravel(), out.ravel())
    return out


def csr_pattern(rows: np.ndarray, cols: np.ndarray, dim: int) -> tuple:
    """CSR pattern (dim, dim, indptr, indices) of the entries (rows, cols),
    given row by row."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows,
                                                        minlength=dim))))
    return (dim, dim, indptr.astype(np.int32), cols.astype(np.int32))


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

    def interior(self, guard: int) -> np.ndarray:
        """Sorted indices of the basis vectors e_{n,m} with
        n <= n_max - guard and m <= m_max - guard; empty when the guard
        exceeds a cutoff."""
        if guard < 0:
            raise ValueError("guard must be nonnegative")
        n = np.arange(self.n_max + 1 - guard)
        m = np.arange(self.m_max + 1 - guard)
        return (n[:, None] * (self.m_max + 1) + m).ravel()


class SystemOperator:
    """Immutable sparse complex matrix bound to a TruncatedSpace, as
    `csr` in canonical form: rows in order, sorted column indices in each
    row, exact zeros dropped."""

    __slots__ = ("space", "csr")

    def __init__(self, space: TruncatedSpace, matrix):
        """From a dense (dim, dim) matrix."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise DimensionMismatchError(
                f"matrix shape {matrix.shape} does not match space dim "
                f"{space.dim}")
        rows, cols = np.nonzero(matrix)
        self.space = space
        self.csr = csr_pattern(rows, cols, space.dim) + (matrix[rows, cols],)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_coo(cls, space: TruncatedSpace, rows, cols,
                  vals) -> "SystemOperator":
        """From distinct entries vals at (rows, cols), in any order."""
        rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
        vals = np.asarray(vals, dtype=complex)
        keep = np.argsort(rows * space.dim + cols)
        keep = keep[vals[keep] != 0]
        op = cls.__new__(cls)
        op.space = space
        op.csr = csr_pattern(rows[keep], cols[keep], space.dim) + (vals[keep],)
        return op

    @classmethod
    def from_entries(cls, space: TruncatedSpace, entries: dict) -> "SystemOperator":
        """Build from a {(row, col): value} map."""
        keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        if np.any((keys < 0) | (keys >= space.dim)):
            raise ValueError(f"entry outside a {space.dim}x{space.dim} matrix")
        return cls._from_coo(space, keys[:, 0], keys[:, 1],
                             list(entries.values()))

    @classmethod
    def zero(cls, space: TruncatedSpace) -> "SystemOperator":
        return cls._from_coo(space, [], [], [])

    # -- inspection --------------------------------------------------------

    def coo(self) -> tuple:
        """(rows, cols, data) of the stored entries, row by row."""
        dim, _, indptr, indices, data = self.csr
        return np.repeat(np.arange(dim), np.diff(indptr)), indices, data

    def to_dense(self) -> np.ndarray:
        rows, cols, data = self.coo()
        out = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        out[rows, cols] = data
        return out

    # -- algebra -----------------------------------------------------------

    def scale(self, scalar: complex) -> "SystemOperator":
        # data times a Python complex, as scipy's own scalar product forms it
        rows, cols, data = self.coo()
        return SystemOperator._from_coo(self.space, rows, cols,
                                        data * complex(scalar))

    def __mul__(self, scalar):
        return self.scale(scalar)

    __rmul__ = __mul__

    def transpose(self) -> "SystemOperator":
        rows, cols, data = self.coo()
        return SystemOperator._from_coo(self.space, cols, rows, data)


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
    return ladder_a(space).transpose()


def ladder_b(space: TruncatedSpace) -> SystemOperator:
    entries = {}
    for n in range(space.n_max + 1):
        for m in range(1, space.m_max + 1):
            entries[(space.index(n, m - 1), space.index(n, m))] = np.sqrt(m)
    return SystemOperator.from_entries(space, entries)


def ladder_b_dag(space: TruncatedSpace) -> SystemOperator:
    return ladder_b(space).transpose()


def guard_band_leakage(space: TruncatedSpace, rho: np.ndarray,
                       guard: int = 2) -> float:
    """Occupation pushed against the truncation edge: the sum of
    |rho_{(n,m),(n,m)}| over the basis vectors outside
    `space.interior(guard)`, in index order.  Meaningful on a density
    matrix; a large value means the cutoff interferes with the dynamics.
    """
    if rho.shape != (space.dim, space.dim):
        raise DimensionMismatchError("matrix shape does not match space")
    band = np.ones(space.dim, dtype=bool)
    band[space.interior(guard)] = False
    total = 0.0
    for value in np.diagonal(rho)[band]:
        total += abs(value)
    return float(total)
