import numpy as np
import pytest

from contmeas import (DimensionMismatchError, DpoParams, SystemOperator,
                      TruncatedSpace, dpo_model, guard_band_leakage, ladder_a,
                      ladder_a_dag, ladder_b, ladder_b_dag)
from contmeas.generator import _OperatorCache, _rmul


def test_index_unravel_roundtrip():
    sp = TruncatedSpace(5, 3)
    assert sp.dim == 24
    seen = set()
    for n in range(6):
        for m in range(4):
            idx = sp.index(n, m)
            assert divmod(idx, sp.m_max + 1) == (n, m)
            seen.add(idx)
    assert seen == set(range(sp.dim))


def test_basis_vector():
    sp = TruncatedSpace(2, 2)
    v = sp.basis_vector(1, 2)
    assert v[sp.index(1, 2)] == 1.0
    assert np.sum(np.abs(v)) == 1.0


def test_ladder_entries():
    sp = TruncatedSpace(4, 3)
    a = ladder_a(sp)
    # a |n, m> = sqrt(n) |n-1, m>
    v = a.apply_to_vector(sp.basis_vector(3, 1))
    assert v[sp.index(2, 1)] == pytest.approx(np.sqrt(3))
    assert np.count_nonzero(v) == 1
    b = ladder_b(sp)
    w = b.apply_to_vector(sp.basis_vector(0, 3))
    assert w[sp.index(0, 2)] == pytest.approx(np.sqrt(3))


def test_raising_drops_top_row():
    sp = TruncatedSpace(3, 2)
    ad = ladder_a_dag(sp)
    assert np.all(ad.apply_to_vector(sp.basis_vector(3, 1)) == 0)
    bd = ladder_b_dag(sp)
    assert np.all(bd.apply_to_vector(sp.basis_vector(0, 2)) == 0)


def test_commutator_on_interior():
    sp = TruncatedSpace(6, 5)
    a, ad = ladder_a(sp).to_dense(), ladder_a_dag(sp).to_dense()
    comm = a @ ad - ad @ a
    for n in range(6):       # identity except on the top ladder rung
        for m in range(6):
            idx = sp.index(n, m)
            assert comm[idx, idx] == pytest.approx(1.0)


def test_number_operators():
    # a^dag a and b^dag b count the quanta of each mode, cutoff included
    sp = TruncatedSpace(3, 3)
    na = ladder_a_dag(sp).to_dense() @ ladder_a(sp).to_dense()
    nb = ladder_b_dag(sp).to_dense() @ ladder_b(sp).to_dense()
    for n in range(4):
        for m in range(4):
            idx = sp.index(n, m)
            assert na[idx, idx] == pytest.approx(n)
            assert nb[idx, idx] == pytest.approx(m)


def test_adjoint_matches_dense():
    # the generator's cached adjoints of K and the R_i
    params = DpoParams.from_splittings(omega_c=1.0, g=0.3, kappa=0.5,
                                       kappa_p=1.0, nbar=0.2, nbar_p=0.1)
    model = dpo_model(params, TruncatedSpace(3, 2))
    cache = _OperatorCache(model)
    assert np.max(np.abs(cache.K_dag.toarray()
                         - model.K.to_dense().conj().T)) == 0
    for R, R_dag in zip(model.R, cache.R_dag):
        assert np.max(np.abs(R_dag.toarray() - R.to_dense().conj().T)) == 0


def test_density_applications_match_dense():
    rng = np.random.default_rng(3)
    sp = TruncatedSpace(3, 3)
    X = ladder_a(sp).matrix + 0.3j * ladder_b_dag(sp).matrix
    rho = rng.standard_normal((sp.dim, sp.dim)) \
        + 1j * rng.standard_normal((sp.dim, sp.dim))
    Xd = X.toarray()
    assert np.allclose(X @ rho, Xd @ rho, atol=1e-14)
    assert np.allclose(_rmul(X, rho), rho @ Xd, atol=1e-14)


def test_algebra_operators():
    sp = TruncatedSpace(2, 2)
    a = ladder_a(sp)
    assert np.allclose((2.0 * a).to_dense(), 2.0 * a.to_dense(), atol=1e-15)
    assert np.allclose((a * 0.5j).to_dense(), 0.5j * a.to_dense(),
                       atol=1e-15)
    assert (0.0 * a).nnz == 0   # exact zeros are dropped


def test_space_mismatch_raises():
    a1 = ladder_a(TruncatedSpace(2, 2))
    a2 = ladder_a(TruncatedSpace(3, 2))
    with pytest.raises(DimensionMismatchError):
        SystemOperator(a1.space, a2.matrix)
    with pytest.raises(DimensionMismatchError):
        a1.apply_to_vector(np.zeros(16))


def test_from_entries_and_entry():
    sp = TruncatedSpace(2, 1)
    op = SystemOperator.from_entries(sp, {(0, 1): 2.5j, (3, 3): -1.0})
    dense = op.to_dense()
    assert dense[0, 1] == 2.5j
    assert dense[3, 3] == -1.0
    assert dense[1, 0] == 0.0
    assert op.nnz == 2


def test_guard_band_leakage():
    sp = TruncatedSpace(4, 4)
    rho = np.zeros((sp.dim, sp.dim), dtype=complex)
    rho[sp.index(0, 0), sp.index(0, 0)] = 0.9
    rho[sp.index(4, 0), sp.index(4, 0)] = 0.06     # in the band (n side)
    rho[sp.index(1, 3), sp.index(1, 3)] = 0.04     # in the band (m side)
    assert guard_band_leakage(sp, rho, guard=2) == pytest.approx(0.10)
    assert guard_band_leakage(sp, rho, guard=0) == 0.0
