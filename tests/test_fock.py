import numpy as np
import pytest

import helpers
from contmeas import (DimensionMismatchError, DpoParams, SystemOperator,
                      TruncatedSpace, dpo_model, guard_band_leakage, ladder_a,
                      ladder_a_dag, ladder_b, ladder_b_dag)
from contmeas.generator import _product


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


def basis_vector(space, n, m):
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(n, m)] = 1.0
    return v


def test_ladder_entries():
    sp = TruncatedSpace(4, 3)
    a = ladder_a(sp)
    # a |n, m> = sqrt(n) |n-1, m>
    v = a.to_dense() @ basis_vector(sp, 3, 1)
    assert v[sp.index(2, 1)] == pytest.approx(np.sqrt(3))
    assert np.count_nonzero(v) == 1
    b = ladder_b(sp)
    w = b.to_dense() @ basis_vector(sp, 0, 3)
    assert w[sp.index(0, 2)] == pytest.approx(np.sqrt(3))


def test_raising_drops_top_row():
    sp = TruncatedSpace(3, 2)
    ad = ladder_a_dag(sp)
    assert np.all(ad.to_dense() @ basis_vector(sp, 3, 1) == 0)
    bd = ladder_b_dag(sp)
    assert np.all(bd.to_dense() @ basis_vector(sp, 0, 2) == 0)


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
    # the model's cached K, R_i, adjoints R_i^dag and identity on one
    # pattern, and the dual model's K^dag, R_i^dag, R_i and identity on
    # its own, each built once per model
    params = DpoParams.from_splittings(omega_c=1.0, g=0.3, kappa=0.5,
                                       kappa_p=1.0, nbar=0.2, nbar_p=0.1)
    model = dpo_model(params, TruncatedSpace(3, 2))
    cache, dual = model.operators, model.dual.operators
    assert model.operators is cache and model.dual.operators is dual
    dense = [model.K.to_dense()] + [R.to_dense() for R in model.R] \
        + [R.to_dense().conj().T for R in model.R] \
        + [np.eye(model.space.dim)]
    assert len(cache.basis) == len(dual.basis) == len(dense)
    for row, dual_row, ref in zip(cache.basis, dual.basis, dense):
        op = cache.pattern + (row,)
        assert np.max(np.abs(helpers.dense_operand(op) - ref)) == 0
        op_dual = dual.pattern + (dual_row,)
        assert np.max(np.abs(helpers.dense_operand(op_dual)
                             - ref.conj().T)) == 0


def test_density_applications_match_dense():
    # X tau and tau X on the cached patterns, the latter as (X^T tau^T)^T
    # with X^T = conj(X^dag) on the dual model's pattern
    rng = np.random.default_rng(3)
    sp = TruncatedSpace(3, 3)
    params = DpoParams.from_splittings(omega_c=1.0, g=0.3, kappa=0.5,
                                       kappa_p=1.0)
    model = dpo_model(params, sp)
    cache, dual = model.operators, model.dual.operators
    w = rng.standard_normal(len(cache.basis)) \
        + 1j * rng.standard_normal(len(cache.basis))
    X = cache.pattern + (w @ cache.basis,)
    rho = rng.standard_normal((sp.dim, sp.dim)) \
        + 1j * rng.standard_normal((sp.dim, sp.dim))
    Xd = helpers.dense_operand(X)
    assert np.allclose(_product(X, rho), Xd @ rho, atol=1e-14)
    X_t = dual.pattern + (np.conj(np.conj(w) @ dual.basis),)
    assert np.allclose(_product(X_t, rho.T).T, rho @ Xd, atol=1e-14)


def test_algebra_operators():
    sp = TruncatedSpace(2, 2)
    a = ladder_a(sp)
    assert np.allclose((2.0 * a).to_dense(), 2.0 * a.to_dense(), atol=1e-15)
    assert np.allclose((a * 0.5j).to_dense(), 0.5j * a.to_dense(),
                       atol=1e-15)
    assert len((0.0 * a).csr[-1]) == 0   # exact zeros are dropped


def test_space_mismatch_raises():
    a1 = ladder_a(TruncatedSpace(2, 2))
    a2 = ladder_a(TruncatedSpace(3, 2))
    with pytest.raises(DimensionMismatchError):
        SystemOperator(a1.space, a2.to_dense())


def test_from_entries_and_entry():
    sp = TruncatedSpace(2, 1)
    op = SystemOperator.from_entries(sp, {(0, 1): 2.5j, (3, 3): -1.0})
    dense = op.to_dense()
    assert dense[0, 1] == 2.5j
    assert dense[3, 3] == -1.0
    assert dense[1, 0] == 0.0
    assert len(op.csr[-1]) == 2


def test_guard_band_leakage():
    sp = TruncatedSpace(4, 4)
    rho = np.zeros((sp.dim, sp.dim), dtype=complex)
    rho[sp.index(0, 0), sp.index(0, 0)] = 0.9
    rho[sp.index(4, 0), sp.index(4, 0)] = 0.06     # in the band (n side)
    rho[sp.index(1, 3), sp.index(1, 3)] = 0.04     # in the band (m side)
    assert guard_band_leakage(sp, rho, guard=2) == pytest.approx(0.10)
    assert guard_band_leakage(sp, rho, guard=0) == 0.0


@pytest.mark.parametrize("guard", [0, 2, 4])   # 4 is above m_max
def test_interior_and_band_match_entrywise_loops(guard):
    # the interior and its complement, the guard band, as the per-entry
    # loops over (n, m) define them; the band is summed in index order
    sp = TruncatedSpace(5, 3)
    interior = [sp.index(n, m) for n in range(sp.n_max - guard + 1)
                for m in range(sp.m_max - guard + 1)]
    assert sp.interior(guard).tolist() == interior
    rng = np.random.default_rng(19)
    rho = rng.standard_normal((sp.dim, sp.dim)) + 1j * rng.standard_normal(
        (sp.dim, sp.dim))
    total = 0.0
    for n in range(sp.n_max + 1):
        for m in range(sp.m_max + 1):
            if n > sp.n_max - guard or m > sp.m_max - guard:
                total += abs(rho[sp.index(n, m), sp.index(n, m)])
    assert guard_band_leakage(sp, rho, guard) == total
