import numpy as np
import pytest

import helpers
from contmeas import (DpoParams, ModelSpec, TruncatedSpace, ValidationError,
                      check_dissipativity, check_S_unitary,
                      dpo_laser_field, dpo_model, trivial_model)


def default_params(**over):
    base = dict(omega_c=1.0, g=0.4, kappa=0.5, kappa_p=1.0,
                lambda_drive=0.1)
    base.update(over)
    return DpoParams.from_splittings(**base)


def test_from_splittings_satisfies_constraints():
    p = default_params(nbar=0.3, nbar_p=0.1)
    p.validate()
    assert sum(abs(a) ** 2 for a in p.alpha[:3]) == pytest.approx(
        2 * p.kappa * (p.nbar + 1))
    assert abs(p.alpha[3]) ** 2 == pytest.approx(2 * p.kappa * p.nbar)


def test_amplitude_constraint_violation_raises():
    p = default_params()
    bad = DpoParams(omega_c=p.omega_c, g=p.g, kappa=p.kappa, nbar=p.nbar,
                    kappa_p=p.kappa_p, nbar_p=p.nbar_p,
                    alpha=(2.0, 0.0, 0.0, 0.0), beta=p.beta)
    with pytest.raises(ValidationError):
        bad.validate()


def test_drive_needs_pump_channel():
    p = default_params(kappa_p=0.5)
    beta = (np.sqrt(2 * 0.5), 0.0, 0.0, 0.0)    # all pump loss on channel 1
    bad = DpoParams(omega_c=1.0, g=0.4, kappa=0.5, nbar=0.0, kappa_p=0.5,
                    nbar_p=0.0, alpha=p.alpha, beta=beta, lambda_drive=0.1)
    with pytest.raises(ValidationError):
        bad.validate()


def test_negative_rates_rejected():
    p = default_params()
    with pytest.raises(ValidationError):
        DpoParams(omega_c=-1.0, g=p.g, kappa=p.kappa, nbar=0.0,
                  kappa_p=p.kappa_p, nbar_p=0.0, alpha=p.alpha,
                  beta=p.beta).validate()


def test_zero_coupling_allowed():
    p = default_params(g=0.0)
    p.validate()
    model = dpo_model(p, TruncatedSpace(3, 3))
    # without the crystal the two modes never exchange photons
    assert model.K.nnz == model.space.dim - 1   # diagonal only, (0,0) entry is 0


def test_drift_coupling_entries():
    sp = TruncatedSpace(6, 4)
    g = 0.4
    p = default_params(g=g)
    model = dpo_model(p, sp)
    K = model.K.to_dense()
    # |0,1> gains from the two-photon down-conversion into |2,0>
    assert K[sp.index(2, 0), sp.index(0, 1)] == pytest.approx(
        g / 2 * np.sqrt(2))
    assert K[sp.index(4, 1), sp.index(2, 2)] == pytest.approx(
        g / 2 * np.sqrt(4 * 3 * 2))
    assert K[sp.index(1, 2), sp.index(3, 1)] == pytest.approx(
        -g / 2 * np.sqrt(2 * 2 * 3))


def test_drift_diagonal():
    sp = TruncatedSpace(4, 4)
    p = default_params(nbar=0.2, nbar_p=0.1)
    model = dpo_model(p, sp)
    n, m = 2, 3
    expected = -(p.kappa * p.nbar + p.kappa_p * p.nbar_p
                 + 1j * p.omega_c * n + p.kappa * (2 * p.nbar + 1) * n
                 + 2j * p.omega_c * m + p.kappa_p * (2 * p.nbar_p + 1) * m)
    diag = model.K.to_dense()[sp.index(n, m), sp.index(n, m)]
    assert diag == pytest.approx(expected)


def test_drift_matches_independent_dense():
    rng = np.random.default_rng(11)
    p = helpers.random_dpo_params(rng)
    model = dpo_model(p, TruncatedSpace(7, 5))
    K_ref, R_ref = helpers.dense_dpo_operators(p, 7, 5)
    assert np.max(np.abs(model.K.to_dense() - K_ref)) < 1e-13
    for op, ref in zip(model.R, R_ref):
        assert np.max(np.abs(op.to_dense() - ref)) < 1e-13


def test_dissipativity_interior():
    rng = np.random.default_rng(5)
    p = helpers.random_dpo_params(rng)
    model = dpo_model(p, TruncatedSpace(10, 7))
    rep = check_dissipativity(model, guard=2)
    assert rep.max_residual < 1e-12
    assert rep.interior_dim == 9 * 6


def test_dissipativity_breaks_at_boundary():
    # thermal raising channels are truncated at the cutoff, so the basis
    # vector in the top corner sees too little outflow
    p = default_params(nbar=0.3, nbar_p=0.2)
    model = dpo_model(p, TruncatedSpace(4, 3))
    sp = model.space
    u = sp.basis_vector(4, 3)       # top corner, raising parts truncated
    ku = model.K.apply_to_vector(u)
    lhs = 2 * np.real(np.vdot(u, ku))
    rhs = sum(np.sum(np.abs(op.apply_to_vector(u)) ** 2) for op in model.R)
    assert abs(lhs + rhs) > 1e-3


def test_guard_too_large_raises():
    p = default_params()
    model = dpo_model(p, TruncatedSpace(2, 2))
    with pytest.raises(ValueError):
        check_dissipativity(model, guard=3)


def test_scattering_unitary():
    p = default_params()
    model = dpo_model(p, TruncatedSpace(3, 3))
    assert check_S_unitary(model) == 0.0
    doubled = ModelSpec(space=model.space, d=8, K=model.K, R=model.R,
                        S=2.0 * np.eye(8))
    assert check_S_unitary(doubled) == pytest.approx(3.0)


def test_model_spec_validation():
    p = default_params()
    model = dpo_model(p, TruncatedSpace(2, 2))
    with pytest.raises(ValidationError):
        ModelSpec(space=model.space, d=8, K=model.K, R=model.R[:7],
                  S=np.eye(8))
    with pytest.raises(ValidationError):
        ModelSpec(space=model.space, d=8, K=model.K, R=model.R,
                  S=np.eye(7))


def test_trivial_model():
    m = trivial_model(3)
    assert m.space.dim == 1
    assert m.d == 3
    assert all(op.nnz == 0 for op in m.R)
    assert m.K.nnz == 0


def test_laser_field_profile():
    p = default_params(lambda_drive=0.1 + 0.05j)
    f = dpo_laser_field(p, 4.0)
    assert f.d == 8
    t = 1.3
    val = f.value(t)
    expected = 1j * p.lambda_drive * np.exp(-2j * p.omega_c * t) / np.conj(p.beta[1])
    assert val[3] == pytest.approx(expected)
    assert np.all(val[:3] == 0) and np.all(val[4:] == 0)
    assert np.all(f.value(4.5) == 0)
