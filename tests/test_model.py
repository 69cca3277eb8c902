import json
import pathlib

import numpy as np
import pytest

import helpers
from contmeas import (DpoParams, ModelSpec, SystemOperator, TruncatedSpace,
                      ValidationError, check_dissipativity, check_S_unitary,
                      dpo_laser_field, dpo_model, trivial_model)
from contmeas.cli import Run
from contmeas.model import _dissipation


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
    # diagonal only, the (0,0) entry is 0
    assert len(model.K.csr[-1]) == model.space.dim - 1


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
    assert check_dissipativity(model, guard=0).max_residual > 1e-3


def test_dissipativity_is_exact_off_basis():
    # the defect 2 Re<Ku|u> = Re(conj(u_0) u_1) vanishes on both basis
    # vectors; its supremum 1/2 is reached only at u = (1, 1)/sqrt(2)
    space = TruncatedSpace(1, 0)
    K = SystemOperator.from_entries(space, {(0, 1): 0.5})
    model = ModelSpec(space=space, d=1, K=K, R=(SystemOperator.zero(space),),
                      S=np.eye(1))
    rep = check_dissipativity(model, guard=0)
    assert rep.max_residual == pytest.approx(0.5, abs=1e-15)
    assert rep.interior_dim == 2


def _dense_dissipation(model):
    """K + K^dag + sum_k R_k^dag R_k with dense products throughout."""
    K = model.K.to_dense()
    D = K + K.conj().T
    for op in model.R:
        R = op.to_dense()
        D += R.conj().T @ R
    return D


def test_dissipation_kernel_products_match_dense():
    # the CSR kernel's R_k^dag R_k give the dense D bit for bit on the
    # shipped configs, whose channels have one entry per column, and to
    # 1e-14 on a complex model whose products sum several terms an entry
    configs = pathlib.Path(__file__).parent.parent / "configs"
    dims = set()
    for path in sorted(configs.glob("*.json")):
        model = Run(json.loads(path.read_text())).model
        dims.add(model.space.dim)
        assert np.array_equal(_dissipation(model), _dense_dissipation(model))
    assert dims == {1, 9, 20, 117}
    rng = np.random.default_rng(3)
    space = TruncatedSpace(3, 2)

    def random_op(density):
        shape = (space.dim, space.dim)
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return SystemOperator(space, M * (rng.random(shape) < density))

    model = ModelSpec(space=space, d=3, K=random_op(0.5),
                      R=tuple(random_op(0.4) for _ in range(3)), S=np.eye(3))
    D, ref = _dissipation(model), _dense_dissipation(model)
    assert np.max(np.abs(D - ref)) <= 1e-14
    assert np.max(np.abs(ref)) > 1.0


def test_dissipativity_overflow_raises():
    # each entry of K is finite, but K + K^dag overflows; eigvalsh would
    # fail on it, or a NaN residual would pass every comparison
    space = TruncatedSpace(1, 0)
    K = SystemOperator.from_entries(space, {(0, 0): -1e308, (1, 1): -1.0})
    model = ModelSpec(space=space, d=1, K=K, R=(SystemOperator.zero(space),),
                      S=np.eye(1))
    with pytest.raises(ValidationError, match="overflows"):
        check_dissipativity(model, guard=0)


def test_guard_too_large_raises():
    p = default_params()
    model = dpo_model(p, TruncatedSpace(2, 2))
    with pytest.raises(ValueError):
        check_dissipativity(model, guard=3)
    with pytest.raises(ValueError, match="nonnegative"):
        check_dissipativity(model, guard=-1)


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
    # a non-finite entry anywhere, as an overflowing omega_c gives K
    bad = SystemOperator.from_entries(model.space, {(0, 1): np.inf})
    for K, R, S in ((bad, model.R, np.eye(8)),
                    (model.K, (bad,) + model.R[1:], np.eye(8)),
                    (model.K, model.R, np.diag([np.nan] + [1.0] * 7))):
        with pytest.raises(ValidationError, match="finite"):
            ModelSpec(space=model.space, d=8, K=K, R=R, S=S)


def test_trivial_model():
    m = trivial_model(3)
    assert m.space.dim == 1
    assert m.d == 3
    assert all(len(op.csr[-1]) == 0 for op in m.R)
    assert len(m.K.csr[-1]) == 0


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


def test_dual_keeps_the_channel_groups_bit_for_bit():
    # R_1 = P and R_2 = c P with P = [[0, 1], [e^{i phi}, 0]]: the two
    # entries of P tie in size, so a ratio of entries read off R_i^dag
    # could come from the other entry and round differently; the dual
    # finds its groups itself, from the largest entries, which R_i and
    # R_i^dag share, and gets the model's weights bit for bit
    rng = np.random.default_rng(11)
    space = TruncatedSpace(1, 0)
    zero = SystemOperator.zero(space)
    for _ in range(2000):
        P = np.array([[0, 1], [np.exp(1j * rng.uniform(0, 2 * np.pi)), 0]])
        c = complex(rng.standard_normal(), rng.standard_normal())
        model = ModelSpec(space=space, d=2, K=zero,
                          R=(SystemOperator(space, P),
                             SystemOperator(space, c * P)),
                          S=np.eye(2))
        weights = model.operators.group_weights
        assert weights.shape == (2, 1)
        assert np.array_equal(model.dual.operators.group_weights, weights)


def test_dual_dpo_finds_the_channel_groups_bit_for_bit():
    # random splittings give unequal complex amplitudes, so |c_i|^2 is
    # not 1, and thermal channels give the groups a, b, b^dag and a^dag
    space = TruncatedSpace(3, 2)
    for seed in range(300):
        params = helpers.random_dpo_params(np.random.default_rng(seed))
        model = dpo_model(params, space)
        ops, dual = model.operators, model.dual.operators
        assert ops.channels == dual.channels == [0, 1, 6, 7]
        assert not np.isin(ops.group_weights, (0, 1)).all()
        assert np.array_equal(dual.group_weights, ops.group_weights)
