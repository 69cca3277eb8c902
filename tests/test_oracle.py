import numpy as np
import pytest

import helpers
from contmeas import (Constant, EvolutionConfig, FieldProfile,
                      GeneratorContext, Harmonic, ObservableSpec,
                      TestFunction, TruncatedSpace, ValidationError, ZERO,
                      dense_expm_propagate, dpo_laser_field, dpo_model,
                      dpo_observables, duality_check, evolve,
                      system_free_charfunc, trivial_model)


def small_dpo(seed, n_max=2, m_max=2, horizon=2.0):
    rng = np.random.default_rng(seed)
    params = helpers.random_dpo_params(rng)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, horizon)
    field = dpo_laser_field(params, horizon)
    return model, obs, field, rng


def test_system_free_matches_engine():
    # two independent channels: one counter, one homodyne quadrature
    d, m, horizon = 2, 2, 1.5
    model = trivial_model(d)
    eigenvalues = np.array([[1.0, 0.0], [0.0, 0.0]])
    h = ((ZERO, ZERO), (ZERO, Harmonic(1.0, 0.3, -0.8)))
    b = (Constant(0.6 - 0.2j), ZERO)
    c = (ZERO, ZERO)
    obs = ObservableSpec(m=m, d=d, horizon=horizon,
                         eigenvalues=eigenvalues, h=h, b=b, c=c)
    field = FieldProfile((Constant(0.4 + 0.1j), ZERO), horizon)
    rng = np.random.default_rng(0)
    rho0 = np.array([[1.0 + 0j]])
    for _ in range(5):
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.3, 2)),
                                 [horizon]])
        kappa = TestFunction(breaks, rng.uniform(-1.0, 1.0, (3, m)))
        engine = evolve(GeneratorContext(model=model, observables=obs,
                                         field=field, kappa=kappa),
                        rho0, horizon, EvolutionConfig(dt=1e-3)).trace
        exact = system_free_charfunc(obs, field, kappa, horizon)
        assert abs(engine - exact) < 1e-9


def test_dense_expm_matches_frozen_engine():
    model, obs, field, rng = small_dpo(seed=3)
    kappa = TestFunction([0.0, 0.7, 1.4, 2.0],
                         [[0.4, -0.2, 0.3], [0.1, 0.5, 0.0],
                          [-0.3, 0.2, 0.6]])
    rho0 = np.zeros((model.space.dim,) * 2, dtype=complex)
    rho0[0, 0] = 1.0
    t_end = 2.0
    oracle = dense_expm_propagate(model, obs, field, kappa, rho0, t_end)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    engine = evolve(ctx, rho0, t_end,
                    EvolutionConfig(dt=2e-3, freeze=True,
                                    contractivity_check="off")).final
    assert np.max(np.abs(engine - oracle)) < 1e-9


def test_dense_oracle_rejects_large_spaces():
    model, obs, field, rng = small_dpo(seed=4, n_max=6, m_max=4)
    rho0 = np.eye(model.space.dim, dtype=complex)
    with pytest.raises(ValidationError):
        dense_expm_propagate(model, obs, field, TestFunction.zero(3),
                             rho0, 1.0)


def test_duality_residual_small():
    model, obs, field, rng = small_dpo(seed=5, n_max=3, m_max=2)
    kappa = TestFunction([0.0, 0.9, 2.0], [[0.3, 0.1, -0.4], [0.2, 0.0, 0.5]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    dim = model.space.dim
    rho0 = helpers.random_density(dim, rng)
    X = helpers.random_hermitian(dim, rng)
    out = duality_check(ctx, rho0, X, 1.7, EvolutionConfig(dt=1e-3))
    assert out["residual"] < 1e-9
    assert abs(out["forward"] - out["backward"]) == out["residual"]
