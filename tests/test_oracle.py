import importlib.util
import pathlib

import numpy as np
import pytest

import helpers
from contmeas import generator
from contmeas import (Constant, EvolutionConfig, FieldProfile,
                      GeneratorContext, Harmonic, IntegrationError,
                      ObservableSpec, TestFunction, TruncatedSpace,
                      ValidationError, ZERO, dense_expm_propagate,
                      dpo_laser_field, dpo_model, dpo_observables,
                      duality_check, evolve, system_free_charfunc,
                      trivial_model)


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
                        rho0, horizon, EvolutionConfig(dt=1e-3)).trace[0]
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
                                    contractivity_check="off")).final[0]
    assert np.max(np.abs(engine - oracle)) < 1e-9


def test_dense_oracle_rejects_large_spaces():
    model, obs, field, rng = small_dpo(seed=4, n_max=6, m_max=4)
    rho0 = np.eye(model.space.dim, dtype=complex)
    with pytest.raises(ValidationError):
        dense_expm_propagate(model, obs, field, TestFunction.zero(3),
                             rho0, 1.0)


@pytest.mark.parametrize("window", [2.0, 1.0])
def test_duality_residual_small(window):
    # with window 1.0 both legs also cross the field-window edge
    model, obs, field, rng = small_dpo(seed=5, n_max=3, m_max=2)
    field = FieldProfile(field.signals, window)
    kappa = TestFunction([0.0, 0.9, 2.0], [[0.3, 0.1, -0.4], [0.2, 0.0, 0.5]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    dim = model.space.dim
    rho0 = helpers.random_density(dim, rng)
    X = helpers.random_hermitian(dim, rng)
    out = duality_check(ctx, rho0, X, 1.7, EvolutionConfig(dt=1e-3))
    assert out["residual"] < 1e-9
    assert abs(out["forward"] - out["backward"]) == out["residual"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_duality_rejects_non_finite_functional(bad):
    # the backward pass takes the segment walk of `evolve`, whose
    # finiteness check raises rather than reporting a NaN residual
    model, obs, field, rng = small_dpo(seed=5)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction([0.0, 0.9], [[0.3, 0.1, -0.4]]))
    dim = model.space.dim
    X = helpers.random_hermitian(dim, rng)
    X[1, 0] = bad
    with pytest.raises(IntegrationError, match="non-finite"):
        duality_check(ctx, helpers.random_density(dim, rng), X, 1.2,
                      EvolutionConfig(dt=1e-2))


def test_duality_backward_walk_forms_only_adjoint_operators(monkeypatch):
    # on the oracle_dpo9 benchmark config (seed 7), the forward propagation
    # forms operators only on the context and the backward walk only on
    # its one dual stack, whose generators are the adjoint's, a sub-block
    # of stage times at a time
    from contmeas import oracle
    from contmeas.cli import Run
    root = pathlib.Path(__file__).parent.parent
    spec = importlib.util.spec_from_file_location(
        "workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    run = Run(workloads.make_config("oracle_dpo9", 7))
    ctx = run.context()

    walk, operands = oracle._walk, generator._operands
    backward, formed = [False], []

    def backward_walk(*args):
        backward[0] = True
        try:
            return walk(*args)
        finally:
            backward[0] = False

    def counted_operands(stack, left, right):
        formed.append((backward[0], stack, len(left)))
        return operands(stack, left, right)

    monkeypatch.setattr(oracle, "_walk", backward_walk)
    monkeypatch.setattr(generator, "_operands", counted_operands)
    dim = run.model.space.dim
    duality_check(ctx, run.rho0, np.eye(dim), run.t_end(), run.evo)
    assert {id(stack) for back, stack, _ in formed if not back} == {id(ctx)}
    duals = {id(stack): stack for back, stack, _ in formed if back}
    assert len(duals) == 1
    dual, = duals.values()
    assert dual.primal is ctx and dual.model is run.model.dual
    stages = [sum(k for back, _, k in formed if back == side)
              for side in (False, True)]
    assert stages == [402, 402]      # 2 segments of 100 steps, each way
    per_time = (run.model.operators.basis.shape[1]
                + len(ctx.layout[0][1]))
    step = generator.OPERAND_BUDGET // per_time
    blocks = sum(back for back, _, _ in formed)
    assert step > 1 and blocks == 2 * -(-201 // step)
