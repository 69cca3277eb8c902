import numpy as np
import pytest

import helpers
from contmeas import (Constant, ContractivityError, EvolutionConfig,
                      FieldProfile, GeneratorContext, Harmonic,
                      IntegrationError,
                      ModelSpec, ObservableSpec, SystemOperator, TestFunction,
                      TruncatedSpace, ZERO, composition_check,
                      dpo_laser_field, dpo_model, dpo_observables, evolve,
                      is_state, trivial_model)
from contmeas.generator import context_is_piecewise_static


def dpo_context(seed=0, n_max=6, m_max=4, horizon=3.0, kappa=None):
    rng = np.random.default_rng(seed)
    params = helpers.random_dpo_params(rng)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, horizon)
    field = dpo_laser_field(params, horizon)
    if kappa is None:
        kappa = TestFunction.zero(3)
    return GeneratorContext(model=model, observables=obs, field=field,
                            kappa=kappa), params, rng


def vacuum(dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def test_trace_preserved_without_test_function():
    # at k = 0 the trace only decreases through cutoff leakage, so it
    # approaches 1 from below as the truncation grows
    small, params, rng = dpo_context(seed=1, n_max=6, m_max=4)
    large, _, _ = dpo_context(seed=1, n_max=12, m_max=8)
    res_small = evolve(small, vacuum(small.model.space.dim), 2.0,
                       EvolutionConfig(dt=0.02))
    res_large = evolve(large, vacuum(large.model.space.dim), 2.0,
                       EvolutionConfig(dt=0.02))
    assert abs(res_small.trace.imag) < 1e-12
    assert res_small.trace.real <= 1.0 + 1e-10
    assert abs(res_large.trace - 1.0) < 1e-3
    assert abs(1.0 - res_large.trace.real) < abs(1.0 - res_small.trace.real)
    assert res_small.t_end == 2.0
    assert res_small.n_steps == 100


def test_hermiticity_preserved():
    ctx, params, rng = dpo_context(seed=2)
    res = evolve(ctx, vacuum(ctx.model.space.dim), 1.5,
                 EvolutionConfig(dt=0.01))
    tau = res.final
    assert np.max(np.abs(tau - tau.conj().T)) < 1e-10


def test_contractivity_with_test_function():
    kappa = TestFunction([0.0, 0.4, 1.2, 2.0],
                         [[0.3, -0.5, 0.8], [0.0, 0.9, -0.2],
                          [0.7, 0.1, 0.4]])
    ctx, params, rng = dpo_context(seed=3, kappa=kappa)
    res = evolve(ctx, vacuum(ctx.model.space.dim), 2.0,
                 EvolutionConfig(dt=5e-3))
    assert res.max_abs_trace <= 1.0 + 1e-9
    assert abs(res.trace) <= 1.0 + 1e-9


def test_contractivity_violation_detected():
    # a deliberately non-dissipative drift (K = +I) blows the trace up
    space = TruncatedSpace(0, 0)
    K = SystemOperator.from_entries(space, {(0, 0): 1.0})
    model = ModelSpec(space=space, d=1, K=K,
                      R=(SystemOperator.from_entries(space, {}),),
                      S=np.eye(1, dtype=complex), label="antidissipative")
    obs = ObservableSpec.counting_only(1, 2.0, np.array([[1.0]]))
    ctx = GeneratorContext(model=model, observables=obs,
                           field=FieldProfile((ZERO,), 2.0),
                           kappa=TestFunction.zero(1))
    with pytest.raises(ContractivityError):
        evolve(ctx, np.array([[1.0 + 0j]]), 1.0, EvolutionConfig(dt=0.1))
    # with the check disabled the run completes
    res = evolve(ctx, np.array([[1.0 + 0j]]), 1.0,
                 EvolutionConfig(dt=0.01, contractivity_check="off"))
    assert abs(res.trace - np.exp(2.0)) < 1e-6


def test_adaptive_matches_fixed_step():
    kappa = TestFunction([0.0, 1.0], [[0.4, 0.2, -0.3]])
    ctx, params, rng = dpo_context(seed=4, kappa=kappa)
    rho0 = vacuum(ctx.model.space.dim)
    fixed = evolve(ctx, rho0, 1.0, EvolutionConfig(dt=1e-3))
    adaptive = evolve(ctx, rho0, 1.0,
                      EvolutionConfig(dt=0.05, method="adaptive",
                                      rtol=1e-10, atol=1e-12))
    assert np.max(np.abs(fixed.final - adaptive.final)) < 1e-8
    assert adaptive.n_steps != fixed.n_steps


def test_composition_check_reports_small_deviation():
    kappa = TestFunction([0.0, 0.6, 1.4], [[0.3, 0.0, 0.5], [0.2, 0.4, 0.0]])
    ctx, params, rng = dpo_context(seed=5, kappa=kappa)
    report = composition_check(ctx, vacuum(ctx.model.space.dim), 0.6, 1.4,
                               EvolutionConfig(dt=5e-3))
    assert report["deviation"] < 10 * max(report["step_halving_estimate"],
                                          1e-14)
    assert abs(np.trace(report["one_shot"])) <= 1.0 + 1e-9
    assert abs(np.trace(report["two_leg"])) <= 1.0 + 1e-9


def test_composition_check_refinement_keeps_step_budget():
    # the step-halved reference run inherits max_steps from the caller:
    # 280 steps cover the plain runs at dt 5e-3, not the refined one
    kappa = TestFunction([0.0, 0.6, 1.4], [[0.3, 0.0, 0.5], [0.2, 0.4, 0.0]])
    ctx, params, rng = dpo_context(seed=5, n_max=2, m_max=2, kappa=kappa)
    with pytest.raises(IntegrationError):
        composition_check(ctx, vacuum(ctx.model.space.dim), 0.6, 1.4,
                          EvolutionConfig(dt=5e-3, max_steps=280))


def test_is_state():
    rng = np.random.default_rng(6)
    rho = helpers.random_density(5, rng)
    assert is_state(rho)
    assert not is_state(rho + 0.1)
    assert not is_state(2.0 * rho)
    bad = rho.copy()
    bad[0, 1] += 1e-3j
    assert not is_state(bad)


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(method="euler")
    with pytest.raises(ValueError):
        EvolutionConfig(dt=0.0)
    with pytest.raises(ValueError):
        EvolutionConfig(contractivity_check="maybe")


def test_bad_inputs_rejected():
    ctx, params, rng = dpo_context(seed=7)
    with pytest.raises(IntegrationError):
        evolve(ctx, np.eye(3, dtype=complex), 1.0)
    with pytest.raises(IntegrationError):
        evolve(ctx, vacuum(ctx.model.space.dim), -1.0)
    with pytest.raises(IntegrationError):
        evolve(ctx, vacuum(ctx.model.space.dim), 1.0,
               EvolutionConfig(dt=1e-4, max_steps=10))


def test_static_fast_path_matches_generic():
    # trivial model with constant field: the frozen-generator path must
    # give the same answer as the stage-by-stage evaluation, forced here
    # by writing the same field as a zero-frequency harmonic
    model = trivial_model(1)
    obs = ObservableSpec.counting_only(1, 2.0, np.array([[1.0]]))
    kappa = TestFunction([0.0, 1.0, 2.0], [[0.5], [1.1]])
    rho0 = np.array([[1.0 + 0j]])
    ctx = GeneratorContext(model=model, observables=obs, kappa=kappa,
                           field=FieldProfile((Constant(0.7 + 0.2j),), 2.0))
    generic = GeneratorContext(model=model, observables=obs, kappa=kappa,
                               field=FieldProfile((Harmonic(0.7 + 0.2j),),
                                                  2.0))
    assert context_is_piecewise_static(ctx)
    assert not context_is_piecewise_static(generic)
    fast = evolve(ctx, rho0, 2.0, EvolutionConfig(dt=1e-3))
    slow = evolve(generic, rho0, 2.0, EvolutionConfig(dt=1e-3))
    assert abs(fast.final[0, 0] - slow.final[0, 0]) < 1e-12
    # closed form: counting with intensity |f|^2 gives the Poisson
    # characteristic function exp((e^{i kappa} - 1) |f|^2 T) per window
    mu = abs(0.7 + 0.2j) ** 2
    exact = np.exp((np.exp(0.5j) - 1) * mu + (np.exp(1.1j) - 1) * mu)
    assert abs(fast.final[0, 0] - exact) < 1e-10
