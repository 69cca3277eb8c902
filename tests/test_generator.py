import numpy as np
import pytest

import helpers
from contmeas import (Constant, DpoParams, FieldProfile, GeneratorContext,
                      TestFunction, TruncatedSpace, ValidationError, ZERO,
                      dpo_laser_field, dpo_model, dpo_observables,
                      generator_at, scalar_rate)
from contmeas.generator import context_is_piecewise_static
from contmeas.oracle import _dense_superoperator


def build_setup(seed=0, n_max=4, m_max=3, horizon=2.0):
    rng = np.random.default_rng(seed)
    params = helpers.random_dpo_params(rng)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, horizon)
    field = dpo_laser_field(params, horizon)
    return rng, params, model, obs, field


def random_kappa(rng, horizon, m=3):
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, horizon - 0.1, 2)),
                             [horizon]])
    return TestFunction(breaks, rng.uniform(-1.5, 1.5, (3, m)))


def test_slow_assembly_agrees_with_weights():
    """The oracle's dense superoperator, assembled from the drift and
    channel formulas, must match the weight-based fast path entrywise."""
    rng, params, model, obs, field = build_setup(seed=2)
    kappa = random_kappa(rng, 2.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    dim = model.space.dim
    for t in (0.3, 0.9, 1.7):
        assert np.any(kappa.value(t))
        tau = helpers.random_hermitian(dim, rng)
        M = _dense_superoperator(model, obs, field, kappa, t)
        slow = (M @ tau.reshape(-1, order="F")).reshape(dim, dim, order="F")
        fast = generator_at(ctx, t).apply(tau)
        assert np.max(np.abs(slow - fast)) < 1e-12


def test_adjoint_is_trace_dual():
    rng, params, model, obs, field = build_setup(seed=5)
    kappa = random_kappa(rng, 2.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    g = generator_at(ctx, 0.77)
    dim = model.space.dim
    for _ in range(5):
        tau = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = np.trace(X @ g.apply(tau))
        rhs = np.trace(g.apply_adjoint(X) @ tau)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_trace_annihilated_without_test_function():
    # with kappa = 0 the generator is trace-free for any field
    rng, params, model, obs, field = build_setup(seed=7)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    for _ in range(5):
        rho = helpers.random_density(model.space.dim, rng)
        # restrict support to the interior so the cutoff plays no role
        sp = model.space
        mask = np.zeros(sp.dim, dtype=bool)
        for n in range(sp.n_max - 1):
            for m in range(sp.m_max - 1):
                mask[sp.index(n, m)] = True
        rho[~mask, :] = 0.0
        rho[:, ~mask] = 0.0
        rho = rho / np.trace(rho)
        out = generator_at(ctx, rng.uniform(0, 1.9)).apply(rho)
        assert abs(np.trace(out)) < 1e-12


def test_hermiticity_preserved_without_test_function():
    rng, params, model, obs, field = build_setup(seed=9)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    rho = helpers.random_hermitian(model.space.dim, rng)
    out = generator_at(ctx, 0.4).apply(rho)
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_generator_matches_master_equation():
    # k = 0 plus laser field realizes the driven master equation
    rng = np.random.default_rng(13)
    n_max, m_max = 6, 4
    params = helpers.random_dpo_params(rng, omega_c=1.0)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, 3.0)
    field = dpo_laser_field(params, 3.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    for _ in range(5):
        rho = helpers.random_hermitian(model.space.dim, rng)
        t = rng.uniform(0, 2.9)
        lhs = generator_at(ctx, t).apply(rho)
        rhs = helpers.master_equation_rhs(params, n_max, m_max, t, rho)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kernel_coefficient_symmetry():
    # the kernel coefficients (scalar rate c, vector r, diagonal s) obey
    # conj(c(-k)) = c(k), conj(r(-k)) = -conj(r(k)) s(k), conj(s(-k)) = s(k)
    obs = dpo_observables(DpoParams.from_splittings(
        omega_c=1.1, g=0.3, kappa=0.4, kappa_p=0.9, theta3=0.2,
        lambda_drive=0.05), horizon=2.0)
    rng = np.random.default_rng(17)
    for _ in range(200):
        kappa = rng.uniform(-3, 3, 3)
        t = rng.uniform(0, 2.0)
        s = obs.kernel_diagonal(kappa)
        assert np.allclose(np.conj(obs.kernel_diagonal(-kappa)), s,
                           rtol=0, atol=1e-12)
        assert np.allclose(np.conj(obs.r_vector(-kappa, t)),
                           -np.conj(obs.r_vector(kappa, t)) * s,
                           rtol=0, atol=1e-12)
        assert abs(np.conj(scalar_rate(obs, -kappa, t))
                   - scalar_rate(obs, kappa, t)) < 1e-12


def test_kernel_coefficient_layout():
    # generator_at folds s, r(+/-kappa) and the scalar rate into the
    # weights in the layout documented on FrozenGenerator
    rng, params, model, obs, field = build_setup(seed=3)
    kappa = np.array([0.5, -0.2, 0.8])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction([0.0, 1.0], [kappa]))
    t = 0.3
    g = generator_at(ctx, t)
    lam = field.value(t)
    mu = model.S @ lam
    s = obs.kernel_diagonal(kappa)
    r_p = obs.r_vector(kappa, t)
    r_m = obs.r_vector(-kappa, t)
    assert np.allclose(g.s, s)
    assert np.allclose(g.w_left, np.conj(r_m) + s * np.conj(mu))
    assert np.allclose(g.w_left_dag, -mu)
    assert np.allclose(g.w_right, -np.conj(mu))
    assert np.allclose(g.w_right_dag, r_p + s * mu)
    scalar = (-np.vdot(lam, lam).real + np.conj(r_m) @ mu
              + r_p @ np.conj(mu) + s @ np.abs(mu) ** 2
              + scalar_rate(obs, kappa, t))
    assert g.scalar == pytest.approx(scalar, abs=1e-12)


def test_context_validation():
    rng, params, model, obs, field = build_setup()
    with pytest.raises(ValidationError):
        GeneratorContext(model=model, observables=obs, field=field,
                         kappa=TestFunction.zero(2))
    with pytest.raises(ValidationError):
        GeneratorContext(model=model, observables=obs,
                         field=FieldProfile((ZERO,) * 3, 1.0),
                         kappa=TestFunction.zero(3))


def test_context_breakpoints_and_shift():
    rng, params, model, obs, field = build_setup(horizon=2.0)
    kappa = TestFunction([0.0, 0.5, 1.5], [[0.1, 0, 0], [0, 0.2, 0]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    assert ctx.segments(1.8) == [(0.0, 0.5), (0.5, 1.5), (1.5, 1.8)]
    assert ctx.segments(2.5) == [(0.0, 0.5), (0.5, 1.5), (1.5, 2.0),
                                 (2.0, 2.5)]   # field window ends at 2
    moved = ctx.shifted(0.5)
    tau = np.eye(model.space.dim, dtype=complex)
    a = generator_at(ctx, 1.0).apply(tau)
    b = generator_at(moved, 0.5).apply(tau)
    assert np.max(np.abs(a - b)) < 1e-12


def test_static_detection():
    rng, params, model, obs, field = build_setup()
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    assert not context_is_piecewise_static(ctx)   # harmonic h and field
    from contmeas import trivial_model, ObservableSpec
    m = trivial_model(2)
    obs2 = ObservableSpec.counting_only(2, 1.0, np.array([[1.0, 0.0]]))
    f2 = FieldProfile((Constant(1.0), ZERO), 1.0)
    ctx2 = GeneratorContext(model=m, observables=obs2, field=f2,
                            kappa=TestFunction.zero(1))
    assert context_is_piecewise_static(ctx2)
