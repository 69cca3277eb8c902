import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from contmeas import (Constant, ContractivityError, EvolutionConfig,
                      FieldProfile, GeneratorContext, GeneratorStack,
                      Harmonic,
                      IntegrationError,
                      ModelSpec, ObservableSpec, SystemOperator, TestFunction,
                      TruncatedSpace, ZERO, composition_check,
                      dpo_laser_field, dpo_model, dpo_observables, evolve,
                      is_state, system_free_charfunc, trivial_model)
from contmeas import evolution
from contmeas.generator import (context_is_piecewise_static, generator_at,
                                stage_generators)


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
    assert abs(res_small.trace[0].imag) < 1e-12
    assert res_small.trace[0].real <= 1.0 + 1e-10
    assert abs(res_large.trace[0] - 1.0) < 1e-3
    assert (abs(1.0 - res_large.trace[0].real)
            < abs(1.0 - res_small.trace[0].real))
    assert res_small.n_steps == 100


def test_hermiticity_preserved():
    ctx, params, rng = dpo_context(seed=2)
    res = evolve(ctx, vacuum(ctx.model.space.dim), 1.5,
                 EvolutionConfig(dt=0.01))
    tau = res.final[0]
    assert np.max(np.abs(tau - tau.conj().T)) < 1e-10


def test_contractivity_with_test_function():
    kappa = TestFunction([0.0, 0.4, 1.2, 2.0],
                         [[0.3, -0.5, 0.8], [0.0, 0.9, -0.2],
                          [0.7, 0.1, 0.4]])
    ctx, params, rng = dpo_context(seed=3, kappa=kappa)
    res = evolve(ctx, vacuum(ctx.model.space.dim), 2.0,
                 EvolutionConfig(dt=5e-3))
    assert res.max_abs_trace[0] <= 1.0 + 1e-9
    assert abs(res.trace[0]) <= 1.0 + 1e-9


def test_contractivity_violation_detected():
    # a deliberately non-dissipative drift (K = +I) blows the trace up
    space = TruncatedSpace(0, 0)
    K = SystemOperator.from_entries(space, {(0, 0): 1.0})
    model = ModelSpec(space=space, d=1, K=K,
                      R=(SystemOperator.from_entries(space, {}),),
                      S=np.eye(1, dtype=complex))
    obs = ObservableSpec.counting_only(1, 2.0, np.array([[1.0]]))
    ctx = GeneratorContext(model=model, observables=obs,
                           field=FieldProfile((ZERO,), 2.0),
                           kappa=TestFunction.zero(1))
    with pytest.raises(ContractivityError):
        evolve(ctx, np.array([[1.0 + 0j]]), 1.0, EvolutionConfig(dt=0.1))
    # with the check disabled the run completes
    res = evolve(ctx, np.array([[1.0 + 0j]]), 1.0,
                 EvolutionConfig(dt=0.01, contractivity_check="off"))
    assert abs(res.trace[0] - np.exp(2.0)) < 1e-6


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


def test_stages_shared_between_steps(monkeypatch):
    # the non-static path equals plain RK4 on one-point generators at the
    # stage times lo + k h / 2 (the last one hi, read with the segment's
    # kappa), and each segment assembles 2 count + 1 generators, not
    # 3 count
    kappa = TestFunction([0.0, 0.4, 1.0], [[0.3, 0.0, 0.5], [0.0, 0.6, -0.4]])
    ctx, params, rng = dpo_context(seed=3, n_max=3, m_max=2, kappa=kappa)
    assert not context_is_piecewise_static(ctx)
    rho0 = vacuum(ctx.model.space.dim)
    dt = 0.05
    tau = rho0[None].copy()
    counts = []
    for lo, hi in ctx.segments(1.0):
        count = max(1, int(np.ceil((hi - lo) / dt - 1e-12)))
        counts.append(count)
        h = (hi - lo) / count
        for j in range(count):
            last = j == count - 1
            g0 = generator_at(ctx, lo + 2 * j * (0.5 * h))
            g_mid = generator_at(ctx, lo + (2 * j + 1) * (0.5 * h))
            g1 = next(stage_generators(ctx, (hi,), lo)) if last else \
                generator_at(ctx, lo + (2 * j + 2) * (0.5 * h))
            k1 = g0.apply(tau)
            k2 = g_mid.apply(tau + 0.5 * h * k1)
            k3 = g_mid.apply(tau + 0.5 * h * k2)
            k4 = g1.apply(tau + h * k3)
            tau = tau + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert counts == [8, 12]

    assembled = []
    original = evolution.stage_generators

    def counting(stack, times, start):
        for g in original(stack, times, start):
            assembled[-1] += 1
            yield g

    def wrapped(stack, times, start):
        assembled.append(0)
        return counting(stack, times, start)

    monkeypatch.setattr(evolution, "stage_generators", wrapped)
    res = evolve(ctx, rho0, 1.0, EvolutionConfig(dt=dt))
    assert np.max(np.abs(res.final[0] - tau[0])) < 1e-14
    assert assembled == [2 * c + 1 for c in counts]


def test_is_state():
    rng = np.random.default_rng(6)
    rho = helpers.random_density(5, rng)
    assert is_state(rho)
    assert not is_state(rho + 0.1)
    assert not is_state(2.0 * rho)
    bad = rho.copy()
    bad[0, 1] += 1e-3j
    assert not is_state(bad)


def test_contractivity_decides_auto_by_the_initial_state():
    rng = np.random.default_rng(6)
    rho = helpers.random_density(5, rng)
    auto = EvolutionConfig()
    assert evolution.contractivity(auto, rho) == "on"
    assert evolution.contractivity(auto, 2.0 * rho) == "off"
    assert evolution.contractivity(auto, rho[:, :4]) == "off"   # not square
    for given in ("on", "off"):
        config = EvolutionConfig(contractivity_check=given)
        for x in (rho, 2.0 * rho):
            assert evolution.contractivity(config, x) == given


@pytest.mark.parametrize("check", ["auto", "on", "off"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_matrix_rejected(check, bad):
    # both entry points refuse it through `contractivity`, before an
    # "auto" check would take eigenvalues of it
    from contmeas import joint_charfunc
    from contmeas.cli import Run
    run = Run(helpers.workload_config("oracle_dpo9", 7))
    rho0 = np.zeros((run.model.space.dim,) * 2, dtype=complex)
    rho0[0, 0] = 1.0
    rho0[-1, 2] = bad
    config = EvolutionConfig(dt=0.05, contractivity_check=check)
    with pytest.raises(IntegrationError, match="initial matrix is not finite"):
        evolve(run.context(), rho0, 0.5, config)
    with pytest.raises(IntegrationError, match="initial matrix is not finite"):
        joint_charfunc(run.model, run.obs, run.field, rho0,
                       [run.kappa, TestFunction.zero(run.obs.m)], 0.5,
                       config)


def test_config_validation():
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
    # give the stage-by-stage evaluation's bits, forced here by writing
    # the same field as a zero-frequency harmonic, so the route the
    # Constant type picks changes only the speed
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
    assert np.array_equal(fast.final, slow.final)
    # closed form: counting with intensity |f|^2 gives the Poisson
    # characteristic function exp((e^{i kappa} - 1) |f|^2 T) per window
    mu = abs(0.7 + 0.2j) ** 2
    exact = np.exp((np.exp(0.5j) - 1) * mu + (np.exp(1.1j) - 1) * mu)
    assert abs(fast.final[0][0, 0] - exact) < 1e-10


def _system_free_stacks(signal, amplitude, horizon, kappa):
    """A one-member and a two-member stack of the test function `kappa`
    on a system-free counting model whose field is `signal` of
    `amplitude`, with a window of `horizon`."""
    obs = ObservableSpec.counting_only(1, horizon, np.array([[1.0]]))
    field = FieldProfile((signal(amplitude),), horizon)
    return [GeneratorStack(trivial_model(1), obs, field, [kappa] * n)
            for n in (1, 2)]


SYSTEM_FREE_ROUTES = [Constant, lambda a: Harmonic(a, 0.3, 1.5)]


@pytest.mark.parametrize("signal", SYSTEM_FREE_ROUTES,
                         ids=["frozen", "stages"])
def test_system_free_scalar_state_matches_stack(monkeypatch, signal):
    # a one-member run of an operator-free 1x1 model steps a Python
    # complex; member 0 of a two-member stack of the same test function
    # steps arrays, and both end with the same bits.  At dt 0.01 a
    # product rounded as Python rounds it changed the final state of
    # 5 or 6 of these 8 test functions
    kinds = []
    rk4_step = evolution.rk4_step

    def recorded(a0, a_mid, a1, constants, tau):
        kinds.append(type(tau))
        return rk4_step(a0, a_mid, a1, constants, tau)

    monkeypatch.setattr(evolution, "rk4_step", recorded)
    config = EvolutionConfig(dt=1e-2)
    for j in range(8):
        kappa = TestFunction([0.0, 1.0, 2.0],
                             [[0.4 + 0.7 * j], [2.9 - 0.6 * j]])
        one, two = _system_free_stacks(signal, 1.5 + 0.5j, 2.0, kappa)
        assert context_is_piecewise_static(one) == (signal is Constant)
        kinds.clear()
        alone = evolve(one, np.array([[1.0 + 0j]]), 2.0, config)
        assert set(kinds) == {complex}
        kinds.clear()
        stacked = evolve(two, np.array([[1.0 + 0j]]), 2.0, config)
        assert set(kinds) == {np.ndarray}
        assert alone.n_steps == stacked.n_steps == 200
        assert alone.final.shape == (1, 1, 1)
        for name in ("final", "trace", "max_abs_trace"):
            got, want = getattr(alone, name), getattr(stacked, name)[:1]
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (j, name)


@pytest.mark.parametrize("signal", SYSTEM_FREE_ROUTES,
                         ids=["frozen", "stages"])
@pytest.mark.parametrize("t_end, check, error, text", [
    (1.0, "on", ContractivityError, "|trace| = 3547 exceeds 1 at t = 1;"),
    (200.0, "on", IntegrationError, "non-finite state at t = 200;"),
    (200.0, "off", IntegrationError, "non-finite state at t = 200;"),
])
def test_system_free_scalar_state_fails_as_stack(signal, t_end, check,
                                                 error, text):
    # with |f|^2 = 9 at kappa = pi the rate is -18, and one step of h = 1
    # multiplies tau by the RK4 polynomial at -18, 3547; 200 of them
    # overflow.  The scalar state raises what a two-member stack raises
    kappa = TestFunction([0.0, t_end], [[np.pi]])
    config = EvolutionConfig(dt=1.0, contractivity_check=check)
    messages = []
    for stack in _system_free_stacks(signal, 3.0, t_end, kappa):
        with pytest.raises(error) as failed:
            evolve(stack, np.array([[1.0 + 0j]]), t_end, config)
        messages.append(str(failed.value))
    assert messages[0] == messages[1]
    assert text in messages[0]


def system_free_context(kappa):
    """System-free model with a counted channel 1 and a homodyne channel 2
    whose weight and field rotate at different frequencies, so the
    generator depends on absolute time."""
    obs = ObservableSpec(m=1, d=2, horizon=2.0,
                         eigenvalues=np.array([[1.0, 0.0]]),
                         h=((ZERO, Harmonic(1.0, 0.0, 2.0)),),
                         b=(ZERO, ZERO), c=(ZERO,))
    field = FieldProfile((Constant(0.6), Harmonic(0.5, 0.3, -1.0)), 2.0)
    return GeneratorContext(model=trivial_model(2), observables=obs,
                            field=field, kappa=kappa)


STEP_KAPPA = TestFunction([0.0, 1.0, 2.0], [[0.7], [-1.9]])


def test_evolve_from_start_time():
    # tau(1) = 1 continued to t = 2 sees only the second step of kappa
    ctx = system_free_context(STEP_KAPPA)
    res = evolve(ctx, np.array([[1.0 + 0j]]), 2.0, EvolutionConfig(dt=1e-3),
                 t_start=1.0)
    exact = system_free_charfunc(ctx.model.S, ctx.observables, ctx.field,
                                 TestFunction([1.0, 2.0], [[-1.9]]), 2.0)
    assert res.n_steps == 1000
    assert abs(res.trace[0] - exact) < 1e-12
    with pytest.raises(IntegrationError):
        evolve(ctx, np.array([[1.0 + 0j]]), 1.0, t_start=1.5)


@given(s=st.floats(min_value=0.0, max_value=2.0, exclude_min=True,
                   exclude_max=True))
@example(s=1.0)
@example(s=float(np.nextafter(1.0, 0.0)))
@example(s=float(np.nextafter(1.0, 2.0)))
@settings(max_examples=100, deadline=None)
def test_composition_at_any_split(s):
    ctx = system_free_context(STEP_KAPPA)
    rep = composition_check(ctx, np.array([[1.0 + 0j]]), s, 2.0,
                            EvolutionConfig(dt=1e-2))
    assert rep["deviation"] <= 10 * rep["step_halving_estimate"]


def test_rk4_step_is_the_textbook_formula():
    # the stages are summed as they finish, with array-valued step
    # constants, and give the bits of the textbook expression in Python
    # floats, for steps of either sign, on a one-member 1x1 stack too
    rng = np.random.default_rng(43)
    for n, dim in [(3, 4), (1, 1), (2, 9)]:
        def random_map():
            M = (rng.standard_normal((dim * dim, dim * dim))
                 + 1j * rng.standard_normal((dim * dim, dim * dim)))
            return lambda X: (X.reshape(n, -1) @ M.T).reshape(X.shape)

        a0, a_mid, a1 = random_map(), random_map(), random_map()
        for h in (0.01, 0.37, -0.05, -1.3):
            tau = (rng.standard_normal((n, dim, dim))
                   + 1j * rng.standard_normal((n, dim, dim)))
            k1 = a0(tau)
            k2 = a_mid(tau + 0.5 * h * k1)
            k3 = a_mid(tau + 0.5 * h * k2)
            k4 = a1(tau + h * k3)
            constants = evolution.step_constants(h)
            assert np.array_equal(
                evolution.rk4_step(a0, a_mid, a1, constants, tau),
                tau + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
