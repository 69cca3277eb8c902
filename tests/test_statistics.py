import json
import math
import pathlib
import weakref

import numpy as np
import pytest

import helpers
import contmeas.statistics as statistics
from contmeas import (ZERO, AliasingError, Constant, ContractivityError,
                      EvolutionConfig, FieldProfile, GeneratorContext,
                      Harmonic, IntegrationError, InversionQualityError,
                      ObservableSpec, TestFunction, TruncatedSpace,
                      ValidationError, counting_axis, counting_distribution,
                      diffusive_axis, dpo_laser_field, dpo_model,
                      dpo_observables, evolve, homodyne_distribution,
                      invert_counting, invert_homodyne, joint_charfunc,
                      on_interval, trivial_model)
from contmeas import evolution


def poisson_setup(amplitude=np.sqrt(2.0), horizon=1.0):
    """Single counting channel fed by a constant coherent field: the count
    over [0, T] is Poisson with mean |f|^2 T."""
    model = trivial_model(1)
    obs = ObservableSpec.counting_only(1, horizon, np.array([[1.0]]))
    field = FieldProfile((Constant(amplitude),), horizon)
    rho0 = np.array([[1.0 + 0j]])
    return model, obs, field, rho0


def driven_dpo(occupied=((1, 0),)):
    """A driven oscillator model truncated at (4, 3) on the horizon 1, the
    local oscillator rotating at the subharmonic carrier, started in the
    equal superposition of the `occupied` Fock states (by default the Fock
    state (1, 0))."""
    params = helpers.random_dpo_params(np.random.default_rng(12))
    space = TruncatedSpace(4, 3)
    model = dpo_model(params, space)
    obs = dpo_observables(params, 1.0)
    field = dpo_laser_field(params, 1.0)
    v = np.zeros(space.dim, dtype=complex)
    v[[space.index(n, m) for n, m in occupied]] = 1.0
    return model, obs, field, np.outer(v, v.conj()) / len(occupied)


def test_axis_validation():
    with pytest.raises(ValidationError):
        counting_axis(n_points=100)              # not a power of two
    with pytest.raises(ValidationError):
        diffusive_axis(kappa_max=-1.0)
    samples = diffusive_axis(4.0, n_points=10)   # even count is bumped to odd
    assert len(samples) == 11
    assert samples[5] == 0.0
    for n_points in (1, 2):                      # too small: raised to 3
        samples = diffusive_axis(7.0, n_points=n_points)
        assert len(samples) == 3
        assert samples[1] == 0.0
    # exactly antisymmetric, so a mirrored sample is the exact negative
    for kappa_max, n_points in ((7.0, 25), (4.0, 10), (14.0, 257)):
        samples = diffusive_axis(kappa_max, n_points)
        assert np.array_equal(samples, -samples[::-1])
        assert samples[0] == -kappa_max and samples[-1] == kappa_max


def test_on_interval_test_functions():
    ks = on_interval(3, 2, 1.5, [0.7, -0.3])
    assert len(ks) == 2
    for k, kap in zip(ks, [0.7, -0.3]):
        assert k.m == 3
        assert k.breakpoints() == (0.0, 1.5)
        assert np.array_equal(k.value(0.2), [0.0, kap, 0.0])
        assert np.array_equal(k.value(0.0), [0.0, kap, 0.0])
        assert np.array_equal(k.value(1.5), np.zeros(3))
        assert np.array_equal(k.value(-0.1), np.zeros(3))


def test_invert_counting_poisson_closed_form():
    mu = 1.7
    n = 128
    kappas = 2.0 * np.pi * np.arange(n) / n
    phi = np.exp(mu * (np.exp(1j * kappas) - 1.0))
    p = invert_counting(phi)
    counts = np.arange(n)
    exact = np.exp(-mu) * np.array(
        [mu ** int(c) / math.factorial(int(c)) for c in counts[:20]])
    assert np.max(np.abs(p[:20] - exact)) < 1e-12
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_invert_counting_rejects_corrupted_input():
    n = 64
    kappas = 2.0 * np.pi * np.arange(n) / n
    phi = np.exp(2.0 * (np.exp(1j * kappas) - 1.0))
    bad = phi.copy()
    bad[3] += 0.05
    with pytest.raises(InversionQualityError):
        invert_counting(bad)


def test_invert_homodyne_gaussian_closed_form():
    sigma = 0.8
    mean = 0.3
    kappas = np.linspace(-12.0, 12.0, 401)
    phi = np.exp(1j * mean * kappas - 0.5 * (sigma * kappas) ** 2)
    x = np.linspace(-3.5, 4.1, 121)
    dens = invert_homodyne(kappas, phi, x)
    exact = np.exp(-0.5 * ((x - mean) / sigma) ** 2) / (
        sigma * np.sqrt(2.0 * np.pi))
    assert np.max(np.abs(dens - exact)) < 1e-9


def test_invert_homodyne_detects_aliasing():
    kappas = np.linspace(-2.0, 2.0, 81)
    phi = np.exp(-0.5 * kappas ** 2)      # far from decayed at the edge
    with pytest.raises(AliasingError):
        invert_homodyne(kappas, phi, np.linspace(-3, 3, 11))


def test_invert_homodyne_rejects_window_wider_than_period():
    # spacing 1 gives the period 2 pi: the density repeats every 6.28
    kappas = np.linspace(-8.0, 8.0, 17)
    phi = np.exp(-0.5 * kappas ** 2)
    dens = invert_homodyne(kappas, phi, np.linspace(-3.0, 3.0, 13))
    assert dens[6] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-7)
    with pytest.raises(AliasingError, match="n_points"):
        invert_homodyne(kappas, phi, np.linspace(-4.0, 4.0, 17))
    with pytest.raises(AliasingError):
        invert_homodyne(kappas, phi, np.array([0.0, 2.0 * np.pi]))


def test_counting_distribution_is_poisson():
    model, obs, field, rho0 = poisson_setup()
    mu = 2.0
    p = counting_distribution(model, obs, field, rho0, 1, 1.0, n_points=64,
                              config=EvolutionConfig(dt=1e-2))
    counts = np.arange(10)
    exact = np.exp(-mu) * np.array(
        [mu ** c / math.factorial(int(c)) for c in counts])
    assert np.max(np.abs(p[:10] - exact)) < 1e-7


def test_moments_of_poisson_count():
    model, obs, field, rho0 = poisson_setup()
    mu = 2.0
    p = counting_distribution(model, obs, field, rho0, 1, 1.0, n_points=64,
                              config=EvolutionConfig(dt=2e-3))
    n = np.arange(len(p))
    assert abs(n @ p - mu) < 1e-6
    assert abs(n ** 2 @ p - (mu + mu ** 2)) < 1e-5


def test_joint_charfunc_factorizes_disjoint_windows():
    # increments of the same Poisson process on disjoint windows are
    # independent, so the joint characteristic function factorizes
    model, obs, field, rho0 = poisson_setup(horizon=2.0)
    kappas = [TestFunction([0.0, 0.8, 2.0], [[k1], [k2]])
              for k1, k2 in [(0.0, 0.0), (0.0, 1.3), (0.9, 0.0), (0.9, 1.3)]]
    phi = joint_charfunc(model, obs, field, rho0, kappas, 2.0,
                         EvolutionConfig(dt=1e-2))
    assert phi.shape == (4,)
    assert abs(phi[0] - 1.0) < 1e-10
    assert abs(phi[3] - phi[2] * phi[1]) < 1e-9


def test_charfunc_along_at_zero_is_trace():
    model, obs, field, rho0 = poisson_setup()
    phi = joint_charfunc(model, obs, field, rho0,
                         on_interval(obs.m, 1, 1.0, [0.0]), 1.0,
                         EvolutionConfig(dt=1e-2))
    assert abs(phi[0] - 1.0) < 1e-12


@pytest.mark.parametrize("offset, rho0, rejected", [
    (Constant(0.1), np.array([[1.0 + 0j]]), None),
    (Constant(0.1), np.array([[1.0 + 1e-6j]]), "not Hermitian"),
    (Constant(0.1j), np.array([[1.0 + 0j]]), "not real-valued"),
    (Harmonic(1.0, 0.0, 2.0), np.array([[1.0 + 0j]]), "not real-valued"),
], ids=["real-offset", "non-hermitian-rho0", "imaginary-offset",
        "rotating-offset"])
def test_homodyne_symmetry_preconditions(offset, rho0, rejected):
    # a quadrature on the vacuum with a real offset c is N(c T, T); an
    # offset that is not real or a non-Hermitian initial state would break
    # phi(-kappa) = conj phi(kappa), so either is rejected
    T = 1.0

    def density():
        obs = ObservableSpec(m=1, d=1, horizon=T, eigenvalues=np.zeros((1, 1)),
                             h=((Constant(1.0),),), b=(ZERO,), c=(offset,))
        x = np.linspace(-3.0, 3.0, 61)
        p = homodyne_distribution(trivial_model(1), obs,
                                  FieldProfile((ZERO,), T), rho0, 1, T, 10.0,
                                  x, 65, EvolutionConfig(dt=0.01))
        return x, p

    if rejected is not None:
        with pytest.raises(ValidationError, match=rejected):
            density()
        return
    x, p = density()
    exact = np.exp(-0.5 * (x - 0.1 * T) ** 2 / T) / np.sqrt(2 * np.pi * T)
    assert np.max(np.abs(p - exact)) < 1e-8


def _dpo_pairs():
    model, obs, field, rho0 = driven_dpo()
    quadrature = on_interval(obs.m, 3, 1.0, [0.3, 1.7, 4.2])
    windows = [TestFunction([0.0, 0.4, 1.0], [[0.8, -0.5, 1.3],
                                              [-0.2, 1.1, -2.4]])]
    return model, obs, field, rho0, quadrature + windows


def _system_free_pairs():
    # a counted channel with a nonzero reference field b, next to a
    # quadrature channel with a real classical offset
    obs = ObservableSpec(m=2, d=2, horizon=1.0,
                         eigenvalues=np.array([[1.0, 0.0], [0.0, 0.0]]),
                         h=((ZERO, ZERO), (ZERO, Harmonic(0.8, 0.3, 1.1))),
                         b=(Constant(0.3 + 0.2j), ZERO),
                         c=(ZERO, Constant(0.1)))
    field = FieldProfile((Constant(0.5 - 0.4j), Constant(0.2j)), 1.0)
    kappas = [TestFunction([0.0, 0.6, 1.0], [[0.9, -1.3], [2.1, 0.4]])]
    return trivial_model(2), obs, field, np.array([[1.0 + 0j]]), kappas


@pytest.mark.parametrize("build", [_dpo_pairs, _system_free_pairs],
                         ids=["driven-dpo", "system-free-counting"])
def test_charfunc_conjugate_symmetry(build):
    # a real record has phi(-kappa) = conj phi(kappa); the homodyne
    # marginal propagates only kappa >= 0 and relies on this
    model, obs, field, rho0, kappas = build()
    config = EvolutionConfig(dt=0.02)
    for k in kappas:
        minus = TestFunction(k.breaks, -k.values)
        phi = joint_charfunc(model, obs, field, rho0, [k, minus], 1.0, config)
        assert abs(phi[0]) > 1e-4
        assert abs(phi[1] - np.conj(phi[0])) <= 1e-14


def count_members(monkeypatch) -> list:
    """Patch the sweep's propagator to record how many test functions each
    call propagates, the size of its stack."""
    members = []
    evolve = statistics.evolve

    def stacked(stack, *args, **kwargs):
        members.append(len(stack))
        return evolve(stack, *args, **kwargs)

    monkeypatch.setattr(statistics, "evolve", stacked)
    return members


@pytest.mark.parametrize("n_points, x, members", [
    (25, np.linspace(-4.0, 4.0, 81), 13),
    (3, np.linspace(-0.4, 0.4, 5), 2),
])
def test_homodyne_half_grid_matches_full(monkeypatch, n_points, x, members):
    # the superposition of (0, 0) and (1, 0) breaks the a -> -a symmetry
    # that makes phi real on the Fock state, so a mirror without the
    # conjugate would show
    model, obs, field, rho0 = driven_dpo(occupied=((0, 0), (1, 0)))
    config = EvolutionConfig(dt=0.04)
    kappa_max = 7.0
    samples = diffusive_axis(kappa_max, n_points)
    full = joint_charfunc(model, obs, field, rho0,
                          on_interval(obs.m, 3, 1.0, samples), 1.0, config)
    if n_points > 3:          # on [-7, 0, 7] only phi(0) = 1 is not ~0
        assert np.max(np.abs(full.imag)) > 1e-3
    want = invert_homodyne(samples, full, x)
    propagated = count_members(monkeypatch)
    got = homodyne_distribution(model, obs, field, rho0, 3, 1.0, kappa_max,
                                x, n_points, config)
    assert sum(propagated) == members
    assert np.max(np.abs(got - want)) <= 1e-13


def _kappa_grid():
    model, obs, field, rho0 = driven_dpo(occupied=((0, 0), (1, 0)))
    samples = diffusive_axis(7.0, 25)[12:]
    assert samples[0] == 0.0
    return model, obs, field, rho0, on_interval(obs.m, 3, 1.0, samples)


@pytest.mark.parametrize("build, stacks", [(_kappa_grid, [13]),
                                           (_dpo_pairs, [3, 1])],
                         ids=["kappa-grid", "mixed-windows"])
def test_stacked_sweep_equals_per_point_evolve(monkeypatch, build, stacks):
    # test functions with the same segments are propagated as one stack,
    # and each gets bit for bit the value, and the final state, of its
    # own propagation
    model, obs, field, rho0, kappas = build()
    config = EvolutionConfig(dt=0.04)
    alone = [evolve(GeneratorContext(model=model, observables=obs,
                                     field=field, kappa=k),
                    rho0, 1.0, config) for k in kappas]
    sizes = count_members(monkeypatch)
    finals = []
    phi = joint_charfunc(model, obs, field, rho0, kappas, 1.0, config,
                         finals)
    assert sizes == stacks
    assert phi.shape == (len(kappas),)
    assert np.array_equal(phi, [res.trace[0] for res in alone])
    assert all(np.array_equal(f, res.final[0])
               for f, res in zip(finals, alone))


@pytest.mark.parametrize("members, sizes", [(4, [4, 4, 4, 1]),
                                            (0, [1] * 13)])
def test_stacked_sweep_parts_stay_in_budget(monkeypatch, members, sizes):
    # a group whose states would exceed STACK_BUDGET entries runs in parts
    # of at most that many, or of one member where one is more, with
    # the bits of the one-stack run
    model, obs, field, rho0, kappas = _kappa_grid()
    config = EvolutionConfig(dt=0.04)
    whole_finals = []
    whole = joint_charfunc(model, obs, field, rho0, kappas, 1.0, config,
                           whole_finals)
    entries = model.space.dim ** 2
    propagated = count_members(monkeypatch)
    monkeypatch.setattr(statistics, "STACK_BUDGET",
                        (members + 1) * entries - 1)
    finals = []
    phi = joint_charfunc(model, obs, field, rho0, kappas, 1.0, config,
                         finals)
    assert propagated == sizes
    assert all(n * entries <= max(entries, statistics.STACK_BUDGET)
               for n in propagated)
    assert np.array_equal(phi, whole)
    assert all(np.array_equal(f, g) for f, g in zip(finals, whole_finals))


def test_shipped_sweeps_are_one_stack():
    # the largest shipped sweep on the RK4 route, the 129 members of the
    # dim-20 homodyne grid, runs as one stack
    cfg = json.loads((pathlib.Path(__file__).parent.parent / "configs"
                      / "dpo_homodyne.json").read_text())
    truncation = cfg["model"]["truncation"]
    dim = (truncation["n_max"] + 1) * (truncation["m_max"] + 1)
    members = len(diffusive_axis(1.0, cfg["run"]["n_points"])) // 2 + 1
    assert (dim, members) == (20, 129)
    assert members * dim ** 2 <= statistics.STACK_BUDGET


def _two_windows(second):
    """Quadrature test functions on [0, 0.4) and [0.4, 1), 0.3 on the
    first window and each value of `second` on the second."""
    return [TestFunction([0.0, 0.4, 1.0], [[0.0, 0.0, 0.3], [0.0, 0.0, k]])
            for k in second]


def test_stack_step_budget_checked_before_assembly(monkeypatch):
    # dt 0.05 covers [0, 0.4] in 8 steps and [0.4, 1] in 12; a budget of
    # 10 admits the first segment and stops before the second is
    # assembled, a budget of 5 before anything is
    model, obs, field, rho0 = driven_dpo()
    kappas = _two_windows([0.5, 1.5, 2.5])
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
    for budget, want in ((10, [2 * 8 + 1]), (5, [])):
        assembled.clear()
        with pytest.raises(IntegrationError, match="step budget exhausted"):
            joint_charfunc(model, obs, field, rho0, kappas, 1.0,
                           EvolutionConfig(dt=0.05, max_steps=budget))
        assert assembled == want


def test_one_member_losing_contractivity_fails_the_stack():
    # at dt 0.1, kappa = 12 on the second window puts dt kappa^2 / 2 = 7.2
    # outside RK4's stability region, so that member's |trace| grows past
    # 1 by t = 1; kappa = 0.5 stays contractive.  The stack raises the
    # error the member's own run raises, at the same segment end.
    model, obs, field, rho0 = driven_dpo()
    config = EvolutionConfig(dt=0.1)
    good, bad = _two_windows([0.5, 12.0])

    def alone(kappa):
        return evolve(GeneratorContext(model=model, observables=obs,
                                       field=field, kappa=kappa),
                      rho0, 1.0, config)

    assert alone(good).max_abs_trace[0] <= 1.0
    with pytest.raises(ContractivityError, match="at t = 1;") as single:
        alone(bad)
    with pytest.raises(ContractivityError) as stacked:
        joint_charfunc(model, obs, field, rho0, [good, bad], 1.0, config)
    assert str(stacked.value) == str(single.value)


def _poisson_grid():
    model, obs, field, rho0 = poisson_setup()
    return (model, obs, field, rho0,
            on_interval(obs.m, 1, 1.0, counting_axis(8)), [(8, 0.5)],
            EvolutionConfig(dt=0.05))


def _frozen_dpo_groups():
    # two segmentations, so two groups: [0, 1] and [0, 0.4], [0.4, 1]
    model, obs, field, rho0 = driven_dpo()
    kappas = (on_interval(obs.m, 3, 1.0, [0.3, -1.7, 0.0])
              + _two_windows([0.5, -1.2]))
    return (model, obs, field, rho0, kappas, [(3, 0.5), (2, 0.2), (2, 0.7)],
            EvolutionConfig(dt=0.05, freeze=True))


@pytest.mark.parametrize("build", [_poisson_grid, _frozen_dpo_groups],
                         ids=["system-free", "dpo-freeze"])
def test_frozen_sweep_assembles_once_per_group(monkeypatch, build):
    # on the frozen route every test function is still its own
    # propagation, with the bits of its own one-member run, while its
    # group assembles each segment's midpoint generator once for all of
    # its members
    from contmeas import generator
    model, obs, field, rho0, kappas, assemblies, config = build()
    alone = [evolve(GeneratorContext(model=model, observables=obs,
                                     field=field, kappa=k),
                    rho0, 1.0, config) for k in kappas]
    assembled = []
    stage_rows = generator.stage_rows

    def counting(stack, times, start):
        assembled.extend((len(stack), t) for t in times)
        return stage_rows(stack, times, start)

    monkeypatch.setattr(generator, "stage_rows", counting)
    sizes = count_members(monkeypatch)
    finals = []
    phi = joint_charfunc(model, obs, field, rho0, kappas, 1.0, config,
                         finals)
    assert sizes == [1] * len(kappas)
    assert assembled == assemblies
    assert np.array_equal(phi, [res.trace[0] for res in alone])
    assert all(np.array_equal(f, res.final[0])
               for f, res in zip(finals, alone))


def test_frozen_sweep_drops_each_member_before_the_next(monkeypatch):
    # on the frozen route each member's one-member stack, with its kernel
    # layout and workspace, is gone when the next member's run starts, so
    # a sweep's memory does not grow with its number of points
    model, obs, field, rho0 = driven_dpo()
    kappas = on_interval(obs.m, 1, 1.0, counting_axis(8))
    members = []
    evolve = statistics.evolve

    def watched(stack, *args, **kwargs):
        assert [ref() for ref in members] == [None] * len(members)
        members.append(weakref.ref(stack))
        return evolve(stack, *args, **kwargs)

    monkeypatch.setattr(statistics, "evolve", watched)
    joint_charfunc(model, obs, field, rho0, kappas, 1.0,
                   EvolutionConfig(dt=0.1, freeze=True))
    assert len(members) == len(kappas)
