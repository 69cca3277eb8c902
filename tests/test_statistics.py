import math

import numpy as np
import pytest

from contmeas import (AliasingError, Constant, EvolutionConfig, FieldProfile,
                      GridAxis, IncrementGrid, InversionQualityError,
                      ObservableSpec, ValidationError, counting_axis,
                      counting_distribution, diffusive_axis, invert_counting,
                      invert_homodyne, joint_charfunc, trivial_model)


def poisson_setup(amplitude=np.sqrt(2.0), horizon=1.0):
    """Single counting channel fed by a constant coherent field: the count
    over [0, T] is Poisson with mean |f|^2 T."""
    model = trivial_model(1)
    obs = ObservableSpec.counting_only(1, horizon, np.array([[1.0]]))
    field = FieldProfile((Constant(amplitude),), horizon)
    rho0 = np.array([[1.0 + 0j]])
    return model, obs, field, rho0


def test_axis_validation():
    with pytest.raises(ValidationError):
        counting_axis(0, 1, n_points=100)        # not a power of two
    with pytest.raises(ValidationError):
        diffusive_axis(0, 1, kappa_max=-1.0)
    with pytest.raises(ValidationError):
        GridAxis(0, 1, "ballistic", np.zeros(3))
    ax = diffusive_axis(0, 1, 4.0, n_points=10)  # even count is bumped to odd
    assert len(ax.samples) == 11
    assert ax.samples[5] == 0.0


def test_grid_validation_and_test_function():
    ax1 = counting_axis(0, 1, 4)
    ax2 = counting_axis(1, 2, 4)
    with pytest.raises(ValidationError):
        IncrementGrid((0.5, 1.0), (ax1,))
    with pytest.raises(ValidationError):
        IncrementGrid((0.0, 1.0, 1.0), (ax1,))
    with pytest.raises(ValidationError):
        IncrementGrid((0.0, 1.0), (ax2,))        # interval 1 does not exist
    grid = IncrementGrid((0.0, 0.5, 2.0), (ax1, ax2))
    assert grid.t_end == 2.0
    assert grid.shape() == (4, 4)
    k = grid.test_function(3, [0.7, -0.3])
    assert np.allclose(k.value(0.2), [0.7, 0.0, 0.0])
    assert np.allclose(k.value(1.0), [0.0, -0.3, 0.0])


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
    ax1 = GridAxis(0, 1, "counting", np.array([0.0, 0.9]))
    ax2 = GridAxis(1, 1, "counting", np.array([0.0, 1.3]))
    grid = IncrementGrid((0.0, 0.8, 2.0), (ax1, ax2))
    phi = joint_charfunc(model, obs, field, rho0, grid,
                         EvolutionConfig(dt=1e-2))
    assert abs(phi[0, 0] - 1.0) < 1e-10
    assert abs(phi[1, 1] - phi[1, 0] * phi[0, 1]) < 1e-9


def test_charfunc_along_at_zero_is_trace():
    model, obs, field, rho0 = poisson_setup()
    axis = GridAxis(0, 1, "diffusive", np.array([0.0]))
    phi = joint_charfunc(model, obs, field, rho0,
                         IncrementGrid((0.0, 1.0), (axis,)),
                         EvolutionConfig(dt=1e-2))
    assert abs(phi[0] - 1.0) < 1e-12
