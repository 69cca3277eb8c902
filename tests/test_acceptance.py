"""Acceptance suite: eleven numbered criteria covering model construction,
generator correctness, contractivity and positivity of the statistics,
closed-form distributions, independent oracles, and integrator order.

Each test prints one line, PASS or FAIL, with the measured value and its
tolerance, so a transcript of this module doubles as a certification
report.  All reference values are produced by routes independent of the
production code path: closed-form formulas, adaptive quadrature, dense
matrix exponentials, or adjoint (backward) propagation.
"""

import numpy as np
import pytest

import helpers
from contmeas import (Constant, DpoParams, EvolutionConfig, FieldProfile,
                      GeneratorContext, ObservableSpec, TestFunction,
                      TruncatedSpace, ZERO, check_dissipativity,
                      composition_check, counting_distribution,
                      dense_expm_propagate, dpo_laser_field, dpo_model,
                      dpo_observables, duality_check, evolve, generator_at,
                      homodyne_distribution, ladder_b, trivial_model)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_output(capsys):
    # route the one-line verdicts past pytest's capture so a plain
    # `pytest -v` transcript contains the certification lines
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(criterion: int, label: str, value: float, tol: float,
           ok: bool | None = None):
    if ok is None:
        ok = value < tol
    verdict = "PASS" if ok else "FAIL"
    line = (f"[criterion {criterion:2d}] {verdict}: {label}: "
            f"value {value:.3e} vs tolerance {tol:.1e}")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}", end="")
    else:
        print(line)
    assert ok


def vacuum(dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def standard_params(**over):
    base = dict(omega_c=1.0, g=0.3, kappa=0.5, kappa_p=1.0,
                lambda_drive=0.1)
    base.update(over)
    return DpoParams.from_splittings(**base)


def test_criterion_01_dissipativity():
    """Randomized flagship models define dissipative dynamics: the drift
    and channel operators satisfy the interior operator identity."""
    rng = np.random.default_rng(101)
    space = TruncatedSpace(12, 8)
    worst = 0.0
    for _ in range(20):
        params = helpers.random_dpo_params(rng)
        model = dpo_model(params, space)
        rep = check_dissipativity(model, guard=2)
        worst = max(worst, rep.max_residual)
    report(1, "max dissipativity residual over 20 random models", worst,
           1e-10)


def test_criterion_02_generator_matches_master_equation():
    """At kappa = 0, with the laser drive on, the generator agrees with an
    independently coded master-equation right-hand side."""
    rng = np.random.default_rng(202)
    n_max, m_max = 12, 8
    params = helpers.random_dpo_params(rng, omega_c=1.0)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, 4.0)
    field = dpo_laser_field(params, 4.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    worst = 0.0
    for _ in range(100):
        rho = helpers.random_hermitian(model.space.dim, rng)
        t = rng.uniform(0.0, 3.9)
        lhs = generator_at(ctx, t).apply(rho[None])[0]
        rhs = helpers.master_equation_rhs(params, n_max, m_max, t, rho)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(2, "max generator vs master-equation deviation, 100 samples",
           worst, 1e-12)


def test_criterion_03_normalization():
    """With the test function off the characteristic value stays 1: the
    evolution is trace preserving up to truncation leakage."""
    params = standard_params()
    model = dpo_model(params, TruncatedSpace(12, 8))
    obs = dpo_observables(params, 6.0)
    field = dpo_laser_field(params, 6.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    res = evolve(ctx, vacuum(model.space.dim), 6.0, EvolutionConfig(dt=0.01))
    report(3, "|phi(0) - 1| over [0, 6]", abs(res.trace[0] - 1.0), 1e-7)


def test_criterion_04_contractivity():
    """For any test function the characteristic value is bounded by 1."""
    rng = np.random.default_rng(404)
    params = standard_params()
    model = dpo_model(params, TruncatedSpace(6, 4))
    T = 1.0
    obs = dpo_observables(params, T)
    field = dpo_laser_field(params, T)
    rho0 = vacuum(model.space.dim)
    worst = 0.0
    for _ in range(30):
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)),
                                 [T]])
        kappa = TestFunction(breaks, rng.uniform(-2.0, 2.0, (3, 3)))
        ctx = GeneratorContext(model=model, observables=obs, field=field,
                               kappa=kappa)
        res = evolve(ctx, rho0, T, EvolutionConfig(dt=4e-3))
        worst = max(worst, res.max_abs_trace[0])
    report(4, "max |phi| over 30 random test functions", worst - 1.0, 1e-9)


def test_criterion_05_positive_definiteness():
    """Gram matrices of characteristic values at test-function differences
    are positive semidefinite."""
    rng = np.random.default_rng(505)
    params = helpers.random_dpo_params(rng, omega_c=1.0, g=0.3)
    model = dpo_model(params, TruncatedSpace(6, 4))
    T = 1.0
    obs = dpo_observables(params, T)
    field = dpo_laser_field(params, T)
    rho0 = vacuum(model.space.dim)
    config = EvolutionConfig(dt=5e-3)
    min_eig = np.inf
    for _ in range(10):
        ks = []
        for _ in range(5):
            breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 0.8, 1)),
                                     [T]])
            ks.append(TestFunction(breaks, rng.uniform(-0.8, 0.8, (2, 3))))
        G = np.eye(5, dtype=complex)
        for i in range(5):
            for j in range(i + 1, 5):
                ctx = GeneratorContext(model=model, observables=obs,
                                       field=field,
                                       kappa=helpers.difference(ks[i], ks[j]))
                G[i, j] = evolve(ctx, rho0, T, config).trace[0]
                G[j, i] = np.conj(G[i, j])
        min_eig = min(min_eig, float(np.linalg.eigvalsh(G).min()))
    report(5, "min Gram eigenvalue over 10 random sets", min_eig, -1e-7,
           ok=min_eig >= -1e-7)


def test_criterion_06_composition():
    """Propagating to t in one shot agrees with stopping at s and
    continuing from s to t."""
    params = standard_params()
    model = dpo_model(params, TruncatedSpace(6, 4))
    obs = dpo_observables(params, 1.4)
    field = dpo_laser_field(params, 1.4)
    kappa = TestFunction([0.0, 0.6, 1.4], [[0.3, 0.0, 0.5], [0.2, 0.4, 0.0]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    rep = composition_check(ctx, vacuum(model.space.dim), 0.6, 1.4,
                            EvolutionConfig(dt=5e-3))
    tol = 10.0 * max(rep["step_halving_estimate"], 1e-14)
    report(6, "composition deviation (tolerance = 10x step-halving "
           "estimate)", rep["deviation"], tol)


def test_criterion_07_poisson_counting():
    """A counting channel fed by a constant coherent field reproduces the
    Poisson distribution with mean |f|^2 T."""
    import math
    model = trivial_model(1)
    obs = ObservableSpec.counting_only(1, 1.0, np.array([[1.0]]))
    mu = 2.0
    field = FieldProfile((Constant(np.sqrt(mu)),), 1.0)
    p = counting_distribution(model, obs, field, np.array([[1.0 + 0j]]),
                              1, 1.0, n_points=256,
                              config=EvolutionConfig(dt=2e-3))
    exact = np.exp(-mu) * np.array(
        [mu ** n / math.factorial(n) for n in range(40)])
    err = float(np.max(np.abs(p[:40] - exact)))
    report(7, "sup|p(n) - Poisson(2)| over n < 40", err, 1e-8)


def test_criterion_08_gaussian_homodyne():
    """A diffusive observable on the vacuum yields N(0, T); adding a
    constant coherent field shifts the mean by 2 Re(f) T."""
    T = 1.0
    model = trivial_model(2)
    h = ((Constant(1.0), ZERO),)
    obs = ObservableSpec(m=1, d=2, horizon=T,
                         eigenvalues=np.zeros((1, 2)), h=h,
                         b=(ZERO, ZERO), c=(ZERO,))
    rho0 = np.array([[1.0 + 0j]])
    x = np.linspace(-5.0, 5.0, 101)
    config = EvolutionConfig(dt=2e-3)

    def gaussian(mean):
        return np.exp(-0.5 * (x - mean) ** 2 / T) / np.sqrt(2 * np.pi * T)

    field0 = FieldProfile((ZERO, ZERO), T)
    dens0 = homodyne_distribution(model, obs, field0, rho0, 1, T, 12.0, x,
                                  257, config)
    f = 0.7
    field1 = FieldProfile((Constant(f), ZERO), T)
    dens1 = homodyne_distribution(model, obs, field1, rho0, 1, T, 12.0, x,
                                  257, config)
    err = max(float(np.max(np.abs(dens0 - gaussian(0.0)))),
              float(np.max(np.abs(dens1 - gaussian(2 * f * T)))))
    report(8, "sup density error, vacuum and coherent-shifted Gaussian",
           err, 1e-6)


def test_criterion_09_independent_oracles():
    """The engine agrees with a dense matrix-exponential propagation (with
    matched frozen coefficients) and with backward adjoint propagation."""
    rng = np.random.default_rng(909)
    params = helpers.random_dpo_params(rng)
    model = dpo_model(params, TruncatedSpace(2, 2))
    T = 2.0
    obs = dpo_observables(params, T)
    field = dpo_laser_field(params, T)
    kappa = TestFunction([0.0, 0.7, 1.4, T],
                         [[0.4, -0.2, 0.3], [0.1, 0.5, 0.0],
                          [-0.3, 0.2, 0.6]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    rho0 = vacuum(model.space.dim)
    reference = dense_expm_propagate(model, obs, field, kappa, rho0, T)
    engine = evolve(ctx, rho0, T,
                    EvolutionConfig(dt=2e-3, freeze=True,
                                    contractivity_check="off")).final[0]
    expm_dev = float(np.max(np.abs(engine - reference)))
    report(9, "engine vs dense matrix exponential", expm_dev, 1e-8)

    X = helpers.random_hermitian(model.space.dim, rng)
    dual = duality_check(ctx, helpers.random_density(model.space.dim, rng),
                         X, 1.7, EvolutionConfig(dt=1e-3))
    report(9, "forward-backward duality residual", dual["residual"], 1e-7)


def test_criterion_10_driven_mean_field():
    """Without down-conversion the driven pump mode is a coherent state
    with the closed-form mean beta(t)."""
    params = DpoParams.from_splittings(omega_c=1.0, g=0.0, kappa=0.5,
                                       kappa_p=1.0, lambda_drive=0.05)
    model = dpo_model(params, TruncatedSpace(3, 5))
    T = 3.0
    obs = dpo_observables(params, T)
    field = dpo_laser_field(params, T)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    b_op = ladder_b(model.space).to_dense()
    lam = params.lambda_drive
    kp = params.kappa_p
    worst = 0.0
    for t in (0.5, 1.5, 3.0):
        res = evolve(ctx, vacuum(model.space.dim), t,
                     EvolutionConfig(dt=5e-4))
        mean = np.trace(b_op @ res.final[0])
        exact = -1j * lam * np.exp(-2j * params.omega_c * t) \
            * (1.0 - np.exp(-kp * t)) / kp
        worst = max(worst, abs(mean - exact) / abs(exact))
    report(10, "max relative error of <b>(t) vs closed form", worst, 1e-6)


def test_criterion_11_integrator_order():
    """Halving the step shrinks the error by the classical fourth-order
    factor: the observed ratio lies in [12, 20]."""
    params = standard_params(g=0.4)
    model = dpo_model(params, TruncatedSpace(6, 4))
    T = 1.0
    obs = dpo_observables(params, T)
    field = dpo_laser_field(params, T)
    kappa = TestFunction([0.0, T], [[0.5, 0.3, 0.4]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    rho0 = vacuum(model.space.dim)
    finals = {}
    for dt in (0.05, 0.025, 0.0125):
        finals[dt] = evolve(ctx, rho0, T, EvolutionConfig(dt=dt)).final[0]
    err_coarse = float(np.max(np.abs(finals[0.05] - finals[0.025])))
    err_fine = float(np.max(np.abs(finals[0.025] - finals[0.0125])))
    ratio = err_coarse / err_fine
    report(11, "error ratio under step halving (expected in [12, 20])",
           ratio, 20.0, ok=12.0 <= ratio <= 20.0)
