import numpy as np
import pytest

from contmeas import (ZERO, Constant, DpoParams, Harmonic, ObservableSpec,
                      ValidationError, dpo_observables)
from contmeas.measurement import _inner


def make_params(theta3=0.7):
    return DpoParams.from_splittings(omega_c=1.3, g=0.4, kappa=0.5,
                                     kappa_p=1.0, theta3=theta3,
                                     lambda_drive=0.1)


def test_dpo_observables_layout():
    obs = dpo_observables(make_params(), horizon=5.0)
    assert obs.m == 3 and obs.d == 8
    assert obs.eigenvalues[0, 0] == 1.0
    assert obs.eigenvalues[1, 1] == 1.0
    assert np.count_nonzero(obs.eigenvalues) == 2
    # quadrature profile lives only on channel 3 of observable 3
    for alpha in range(3):
        for i in range(8):
            if (alpha, i) != (2, 2):
                assert obs.h[alpha][i] is ZERO
    val = obs.h[2][2].value(2.0)
    assert val == pytest.approx(np.exp(1j * (0.7 - 1.3 * 2.0)))


def test_kernel_diagonal_unimodular():
    obs = dpo_observables(make_params(), horizon=2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        kappa = rng.uniform(-4, 4, 3)
        s = obs.kernel_diagonal(kappa)
        assert np.allclose(np.abs(s), 1.0)
        assert s[0] == pytest.approx(np.exp(1j * kappa[0]))
        assert s[1] == pytest.approx(np.exp(1j * kappa[1]))
        assert np.allclose(s[2:], 1.0)


def test_r_vector_reflection_identity():
    # S(kappa)^dag r(kappa; t) = -r(-kappa; t)
    obs = dpo_observables(make_params(), horizon=2.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        kappa = rng.uniform(-3, 3, 3)
        t = rng.uniform(0, 2.0)
        s = obs.kernel_diagonal(kappa)
        lhs = np.conj(s) * obs.r_vector(kappa, t)
        rhs = -obs.r_vector(-kappa, t)
        assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("profile, compatible", [
    (Harmonic(1.0), False),
    (Harmonic(0.5, 0.3, 2.0), False),
    (Constant(0.2j), False),
    (Harmonic(0.0, 0.3, 2.0), True),
], ids=["harmonic", "harmonic-rotating", "constant", "zero-amplitude"])
def test_incompatible_projective_and_quadrature_parts(profile, compatible):
    # a quadrature profile on the counted channel overlaps the projective
    # part unless it vanishes, i.e. unless its amplitude is zero
    ev = np.array([[1.0, 0.0]])
    h = ((profile, ZERO),)
    build = lambda: ObservableSpec(m=1, d=2, horizon=1.0, eigenvalues=ev,
                                   h=h, b=(ZERO, ZERO), c=(ZERO,))
    if compatible:
        assert build().h[0][0] is profile
    else:
        with pytest.raises(ValidationError, match="quadrature profile"):
            build()


def test_noncommuting_quadratures_rejected():
    # two constant profiles on one channel with relative phase i have a
    # purely imaginary inner product
    ev = np.zeros((2, 1))
    h = ((Constant(1.0),), (Constant(1.0j),))
    with pytest.raises(ValidationError):
        ObservableSpec(m=2, d=1, horizon=1.0, eigenvalues=ev, h=h,
                       b=(ZERO,), c=(ZERO, ZERO))


def test_shape_validation():
    with pytest.raises(ValidationError):
        ObservableSpec(m=1, d=2, horizon=1.0, eigenvalues=np.zeros((2, 2)),
                       h=((ZERO, ZERO),), b=(ZERO, ZERO), c=(ZERO,))
    with pytest.raises(ValidationError):
        ObservableSpec.counting_only(2, -1.0, np.zeros((1, 2)))


def test_h_gram_harmonic():
    # <h|h> over [0, T] for a unimodular harmonic is just T
    obs = dpo_observables(make_params(), horizon=3.0)
    gram = obs.h_gram()
    assert gram[2, 2] == pytest.approx(3.0)
    assert np.allclose(gram[:2, :], 0.0) and np.allclose(gram[:, :2], 0.0)


def test_inner_closed_form_matches_quadrature():
    a = Harmonic(1.5, 0.3, 2.0)
    b = Harmonic(0.5 - 0.5j, -0.2, -1.0)
    exact = _inner(a, b, 2.0)
    ts = np.linspace(0, 2.0, 20001)
    vals = np.conj([a.value(t) for t in ts]) * np.array([b.value(t) for t in ts])
    numeric = np.trapz(vals, ts) if not hasattr(np, "trapezoid") \
        else np.trapezoid(vals, ts)
    assert exact == pytest.approx(numeric, abs=1e-7)


def test_scalar_term_gaussian_weight():
    # with only quadrature parts the scalar term, the time integral of the
    # constant scalar rate, is the Gaussian exponent
    ev = np.zeros((1, 1))
    obs = ObservableSpec(m=1, d=1, horizon=2.0, eigenvalues=ev,
                         h=((Constant(1.0),),), b=(ZERO,), c=(ZERO,))
    val = 2.0 * obs.coefficients(np.array([0.8]), 0.7)[3]
    assert val == pytest.approx(-0.5 * 0.8 ** 2 * 2.0)


def test_scalar_term_counting_reference_field():
    # a reference field on a counted channel produces the Poisson exponent
    ev = np.array([[1.0]])
    obs = ObservableSpec(m=1, d=1, horizon=1.5, eigenvalues=ev,
                         h=((ZERO,),), b=(Constant(2.0),), c=(ZERO,))
    val = 1.5 * obs.coefficients(np.array([0.9]), 0.4)[3]
    assert val == pytest.approx((np.exp(0.9j) - 1.0) * 4.0 * 1.5)
