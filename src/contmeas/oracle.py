"""Independent reference computations used to cross-check the engine.

Three oracles, each built along a different route than the production
path:

* `system_free_charfunc`: for the system-free model the characteristic
  function is an explicit exponential of a scalar time integral, done
  here with adaptive quadrature.
* `dense_expm_propagate`: on tiny spaces the full superoperator matrix
  fits in memory; freeze the coefficients per smooth segment and apply
  the matrix exponential.  The superoperator is assembled from the raw
  model and observable data, not from the production generator code.
* `duality_check`: propagate a functional backward through the adjoint
  generator and compare the two ways of evaluating the same pairing.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.integrate import quad

from .errors import ValidationError
from .evolution import EvolutionConfig, evolve
from .generator import GeneratorContext, generator_at
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import FieldProfile, TestFunction, segments

DENSE_DIM_LIMIT = 12


def system_free_charfunc(obs: ObservableSpec, field: FieldProfile,
                         kappa: TestFunction, t_end: float) -> complex:
    """Exact characteristic function of the system-free model.

    phi = exp( int_0^T [ i sum_a k_a (c^a + <h^a|f> + <f|h^a>)
                         - (1/2) sum_ab k_a k_b <h^a(t), h^b(t)>
                         + sum_i (s_i(k) - 1) |f_i + b_i|^2 ] dt )

    with all inner products taken pointwise over the channel index.
    """

    def integrand(t: float) -> complex:
        k = kappa.value(t)
        s = obs.kernel_diagonal(k)
        f = field.value(t)
        h = np.array([[obs.h[a][i].value(t) for i in range(obs.d)]
                      for a in range(obs.m)])
        c = np.array([obs.c[a].value(t) for a in range(obs.m)])
        b = np.array([obs.b[i].value(t) for i in range(obs.d)])
        cross = h.conj() @ f
        acc = 1j * np.sum(k * (c + cross + np.conj(cross)))
        acc += -0.5 * (k @ (h.conj() @ h.T) @ k)
        acc += np.sum((s - 1.0) * np.abs(f + b) ** 2)
        return acc

    total = 0j
    for lo, hi in segments(t_end, obs, field, kappa):
        re, _ = quad(lambda t: np.real(integrand(t)), lo, hi, limit=200)
        im, _ = quad(lambda t: np.imag(integrand(t)), lo, hi, limit=200)
        total += re + 1j * im
    return complex(np.exp(total))


def _dense_superoperator(model: ModelSpec, obs: ObservableSpec,
                         field: FieldProfile, kappa: TestFunction,
                         t: float) -> np.ndarray:
    """Column-stacked superoperator matrix frozen at time t."""
    dim = model.space.dim
    lam = np.asarray(field.value(t), dtype=complex)
    k = np.asarray(kappa.value(t), dtype=float)
    s = np.exp(1j * (k @ obs.eigenvalues))
    h = np.array([[obs.h[a][i].value(t) for i in range(model.d)]
                  for a in range(obs.m)])
    b = np.array([obs.b[i].value(t) for i in range(model.d)])
    c = np.array([obs.c[a].value(t) for a in range(obs.m)])

    def r_of(sign: float) -> np.ndarray:
        sk = np.exp(1j * sign * (k @ obs.eigenvalues))
        return 1j * sign * (k @ h) + (sk - 1.0) * b

    slam = model.S @ lam
    Kd = model.K.to_dense()
    R = [op.to_dense() for op in model.R]
    B = [R[i] + slam[i] * np.eye(dim) for i in range(model.d)]

    def drift(r: np.ndarray) -> np.ndarray:
        out = Kd - 0.5 * float(np.real(np.vdot(lam, lam))) * np.eye(dim)
        for i in range(model.d):
            out = out - slam[i] * R[i].conj().T
            out = out + np.conj(r[i]) * B[i]
        return out

    K_left = drift(r_of(-1.0))
    K_right = drift(r_of(+1.0))
    rate = np.sum((s - 1.0) * np.abs(b) ** 2) + 1j * np.sum(k * c) \
        - 0.5 * (k @ (h.conj() @ h.T) @ k)

    eye = np.eye(dim)
    # vec(A X) = (I kron A) vec(X); vec(X B^dag) = (conj(B) kron I) vec(X),
    # column-stacking convention
    M = np.kron(eye, K_left) + np.kron(K_right.conj(), eye)
    for i in range(model.d):
        M += s[i] * np.kron(B[i].conj(), B[i])
    M += rate * np.eye(dim * dim)
    return M


def dense_expm_propagate(model: ModelSpec, obs: ObservableSpec,
                         field: FieldProfile, kappa: TestFunction,
                         rho0: np.ndarray, t_end: float,
                         n_sub: int = 1) -> np.ndarray:
    """Freeze the coefficients at the midpoint of each smooth segment and
    propagate vec(tau) by scipy's matrix exponential.  Matches the engine
    run with `EvolutionConfig(freeze=True)`."""
    dim = model.space.dim
    if dim > DENSE_DIM_LIMIT:
        raise ValidationError(f"dense oracle limited to dim <= {DENSE_DIM_LIMIT}")
    vec = np.array(rho0, dtype=complex).reshape(-1, order="F")
    for lo, hi in segments(t_end, obs, field, kappa):
        sub = np.linspace(lo, hi, n_sub + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            M = _dense_superoperator(model, obs, field, kappa, 0.5 * (a + b))
            vec = expm(M * (b - a)) @ vec
    return vec.reshape(dim, dim, order="F")


def duality_check(ctx: GeneratorContext, rho0: np.ndarray, X: np.ndarray,
                  t: float, config: EvolutionConfig | None = None) -> dict:
    """Forward-backward consistency of the trace pairing.

    Evolve rho0 forward to time t.  Evolve X backward from t to 0 through
    the adjoint generator.  Both routes evaluate the same number:
    Tr(X tau(t)) = Tr(Y(0) rho0).
    """
    if config is None:
        config = EvolutionConfig()
    forward = evolve(ctx, rho0, t, config).final
    lhs = complex(np.trace(X @ forward))

    Y = np.array(X, dtype=complex)
    for lo, hi in reversed(ctx.segments(t)):
        count = max(1, int(np.ceil((hi - lo) / config.dt - 1e-12)))
        h = (hi - lo) / count
        for j in range(count):
            s = hi - j * h
            s_next = lo if j == count - 1 else s - h
            # backward RK4 on dY/ds = -A'_s[Y]; stage times run leftward,
            # so the starting stage takes the left limit and the final
            # stage of the segment takes the right-continuous value
            k1 = -generator_at(ctx, s, side=-1).apply_adjoint(Y)
            g_mid = generator_at(ctx, s - 0.5 * h, side=1)
            k2 = -g_mid.apply_adjoint(Y - 0.5 * h * k1)
            k3 = -g_mid.apply_adjoint(Y - 0.5 * h * k2)
            k4 = -generator_at(ctx, s_next, side=1).apply_adjoint(Y - h * k3)
            Y = Y - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rhs = complex(np.trace(Y @ np.array(rho0, dtype=complex)))
    return {"forward": lhs, "backward": rhs, "residual": abs(lhs - rhs)}
