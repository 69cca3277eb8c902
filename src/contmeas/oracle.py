"""Independent reference computations used to cross-check the engine,
each along another route than the production path.

- `system_free_charfunc`: the system-free model's closed form, by
  adaptive quadrature.
- `dense_expm_propagate`: the dense superoperator, built from the raw
  model and observable data, and scipy's matrix exponential.
- `duality_check`: the forward-backward trace pairing, on the adjoint.

`expm` and `quad` are imported on first use, so the production commands
never load `scipy.linalg` or `scipy.integrate`.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .evolution import EvolutionConfig, _walk, evolve, rk4_stages
from .generator import GeneratorContext
from .measurement import ObservableSpec
from .model import ModelSpec
from .signals import FieldProfile, TestFunction, segments

DENSE_DIM_LIMIT = 12


def system_free_charfunc(S: np.ndarray, obs: ObservableSpec,
                         field: FieldProfile, kappa: TestFunction,
                         t_end: float) -> complex:
    """Exact characteristic function of the system-free model with
    scattering matrix S.

    phi = exp( int_0^T [ i sum_a k_a (c^a + <h^a|S f> + <S f|h^a>)
                         - (1/2) sum_ab k_a k_b <h^a(t), h^b(t)>
                         + sum_i (s_i(k) - 1) |(S f)_i + b_i|^2 ] dt )

    with all inner products taken pointwise over the channel index, and
    s_i(k) = exp(i sum_a k_a B^a_i).  The counted field is the output
    dB_out = S dB_in + L dt, with L = 0 here.
    """
    from scipy.integrate import quad

    def integrand(t: float) -> complex:
        k = np.asarray(kappa.value(t), dtype=float)
        s = np.exp(1j * (k @ obs.eigenvalues))
        f = S @ field.value(t)
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
    for lo, hi in segments(t_end, field, kappa):
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
                         rho0: np.ndarray, t_end: float) -> np.ndarray:
    """Freeze the coefficients at the midpoint of each smooth segment and
    propagate vec(tau) by scipy's matrix exponential.  Matches the engine
    run with `EvolutionConfig(freeze=True)`."""
    from scipy.linalg import expm
    dim = model.space.dim
    if dim > DENSE_DIM_LIMIT:
        raise ValidationError(f"dense oracle limited to dim <= {DENSE_DIM_LIMIT}")
    vec = np.array(rho0, dtype=complex).reshape(-1, order="F")
    for lo, hi in segments(t_end, field, kappa):
        M = _dense_superoperator(model, obs, field, kappa, 0.5 * (lo + hi))
        vec = expm(M * (hi - lo)) @ vec
    return vec.reshape(dim, dim, order="F")


@np.errstate(over="ignore", invalid="ignore")
def duality_check(ctx: GeneratorContext, rho0: np.ndarray, X: np.ndarray,
                  t: float, config: EvolutionConfig | None = None) -> dict:
    """Forward-backward consistency of the trace pairing: evolve rho0
    forward to time t, and X backward from t to 0 under the dual stack's
    generators (`GeneratorStack.dual`) on `evolve`'s segment walk, checks
    included.  Both give Tr(X tau(t)) = Tr(Y(0) rho0)."""
    if config is None:
        config = EvolutionConfig()
    forward = evolve(ctx, rho0, t, config).final[0]
    lhs = complex(np.trace(X @ forward))

    # dY/ds = -A'_s[Y] run from hi down to lo is forward RK4 in -s on the
    # adjoint, with the step (hi - lo) / count
    dual = ctx.dual()

    def steps(hi, lo, count):
        return ((g0.apply_adjoint, g_mid.apply_adjoint, g1.apply_adjoint)
                for g0, g_mid, g1 in rk4_stages(dual, hi, lo, count))

    backward = [(hi, lo) for lo, hi in reversed(ctx.segments(t))]
    Y, _, _ = _walk(backward, np.array(X, dtype=complex)[None], config,
                    False, steps)
    rhs = complex(np.trace(Y[0] @ np.array(rho0, dtype=complex)))
    return {"forward": lhs, "backward": rhs, "residual": abs(lhs - rhs)}
