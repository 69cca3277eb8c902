"""Reference values computed apart from contmeas.

Nothing here imports the program.  The degenerate parametric oscillator
(DPO) is rebuilt from the raw numbers of a config file, in the frame
U(t) = exp(i omega_c t (n_a + 2 n_b)).  In that frame the cavity
frequencies, the laser profile exp(-2 i omega_c t) on channel 4 and the
local oscillator exp(i(theta3 - omega_c t)) on channel 3 all become
constant, so on each interval where the test function kappa is constant
the generator L_kappa is constant and

    phi = Tr exp(T_l L_l) ... exp(T_1 L_1) rho0.

The trace, and the diagonal of the state, are the same in both frames.

The superoperator acts on column-stacked matrices: vec(A X B) =
(B^T kron A) vec(X).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply


def poisson_pmf(mu: float, n: int) -> np.ndarray:
    """e^{-mu} mu^k / k! for k = 0..n-1."""
    k = np.arange(n)
    logs = -mu + k * math.log(mu) - np.array([math.lgamma(j + 1) for j in k])
    return np.exp(logs)


def _ladder(n_max: int) -> sp.csr_matrix:
    k = np.arange(1, n_max + 1)
    return sp.diags(np.sqrt(k), 1, shape=(n_max + 1, n_max + 1),
                    dtype=complex, format="csr")


def _cplx(node) -> complex:
    if isinstance(node, (int, float)):
        return complex(node)
    return complex(node[0], node[1])


class RotatingDpo:
    """The DPO of one config, in the rotating frame, from raw parameters."""

    def __init__(self, model_cfg: dict):
        tr = model_cfg["truncation"]
        p = model_cfg["params"]
        self.n_max, self.m_max = int(tr["n_max"]), int(tr["m_max"])
        na, nb = self.n_max + 1, self.m_max + 1
        self.dim = na * nb
        a = sp.kron(_ladder(self.n_max), sp.identity(nb), format="csr")
        b = sp.kron(sp.identity(na), _ladder(self.m_max), format="csr")
        ad, bd = a.conj().T.tocsr(), b.conj().T.tocsr()
        eye = sp.identity(self.dim, dtype=complex, format="csr")
        alpha = [_cplx(x) for x in p["alpha"]]
        beta = [_cplx(x) for x in p["beta"]]
        g, kap, nbar = p["g"], p["kappa"], p["nbar"]
        kap_p, nbar_p = p["kappa_p"], p["nbar_p"]
        lam = _cplx(p.get("lambda_drive", 0.0))
        self.theta3 = float(p.get("theta3", 0.0))
        self.alpha_hom = alpha[1]
        self.a = a
        # damping and down-conversion; the i omega_c (n_a + 2 n_b) part of
        # the drift is exactly what the frame change removes
        drift = (-(kap * nbar + kap_p * nbar_p) * eye
                 - kap * (2 * nbar + 1) * (ad @ a)
                 - kap_p * (2 * nbar_p + 1) * (bd @ b)
                 + 0.5 * g * (ad @ ad @ b - a @ a @ bd))
        # laser on channel 4: lambda_4 = i lam e^{-2 i w t} / conj(beta_2)
        drive = 1j * lam / np.conj(beta[1])
        drift = drift - 1j * lam * bd - 0.5 * abs(drive) ** 2 * eye
        self.drift = drift.tocsr()
        # channel operators B_i; channel 4 carries the displaced pump
        self.channels = [beta[0] * b, alpha[0] * a, alpha[1] * a,
                         beta[1] * b + drive * eye, beta[2] * b,
                         alpha[2] * a, beta[3] * bd, alpha[3] * ad]
        self.eye = eye

    def superoperator(self, kappa) -> sp.csr_matrix:
        """L for a constant test-function value (k1, k2, k3)."""
        k1, k2, k3 = (float(v) for v in kappa)
        s = np.ones(8, dtype=complex)
        s[0], s[1] = np.exp(1j * k1), np.exp(1j * k2)
        # conj(r_3(-/+kappa)) B_3 in the rotating frame
        tilt = 1j * k3 * np.exp(-1j * self.theta3) * self.alpha_hom * self.a
        left = self.drift + tilt
        right = self.drift - tilt
        eye = self.eye
        L = sp.kron(eye, left) + sp.kron(right.conj(), eye)
        for si, B in zip(s, self.channels):
            if B.count_nonzero():
                L = L + si * sp.kron(B.conj(), B)
        L = L - 0.5 * k3 ** 2 * sp.identity(self.dim ** 2, format="csr")
        return L.tocsr()

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim ** 2, dtype=complex)
        v[0] = 1.0
        return v

    def trace(self, vec: np.ndarray) -> complex:
        return complex(vec[:: self.dim + 1].sum())

    def propagate(self, segments, dense: bool) -> np.ndarray:
        """vec(tau(T)) from vacuum through [(duration, kappa), ...]."""
        vec = self.vacuum()
        for duration, kappa in segments:
            L = self.superoperator(kappa)
            if dense:
                vec = expm(duration * L.toarray()) @ vec
            else:
                vec = expm_multiply(duration * L, vec)
        return vec

    def charfunc(self, segments, dense: bool) -> complex:
        return self.trace(self.propagate(segments, dense))

    def leakage(self, t_end: float, guard: int, dense: bool) -> float:
        """Guard-band population of the plain run (kappa = 0)."""
        vec = self.propagate([(t_end, (0.0, 0.0, 0.0))], dense)
        pops = np.abs(vec[:: self.dim + 1]).reshape(self.n_max + 1,
                                                   self.m_max + 1)
        n = np.arange(self.n_max + 1)[:, None]
        m = np.arange(self.m_max + 1)[None, :]
        band = (n > self.n_max - guard) | (m > self.m_max - guard)
        return float(pops[band].sum())


def homodyne_charfunc(dpo: RotatingDpo, t_end: float, kappas) -> np.ndarray:
    """phi(kappa) of observable 3 over [0, t_end] at each kappa, using
    phi(-kappa) = conj(phi(kappa))."""
    kappas = np.asarray(kappas, dtype=float)
    out = np.empty(len(kappas), dtype=complex)
    cache = {}
    for j, k in enumerate(kappas):
        key = abs(k)
        if key not in cache:
            cache[key] = dpo.charfunc([(t_end, (0.0, 0.0, key))], dense=True)
        out[j] = cache[key] if k >= 0 else np.conj(cache[key])
    return out


def density_from_charfunc(kappas, phi, x) -> np.ndarray:
    """p(x) = (1/2 pi) int phi(kappa) e^{-i kappa x} d kappa, trapezoid rule."""
    kappas = np.asarray(kappas, dtype=float)
    w = np.full(len(kappas), 1.0)
    w[0] = w[-1] = 0.5
    w *= np.diff(kappas).mean()
    kernel = np.exp(-1j * np.outer(np.asarray(x, dtype=float), kappas))
    return (kernel @ (w * np.asarray(phi))).real / (2.0 * np.pi)
