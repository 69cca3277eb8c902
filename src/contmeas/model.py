"""Model data: the drift operator K, channel operators R_i and the scalar
scattering matrix S, plus the degenerate-parametric-oscillator builder.

The DPO couples two cavity modes through a chi^(2) crystal: subharmonic
mode (a, frequency omega_c) and pump mode (b, frequency 2*omega_c), with
mirror losses, thermal noise, laser injection on the pump, two
photocounter channels and one homodyne channel (d = 8 channels total).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fock import (SystemOperator, TruncatedSpace, ladder_a, ladder_a_dag,
                   ladder_b, ladder_b_dag)


@dataclass(frozen=True)
class ModelSpec:
    """Finite-dimensional model data (K, R_1..R_d, scalar S matrix)."""

    space: TruncatedSpace
    d: int
    K: SystemOperator
    R: tuple
    S: np.ndarray
    label: str = ""

    def __post_init__(self):
        if len(self.R) != self.d:
            raise ValidationError(f"expected {self.d} channel operators, "
                                  f"got {len(self.R)}")
        S = np.asarray(self.S, dtype=complex)
        if S.shape != (self.d, self.d):
            raise ValidationError(f"S must be {self.d}x{self.d}")
        object.__setattr__(self, "S", S)
        for op in self.R:
            if op.space != self.space:
                raise ValidationError("channel operator on wrong space")
        if self.K.space != self.space:
            raise ValidationError("K on wrong space")


@dataclass(frozen=True)
class DpoParams:
    """Physical constants of the degenerate parametric oscillator.

    The channel amplitudes must satisfy
        |alpha_1|^2 + |alpha_2|^2 + |alpha_3|^2 = 2*kappa*(nbar+1)
        |alpha_4|^2 = 2*kappa*nbar
    and the analogous identities for beta with (kappa_p, nbar_p).
    """

    omega_c: float
    g: float
    kappa: float
    nbar: float
    kappa_p: float
    nbar_p: float
    alpha: tuple
    beta: tuple
    theta3: float = 0.0
    lambda_drive: complex = 0j

    REL_TOL = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(complex(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(complex(b) for b in self.beta))
        object.__setattr__(self, "lambda_drive", complex(self.lambda_drive))

    @classmethod
    def from_splittings(cls, *, omega_c, g, kappa, kappa_p, nbar=0.0,
                        nbar_p=0.0, alpha_fractions=None, beta_fractions=None,
                        theta3=0.0, lambda_drive=0j):
        """Build amplitudes from splitting fractions c_i with sum |c_i|^2 = 1.

        alpha = (sqrt(2*kappa*(nbar+1)) * c_i, sqrt(2*kappa*nbar)); same
        pattern for beta with the pump constants.
        """
        if alpha_fractions is None:
            alpha_fractions = (1 / np.sqrt(3),) * 3
        if beta_fractions is None:
            beta_fractions = (1 / np.sqrt(3),) * 3
        for name, fr in (("alpha", alpha_fractions), ("beta", beta_fractions)):
            if len(fr) != 3:
                raise ValidationError(f"{name}_fractions needs 3 entries")
            if abs(sum(abs(c) ** 2 for c in fr) - 1.0) > 1e-10:
                raise ValidationError(
                    f"{name}_fractions must satisfy sum |c_i|^2 = 1")
        alpha = tuple(np.sqrt(2 * kappa * (nbar + 1)) * complex(c)
                      for c in alpha_fractions) + (np.sqrt(2 * kappa * nbar),)
        beta = tuple(np.sqrt(2 * kappa_p * (nbar_p + 1)) * complex(c)
                     for c in beta_fractions) + (np.sqrt(2 * kappa_p * nbar_p),)
        return cls(omega_c=omega_c, g=g, kappa=kappa, nbar=nbar,
                   kappa_p=kappa_p, nbar_p=nbar_p, alpha=alpha, beta=beta,
                   theta3=theta3, lambda_drive=lambda_drive)

    def validate(self):
        if self.omega_c <= 0:
            raise ValidationError("omega_c must be positive")
        if self.kappa <= 0 or self.kappa_p <= 0:
            raise ValidationError("kappa and kappa_p must be positive")
        if self.nbar < 0 or self.nbar_p < 0:
            raise ValidationError("thermal occupations must be nonnegative")
        if len(self.alpha) != 4 or len(self.beta) != 4:
            raise ValidationError("alpha and beta must have 4 components each")
        checks = [
            ("|alpha_1|^2+|alpha_2|^2+|alpha_3|^2 = 2*kappa*(nbar+1)",
             sum(abs(a) ** 2 for a in self.alpha[:3]),
             2 * self.kappa * (self.nbar + 1)),
            ("|alpha_4|^2 = 2*kappa*nbar",
             abs(self.alpha[3]) ** 2, 2 * self.kappa * self.nbar),
            ("|beta_1|^2+|beta_2|^2+|beta_3|^2 = 2*kappa_p*(nbar_p+1)",
             sum(abs(b) ** 2 for b in self.beta[:3]),
             2 * self.kappa_p * (self.nbar_p + 1)),
            ("|beta_4|^2 = 2*kappa_p*nbar_p",
             abs(self.beta[3]) ** 2, 2 * self.kappa_p * self.nbar_p),
        ]
        bad = [name for name, lhs, rhs in checks
               if abs(lhs - rhs) > self.REL_TOL * max(1.0, abs(rhs))]
        if bad:
            raise ValidationError(
                "amplitude constraints violated: " + "; ".join(bad))
        if self.lambda_drive != 0 and self.beta[1] == 0:
            raise ValidationError("beta_2 must be nonzero when the laser "
                                  "drive is on")


def _dpo_drift(params: DpoParams, space: TruncatedSpace) -> SystemOperator:
    """Entrywise construction of K on the truncated basis."""
    g = params.g
    wc = params.omega_c
    kap, nb = params.kappa, params.nbar
    kap_p, nb_p = params.kappa_p, params.nbar_p
    entries = {}
    for n in range(space.n_max + 1):
        for m in range(space.m_max + 1):
            row = space.index(n, m)
            # (K u)_{n,m} picks u_{n-2,m+1} with weight (g/2)sqrt(n(n-1)(m+1))
            if n >= 2 and m + 1 <= space.m_max and g != 0:
                entries[(row, space.index(n - 2, m + 1))] = \
                    0.5 * g * np.sqrt(n * (n - 1) * (m + 1))
            if m >= 1 and n + 2 <= space.n_max and g != 0:
                entries[(row, space.index(n + 2, m - 1))] = \
                    -0.5 * g * np.sqrt(m * (n + 1) * (n + 2))
            diag = (kap * nb + kap_p * nb_p
                    + 1j * wc * n + kap * (2 * nb + 1) * n
                    + 2j * wc * m + kap_p * (2 * nb_p + 1) * m)
            if diag != 0:
                entries[(row, row)] = -diag
    return SystemOperator.from_entries(space, entries)


def dpo_model(params: DpoParams, space: TruncatedSpace) -> ModelSpec:
    """Degenerate parametric oscillator on a truncated space, d = 8.

    Channel order: 1, 2 photocounters; 3 homodyne; 4 laser injection;
    5-8 losses and thermal noise.  No scattering between channels.
    """
    params.validate()
    a = ladder_a(space)
    adag = ladder_a_dag(space)
    b = ladder_b(space)
    bdag = ladder_b_dag(space)
    al, be = params.alpha, params.beta
    R = (be[0] * b, al[0] * a, al[1] * a, be[1] * b,
         be[2] * b, al[2] * a, be[3] * bdag, al[3] * adag)
    K = _dpo_drift(params, space)
    return ModelSpec(space=space, d=8, K=K, R=R, S=np.eye(8, dtype=complex),
                     label="dpo")


def trivial_model(d: int) -> ModelSpec:
    """System-free model: dim-1 space, K = 0, R_i = 0, S = identity."""
    space = TruncatedSpace(0, 0)
    zero = SystemOperator.zero(space)
    return ModelSpec(space=space, d=d, K=zero, R=(zero,) * d,
                     S=np.eye(d, dtype=complex), label="trivial")


@dataclass(frozen=True)
class DissipativityReport:
    max_residual: float
    interior_dim: int


def check_dissipativity(model: ModelSpec, guard: int = 2,
                        n_random: int = 16, seed: int = 0) -> DissipativityReport:
    """Residual of 2 Re<Ku|u> + sum_k ||R_k u||^2 on the truncation interior.

    Evaluated on every basis vector with n <= n_max - guard and
    m <= m_max - guard, and on random unit vectors supported there.  The
    identity is exact in the interior and broken only at the cutoff, so
    the guard must cover the largest raising degree of K and the R_i.
    """
    space = model.space
    n_top = space.n_max - guard
    m_top = space.m_max - guard
    if n_top < 0 or m_top < 0:
        raise ValueError(f"guard={guard} leaves no interior on "
                         f"({space.n_max}, {space.m_max})")
    interior = [space.index(n, m)
                for n in range(n_top + 1) for m in range(m_top + 1)]

    def residual(u: np.ndarray) -> float:
        ku = model.K.apply_to_vector(u)
        lhs = 2.0 * np.real(np.vdot(u, ku))
        rhs = sum(np.sum(np.abs(op.apply_to_vector(u)) ** 2) for op in model.R)
        return abs(lhs + rhs)

    worst = 0.0
    for idx in interior:
        u = np.zeros(space.dim, dtype=complex)
        u[idx] = 1.0
        worst = max(worst, residual(u))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        u = np.zeros(space.dim, dtype=complex)
        amp = rng.standard_normal(len(interior)) + 1j * rng.standard_normal(len(interior))
        u[interior] = amp / np.linalg.norm(amp)
        worst = max(worst, residual(u))
    return DissipativityReport(max_residual=worst, interior_dim=len(interior))


def check_S_unitary(model: ModelSpec) -> float:
    """Max deviation of S*S and SS* from the identity."""
    S = model.S
    eye = np.eye(model.d)
    dev1 = np.max(np.abs(S.conj().T @ S - eye)) if model.d else 0.0
    dev2 = np.max(np.abs(S @ S.conj().T - eye)) if model.d else 0.0
    return float(max(dev1, dev2))


def dpo_laser_field(params: DpoParams, horizon: float):
    """Coherent field profile realizing the laser drive on the pump.

    Only channel 4 carries the laser; its profile is
    f_4(t) = i * lambda * exp(-2 i omega_c t) / conj(beta_2) on [0, horizon).
    """
    from .signals import ZERO, FieldProfile, Harmonic

    params.validate()
    signals = [ZERO] * 8
    if params.lambda_drive != 0:
        amp = 1j * params.lambda_drive / np.conj(params.beta[1])
        signals[3] = Harmonic(amp, 0.0, -2.0 * params.omega_c)
    return FieldProfile(tuple(signals), horizon)
