"""Measurement data: commuting field observables stored by their joint
eigenstructure, and the scalar coefficient functions they induce.

Each of the m observables acts channelwise; observable alpha carries a
real eigenvalue B^alpha_i per channel i (the projective parts) plus a
complex signal h^alpha_i(t) per channel (the quadrature parts).  The
compatibility conditions are

    B^alpha_i * h^beta_i(t) = 0   for all alpha, beta, i, t
    Im <h^alpha | h^beta>_[0,T] = 0  for all alpha, beta

so the whole family commutes.  The Fourier kernel exp(i sum kappa_alpha
B^alpha) is then diagonal in the channel basis with unimodular entries
s_i(kappa), and inversion reduces to FFTs per observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .signals import ZERO, Harmonic, SignalTable


@dataclass(frozen=True)
class ObservableSpec:
    """m commuting observables over d channels on a time horizon.

    Each signal is a `signals.Harmonic` (a `Constant` is one).

    eigenvalues: real (m, d) array, entry [alpha, i] = B^alpha_i.
    h: (m, d) nested tuple of signals, quadrature profiles.
    b: length-d tuple of signals, the reference field.
    c: length-m tuple of signals, additive classical offsets; each must
       be real-valued (zero, or of zero frequency and a real value).
    """

    m: int
    d: int
    horizon: float
    eigenvalues: np.ndarray
    h: tuple
    b: tuple
    c: tuple

    CHECK_TOL = 1e-10

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.shape != (self.m, self.d):
            raise ValidationError(f"eigenvalues must be shape ({self.m}, {self.d})")
        object.__setattr__(self, "eigenvalues", ev)
        if len(self.h) != self.m or any(len(row) != self.d for row in self.h):
            raise ValidationError("h must be an (m, d) table of signals")
        if len(self.b) != self.d:
            raise ValidationError(f"b must have {self.d} entries")
        if len(self.c) != self.m:
            raise ValidationError(f"c must have {self.m} entries")
        if self.horizon <= 0:
            raise ValidationError("horizon must be positive")
        object.__setattr__(self, "_table", SignalTable(self.signals))
        self._check_compatibility()

    @classmethod
    def counting_only(cls, d: int, horizon: float, eigenvalues: np.ndarray,
                      c=None) -> "ObservableSpec":
        ev = np.asarray(eigenvalues, dtype=float)
        m = ev.shape[0]
        h = tuple(tuple(ZERO for _ in range(d)) for _ in range(m))
        b = tuple(ZERO for _ in range(d))
        if c is None:
            c = tuple(ZERO for _ in range(m))
        return cls(m=m, d=d, horizon=horizon, eigenvalues=ev, h=h, b=b, c=c)

    def _check_compatibility(self):
        # projective and quadrature parts of the family must not overlap;
        # a signal vanishes nowhere unless its amplitude does
        profile = np.array([[abs(s.amplitude) for s in row] for row in self.h]
                           ).reshape(self.m, self.d) > self.CHECK_TOL
        clash = np.argwhere((self.eigenvalues != 0.0)[:, None] & profile)
        if len(clash):
            alpha, beta, i = clash[0] + 1
            raise ValidationError(
                f"observable {alpha} has an eigenvalue on channel {i} where "
                f"observable {beta} has a quadrature profile")
        # a real record needs real classical offsets: phi(-kappa) is then
        # conj phi(kappa), which the homodyne marginal relies on
        for alpha, sig in enumerate(self.c):
            imag = (sig.amplitude * np.exp(1j * sig.phase)).imag
            if abs(sig.amplitude) > self.CHECK_TOL and (
                    sig.frequency != 0.0 or abs(imag) > self.CHECK_TOL):
                raise ValidationError(
                    f"classical offset {alpha + 1} is not real-valued")
        gram = self.h_gram()
        dev = np.max(np.abs(np.imag(gram)), initial=0.0)
        if dev > self.CHECK_TOL:
            raise ValidationError(
                f"quadrature profiles do not commute: max |Im <h^a|h^b>| = {dev:.3e}")

    # -- derived scalar data -------------------------------------------------

    def kernel_diagonal(self, kappa: np.ndarray) -> np.ndarray:
        """s_i(kappa) = exp(i sum_alpha kappa_alpha B^alpha_i), length d;
        a kappa of shape (n, m) gives one row per kappa."""
        kappa = np.asarray(kappa, dtype=float)
        if kappa.shape[-1:] != (self.m,):
            raise ValidationError(f"kappa must have {self.m} entries")
        # a plain sum over alpha, not a matrix product, so that each row
        # comes out the same however many rows there are
        return np.exp(1j * (kappa[..., None] * self.eigenvalues).sum(axis=-2))

    def coefficients(self, kappa: np.ndarray, t):
        """s(kappa), r(+/-kappa; t) (see `r_vector`) and the scalar rate
        c(kappa; t) = sum_i (s_i - 1)|b_i|^2 + i kappa.c - |kappa.h|^2 / 2
        of the generator, for one kappa and time, or for kappas of shape
        (n, m) and times t broadcast against them: times of shape (T, 1)
        give s per kappa, (n, d), and the rest per (time, kappa)."""
        kappa = np.asarray(kappa, dtype=float)
        s = self.kernel_diagonal(kappa)
        vals = self._table(t)
        md = self.m * self.d
        h = vals[..., :md].reshape(vals.shape[:-1] + (self.m, self.d))
        b = vals[..., md:md + self.d]
        c = vals[..., md + self.d:]
        hk = (kappa[..., None] * h).sum(axis=-2)     # sum_a kappa_a h^a_i
        r_plus = 1j * hk + (s - 1.0) * b
        r_minus = -1j * hk + (np.conj(s) - 1.0) * b     # s(-kappa) = conj s
        # kappa^T <h(t), h(t)> kappa = |sum_a kappa_a h^a(t)|^2 for real kappa
        rate = (((s - 1.0) * np.abs(b) ** 2).sum(axis=-1)
                + 1j * (kappa * c).sum(axis=-1)
                - 0.5 * (np.abs(hk) ** 2).sum(axis=-1))
        return s, r_plus, r_minus, rate

    def r_vector(self, kappa: np.ndarray, t) -> np.ndarray:
        """r_i(kappa; t) = i sum_a kappa_a h^a_i(t) + (s_i - 1) b_i(t)."""
        return self.coefficients(kappa, t)[1]

    def h_gram(self) -> np.ndarray:
        """Gram matrix <h^alpha | h^beta> over [0, horizon]."""
        gram = np.zeros((self.m, self.m), dtype=complex)
        for alpha in range(self.m):
            for beta in range(alpha, self.m):
                acc = 0j
                for i in range(self.d):
                    sa, sb = self.h[alpha][i], self.h[beta][i]
                    if sa is ZERO or sb is ZERO:
                        continue
                    acc += _inner(sa, sb, self.horizon)
                gram[alpha, beta] = acc
                gram[beta, alpha] = np.conj(acc)
        return gram

    @property
    def signals(self) -> tuple:
        """Every signal of the family: h row by row, then b, then c."""
        return (tuple(s for row in self.h for s in row) + tuple(self.b)
                + tuple(self.c))


# -- closed-form inner products ----------------------------------------------

def _inner(a: Harmonic, b: Harmonic, T: float) -> complex:
    """int_0^T conj(a(t)) b(t) dt in closed form."""
    amp = np.conj(a.amplitude) * b.amplitude * np.exp(1j * (b.phase - a.phase))
    w = b.frequency - a.frequency
    if w == 0.0:
        return amp * T
    return amp * (np.exp(1j * w * T) - 1.0) / (1j * w)


def dpo_observables(params, horizon: float) -> ObservableSpec:
    """Two photocounters (channels 1, 2) and one homodyne detector
    (channel 3, local oscillator at the subharmonic carrier)."""
    d = 8
    ev = np.zeros((3, d))
    ev[0, 0] = 1.0
    ev[1, 1] = 1.0
    h = [[ZERO] * d for _ in range(3)]
    h[2][2] = Harmonic(1.0, params.theta3, -params.omega_c)
    return ObservableSpec(
        m=3, d=d, horizon=horizon, eigenvalues=ev,
        h=tuple(tuple(row) for row in h),
        b=tuple(ZERO for _ in range(d)),
        c=tuple(ZERO for _ in range(3)))
