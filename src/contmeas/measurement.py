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
from .signals import ZERO, Constant, Harmonic, TimeSignal, segments


def _sample_times(signals, horizon: float, per_segment: int = 5):
    """Sample points covering every smooth segment of the given signals."""
    out = []
    for lo, hi in segments(horizon, *signals):
        out.extend(np.linspace(lo, hi, per_segment + 2)[1:-1])
    return np.asarray(out)


@dataclass(frozen=True)
class ObservableSpec:
    """m commuting observables over d channels on a time horizon.

    eigenvalues: real (m, d) array, entry [alpha, i] = B^alpha_i.
    h: (m, d) nested tuple of TimeSignal, quadrature profiles.
    b: length-d tuple of TimeSignal, the reference field.
    c: length-m tuple of TimeSignal, additive classical offsets.
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
        times = _sample_times(self.signals, self.horizon)
        # projective and quadrature parts of the family must not overlap
        for alpha in range(self.m):
            for beta in range(self.m):
                for i in range(self.d):
                    if self.eigenvalues[alpha, i] == 0.0:
                        continue
                    sig = self.h[beta][i]
                    if sig is ZERO:
                        continue
                    vals = np.array([sig.value(t) for t in times])
                    if np.max(np.abs(vals), initial=0.0) > self.CHECK_TOL:
                        raise ValidationError(
                            f"observable {alpha + 1} has an eigenvalue on "
                            f"channel {i + 1} where observable {beta + 1} "
                            f"has a quadrature profile")
        gram = self.h_gram()
        dev = np.max(np.abs(np.imag(gram)), initial=0.0)
        if dev > self.CHECK_TOL:
            raise ValidationError(
                f"quadrature profiles do not commute: max |Im <h^a|h^b>| = {dev:.3e}")

    # -- derived scalar data -------------------------------------------------

    def kernel_diagonal(self, kappa: np.ndarray) -> np.ndarray:
        """s_i(kappa) = exp(i sum_alpha kappa_alpha B^alpha_i), length d."""
        kappa = np.asarray(kappa, dtype=float)
        if kappa.shape != (self.m,):
            raise ValidationError(f"kappa must have {self.m} entries")
        return np.exp(1j * (kappa @ self.eigenvalues))

    def r_vector(self, kappa: np.ndarray, t: float, side: int = 1) -> np.ndarray:
        """r_i(kappa; t) = i sum_a kappa_a h^a_i(t) + (s_i - 1) b_i(t)."""
        kappa = np.asarray(kappa, dtype=float)
        s = self.kernel_diagonal(kappa)
        out = np.zeros(self.d, dtype=complex)
        for i in range(self.d):
            acc = 0j
            for alpha in range(self.m):
                if kappa[alpha] != 0 and self.h[alpha][i] is not ZERO:
                    acc += kappa[alpha] * self.h[alpha][i].value(t, side)
            out[i] = 1j * acc + (s[i] - 1.0) * self.b[i].value(t, side)
        return out

    def h_gram(self, upto: float | None = None) -> np.ndarray:
        """Gram matrix <h^alpha | h^beta> over [0, upto] (default horizon)."""
        T = self.horizon if upto is None else float(upto)
        gram = np.zeros((self.m, self.m), dtype=complex)
        for alpha in range(self.m):
            for beta in range(alpha, self.m):
                acc = 0j
                for i in range(self.d):
                    sa, sb = self.h[alpha][i], self.h[beta][i]
                    if sa is ZERO or sb is ZERO:
                        continue
                    acc += _inner(sa, sb, T)
                gram[alpha, beta] = acc
                gram[beta, alpha] = np.conj(acc)
        return gram

    def shifted(self, s: float) -> "ObservableSpec":
        """Same observables viewed from time s (horizon shrinks by s)."""
        if not 0.0 <= s < self.horizon:
            raise ValidationError("shift must lie inside the horizon")
        return ObservableSpec(
            m=self.m, d=self.d, horizon=self.horizon - s,
            eigenvalues=self.eigenvalues,
            h=tuple(tuple(sig.shifted(s) for sig in row) for row in self.h),
            b=tuple(sig.shifted(s) for sig in self.b),
            c=tuple(sig.shifted(s) for sig in self.c))

    @property
    def signals(self) -> tuple:
        """Every signal of the family: h row by row, then b, then c."""
        return (tuple(s for row in self.h for s in row) + tuple(self.b)
                + tuple(self.c))

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(b for sig in self.signals for b in sig.breakpoints())


# -- scalar quadrature helpers ----------------------------------------------

def _inner(sig_a: TimeSignal, sig_b: TimeSignal, T: float) -> complex:
    """int_0^T conj(a(t)) b(t) dt, exact on the signal classes we ship."""
    from scipy.integrate import quad
    total = 0j
    for lo, hi in segments(T, sig_a, sig_b):
        closed = _closed_form_inner(sig_a, sig_b, lo, hi)
        if closed is not None:
            total += closed
            continue
        f = lambda t: np.conj(sig_a.value(t)) * sig_b.value(t)
        re, _ = quad(lambda t: np.real(f(t)), lo, hi, limit=200)
        im, _ = quad(lambda t: np.imag(f(t)), lo, hi, limit=200)
        total += re + 1j * im
    return total


def _closed_form_inner(sig_a, sig_b, lo, hi):
    """Exact segment integral for constants and harmonics, else None."""
    ca = _as_harmonic(sig_a)
    cb = _as_harmonic(sig_b)
    if ca is None or cb is None:
        return None
    (aa, pa, wa), (ab, pb, wb) = ca, cb
    amp = np.conj(aa) * ab * np.exp(1j * (pb - pa))
    w = wb - wa
    if w == 0.0:
        return amp * (hi - lo)
    return amp * (np.exp(1j * w * hi) - np.exp(1j * w * lo)) / (1j * w)


def _as_harmonic(sig):
    """(amplitude, phase, frequency) for constants and harmonics, else None."""
    if isinstance(sig, Harmonic):
        return sig.amplitude, sig.phase, sig.frequency
    if isinstance(sig, Constant):
        return sig.value(0.0), 0.0, 0.0
    return None


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
