"""Time-dependent scalar signals, piecewise-constant test functions,
field profiles and the smooth segments between their breakpoints.

Signals are evaluated pointwise; `side=+1` takes the right-continuous
value at a breakpoint, `side=-1` the limit from the left.  The integrator
needs the left limit for the last stage of a step that ends exactly on a
breakpoint.
"""

from __future__ import annotations

import abc
import math

import numpy as np


class TimeSignal(abc.ABC):
    """Complex-valued, locally bounded function of time."""

    @abc.abstractmethod
    def value(self, t: float, side: int = 1) -> complex:
        ...

    @abc.abstractmethod
    def shifted(self, s: float) -> "TimeSignal":
        """Signal t -> self(t + s)."""

    def breakpoints(self) -> tuple[float, ...]:
        """Times where the signal is non-smooth."""
        return ()


class Constant(TimeSignal):
    def __init__(self, value: complex = 0.0):
        self._value = complex(value)

    def value(self, t, side=1):
        return self._value

    def shifted(self, s):
        return self

    def __repr__(self):
        return f"Constant({self._value})"


ZERO = Constant(0.0)


class Harmonic(TimeSignal):
    """amplitude * exp(i * (phase + frequency * t))."""

    def __init__(self, amplitude: complex, phase: float = 0.0,
                 frequency: float = 0.0):
        self.amplitude = complex(amplitude)
        self.phase = float(phase)
        self.frequency = float(frequency)

    def value(self, t, side=1):
        return self.amplitude * np.exp(1j * (self.phase + self.frequency * t))

    def shifted(self, s):
        return Harmonic(self.amplitude, self.phase + self.frequency * s,
                        self.frequency)

    def __repr__(self):
        return f"Harmonic({self.amplitude}, {self.phase}, {self.frequency})"


class TestFunction:
    """Piecewise-constant R^m-valued test function, zero outside its span.

    breakpoints: strictly increasing, values[l] applies on
    (breakpoints[l], breakpoints[l+1]).
    """

    def __init__(self, breakpoints, values):
        self.breaks = np.asarray(breakpoints, dtype=float)
        self.values = np.atleast_2d(np.asarray(values, dtype=float))
        if self.values.size == 0:
            self.values = self.values.reshape(0, self.values.shape[-1])
        if self.breaks.ndim != 1 or len(self.breaks) != self.values.shape[0] + 1:
            raise ValueError("need len(breakpoints) == n_intervals + 1")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def zero(cls, m: int) -> "TestFunction":
        return cls([0.0], np.zeros((0, m)))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0 or not np.any(self.values)

    def value(self, t: float, side: int = 1) -> np.ndarray:
        sd = "right" if side > 0 else "left"
        idx = int(np.searchsorted(self.breaks, t, side=sd)) - 1
        if 0 <= idx < self.values.shape[0]:
            return self.values[idx].copy()
        return np.zeros(self.m)

    def shifted(self, s: float) -> "TestFunction":
        return TestFunction(self.breaks - s, self.values)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.breaks)

    def __sub__(self, other: "TestFunction") -> "TestFunction":
        if other.m != self.m:
            raise ValueError("test functions have different m")
        breaks = np.union1d(self.breaks, other.breaks)
        mids = 0.5 * (breaks[:-1] + breaks[1:])
        vals = np.array([self.value(t) - other.value(t) for t in mids])
        if vals.size == 0:
            vals = vals.reshape(0, self.m)
        return TestFunction(breaks, vals)


class FieldProfile:
    """Coherent-field component functions f_i(t), zero outside [0, window)."""

    def __init__(self, signals, window: float = math.inf):
        self.signals = tuple(signals)
        self.window = float(window)

    @property
    def d(self) -> int:
        return len(self.signals)

    def value(self, t: float, side: int = 1) -> np.ndarray:
        if side > 0:
            inside = 0.0 <= t < self.window
        else:
            inside = 0.0 < t <= self.window
        if not inside:
            return np.zeros(self.d, dtype=complex)
        return np.array([s.value(t, side) for s in self.signals], dtype=complex)

    def shifted(self, s: float) -> "FieldProfile":
        return FieldProfile(tuple(sig.shifted(s) for sig in self.signals),
                            self.window - s)

    def breakpoints(self) -> tuple[float, ...]:
        pts = [0.0]
        if math.isfinite(self.window):
            pts.append(self.window)
        for sig in self.signals:
            pts.extend(sig.breakpoints())
        return tuple(pts)


def segments(t_end: float, *sources) -> list[tuple[float, float]]:
    """Smooth pieces (lo, hi) of [0, t_end], split at every breakpoint of
    the given signals, test functions, field profiles or observables."""
    t_end = float(t_end)
    pts = {0.0, t_end}
    for src in sources:
        pts.update(b for b in src.breakpoints() if 0.0 < b < t_end)
    pts = sorted(pts)
    return [(lo, hi) for lo, hi in zip(pts[:-1], pts[1:])]
