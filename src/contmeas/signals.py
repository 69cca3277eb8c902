"""Time-dependent scalar signals (`Harmonic`, `Constant`, evaluated
together by `SignalTable`), piecewise-constant test functions, field
profiles, and `segments`, the smooth pieces between the breakpoints of
the test functions and field windows, the only things that jump.
"""

from __future__ import annotations

import math

import numpy as np


class Harmonic:
    """amplitude * exp(i * (phase + frequency * t)): every smooth signal,
    a constant being the harmonic of zero phase and frequency."""

    def __init__(self, amplitude: complex, phase: float = 0.0,
                 frequency: float = 0.0):
        self.amplitude = complex(amplitude)
        self.phase = float(phase)
        self.frequency = float(frequency)

    def value(self, t):
        return self.amplitude * np.exp(1j * (self.phase + self.frequency * t))

    def __repr__(self):
        return f"Harmonic({self.amplitude}, {self.phase}, {self.frequency})"


class Constant(Harmonic):
    """The harmonic of zero phase and frequency, whose type marks the
    frozen route (`generator.context_is_piecewise_static`)."""

    def __init__(self, value: complex = 0.0):
        super().__init__(value)


ZERO = Constant(0.0)


class SignalTable:
    """A family of signals evaluated together, from one (amplitude, phase,
    frequency) row per signal."""

    def __init__(self, signals):
        self.amplitude = np.array([s.amplitude for s in signals], complex)
        self.phase = np.array([s.phase for s in signals], float)
        self.frequency = np.array([s.frequency for s in signals], float)

    def __call__(self, t) -> np.ndarray:
        """Values at time t, or one row of values per entry of an array t."""
        return self.amplitude * np.exp(
            1j * (self.phase + np.multiply.outer(t, self.frequency)))


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
        pad = np.zeros((1, self.m))
        self._rows = np.concatenate((pad, self.values, pad))   # by piece

    @classmethod
    def zero(cls, m: int) -> "TestFunction":
        return cls([0.0], np.zeros((0, m)))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @property
    def is_zero(self) -> bool:
        return self.values.size == 0 or not np.any(self.values)

    def value(self, t: float) -> np.ndarray:
        """Value at time t, length m, or one row per time for an array t;
        right-continuous at a breakpoint."""
        return np.take(self._rows, np.searchsorted(self.breaks, t, "right"),
                       axis=0)

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(self.breaks)


class FieldProfile:
    """Coherent-field component functions f_i(t), zero outside [0, window)."""

    def __init__(self, signals, window: float = math.inf):
        self.signals = tuple(signals)
        self.window = float(window)
        if not self.window >= 0:
            raise ValueError(f"field window must be >= 0, got {window!r}")
        self.table = SignalTable(self.signals)

    @property
    def d(self) -> int:
        return len(self.signals)

    def covers(self, t: float) -> bool:
        """Whether the field is on at time t, in [0, window)."""
        return 0.0 <= t < self.window

    def value(self, t: float) -> np.ndarray:
        """Value at time t, length d."""
        return np.where(self.covers(t), self.table(t), 0j)

    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, self.window)


def segments(t_end: float, *sources,
             start: float = 0.0) -> list[tuple[float, float]]:
    """Smooth pieces (lo, hi) of [start, t_end], split at the breakpoints
    inside it of the given test functions and field windows."""
    start, t_end = float(start), float(t_end)
    pts = {start, t_end}
    for src in sources:
        pts.update(b for b in src.breakpoints() if start < b < t_end)
    pts = sorted(pts)
    return list(zip(pts[:-1], pts[1:]))
