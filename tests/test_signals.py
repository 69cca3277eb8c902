import numpy as np
import pytest

from contmeas import ZERO, Constant, FieldProfile, Harmonic, TestFunction
from contmeas.signals import segments


def test_constant():
    c = Constant(2.0 - 1.0j)
    assert c.value(0.3) == 2.0 - 1.0j
    assert ZERO.value(1.0) == 0.0


def test_harmonic_value():
    sig = Harmonic(2.0, np.pi / 2, 3.0)
    assert sig.value(0.0) == pytest.approx(2.0j)
    assert abs(sig.value(17.3)) == pytest.approx(2.0)


def test_test_function_basics():
    k = TestFunction([0.0, 1.0, 2.5], [[1.0, 0.0], [0.5, -2.0]])
    assert k.m == 2
    assert not k.is_zero
    assert np.allclose(k.value(0.2), [1.0, 0.0])
    # right-continuous at a breakpoint
    assert np.allclose(k.value(0.0), [1.0, 0.0])
    assert np.allclose(k.value(1.0), [0.5, -2.0])
    assert np.allclose(k.value(2.5), [0.0, 0.0])
    assert np.allclose(k.value(3.0), [0.0, 0.0])
    assert np.allclose(k.value(-1.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        TestFunction([0.0, 0.0, 1.0], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        TestFunction([0.0, 1.0], [[1.0], [2.0]])


def test_test_function_zero():
    z = TestFunction.zero(3)
    assert z.is_zero
    assert np.allclose(z.value(0.0), np.zeros(3))


def test_field_profile():
    f = FieldProfile((Constant(1.0 + 2.0j), ZERO), window=2.0)
    assert f.d == 2
    assert f.breakpoints() == (0.0, 2.0)
    assert np.allclose(f.value(0.5), [1.0 + 2.0j, 0.0])
    # right-continuous at the window's edges
    assert np.allclose(f.value(0.0), [1.0 + 2.0j, 0.0])
    assert np.allclose(f.value(2.0), [0.0, 0.0])
    assert np.allclose(f.value(-0.5), [0.0, 0.0])
    assert f.covers(0.0) and f.covers(1.3)
    assert not f.covers(2.0) and not f.covers(-0.5)
    # a zero window switches the field off; a negative or NaN one is refused
    off = FieldProfile((Constant(1.0),), 0.0)
    assert not off.covers(0.0)
    assert np.allclose(off.value(0.0), [0.0])
    for window in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            FieldProfile((Constant(1.0),), window)


def test_segments_merge_breakpoints():
    k = TestFunction([0.0, 0.5, 1.5, 3.0], [[1.0], [2.0], [3.0]])
    f = FieldProfile((Harmonic(1.0, 0.0, 2.0),), window=1.5)
    # shared breakpoints appear once; those outside (0, t_end) are dropped
    assert segments(2.0, k, f) == [(0.0, 0.5), (0.5, 1.5), (1.5, 2.0)]
    assert segments(0.4, k, f) == [(0.0, 0.4)]
    assert segments(2.0) == [(0.0, 2.0)]
    assert segments(0.0, k, f) == []
    # a start splits [start, t_end] at the breakpoints strictly inside it
    assert segments(2.0, k, f, start=0.5) == [(0.5, 1.5), (1.5, 2.0)]
    assert segments(2.0, k, f, start=0.7) == [(0.7, 1.5), (1.5, 2.0)]
    assert segments(1.5, k, f, start=0.5) == [(0.5, 1.5)]
    assert segments(3.5, k, start=1.0) == [(1.0, 1.5), (1.5, 3.0),
                                           (3.0, 3.5)]
    assert segments(1.0, k, f, start=1.0) == []
