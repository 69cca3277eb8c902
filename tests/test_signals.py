import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contmeas import ZERO, Constant, FieldProfile, Harmonic, TestFunction
from contmeas.signals import segments

finite = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


def test_constant():
    c = Constant(2.0 - 1.0j)
    assert c.value(0.3) == 2.0 - 1.0j
    assert c.shifted(5.0).value(-1.0) == 2.0 - 1.0j
    assert ZERO.value(1.0) == 0.0


@given(amp=finite, phase=finite, freq=finite, t=finite, s=finite)
@settings(max_examples=200, deadline=None)
def test_harmonic_shift_property(amp, phase, freq, t, s):
    sig = Harmonic(amp, phase, freq)
    assert sig.shifted(s).value(t) == pytest.approx(sig.value(t + s),
                                                    rel=1e-9, abs=1e-9)


def test_harmonic_value():
    sig = Harmonic(2.0, np.pi / 2, 3.0)
    assert sig.value(0.0) == pytest.approx(2.0j)
    assert abs(sig.value(17.3)) == pytest.approx(2.0)


def test_test_function_basics():
    k = TestFunction([0.0, 1.0, 2.5], [[1.0, 0.0], [0.5, -2.0]])
    assert k.m == 2
    assert not k.is_zero
    assert np.allclose(k.value(0.2), [1.0, 0.0])
    assert np.allclose(k.value(1.0, side=-1), [1.0, 0.0])
    assert np.allclose(k.value(1.0, side=+1), [0.5, -2.0])
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
    k = TestFunction([0.0, 1.0], [[2.0]])
    assert np.allclose((TestFunction.zero(1) - k).value(0.5), [-2.0])


def test_test_function_shift_and_combine():
    k1 = TestFunction([0.0, 1.0, 2.0], [[1.0], [2.0]])
    k2 = TestFunction([0.5, 1.5], [[10.0]])
    total = k1 - k2
    assert np.allclose(total.value(0.25), [1.0])
    assert np.allclose(total.value(0.75), [-9.0])
    assert np.allclose(total.value(1.25), [-8.0])
    assert np.allclose(total.value(1.75), [2.0])
    with pytest.raises(ValueError):
        k1 - TestFunction.zero(2)
    diff = k1 - k1
    assert np.allclose([diff.value(t) for t in (0.3, 1.5)], 0.0)
    moved = k1.shifted(0.5)
    assert np.allclose(moved.value(0.0), [1.0])
    assert np.allclose(moved.value(0.75), [2.0])
    assert np.allclose(moved.value(-0.75), [0.0])


@given(s=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
       t=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_test_function_shift_property(s, t):
    k = TestFunction([0.0, 1.0, 2.0], [[1.0, -1.0], [0.25, 3.0]])
    assert np.allclose(k.shifted(s).value(t), k.value(t + s))


def test_field_profile():
    f = FieldProfile((Constant(1.0 + 2.0j), ZERO), window=2.0)
    assert f.d == 2
    assert f.breakpoints() == (0.0, 2.0)
    assert np.allclose(f.value(0.5), [1.0 + 2.0j, 0.0])
    assert np.allclose(f.value(2.0, side=+1), [0.0, 0.0])
    assert np.allclose(f.value(2.0, side=-1), [1.0 + 2.0j, 0.0])
    assert np.allclose(f.value(-0.5), [0.0, 0.0])
    moved = f.shifted(0.5)
    assert np.allclose(moved.value(1.0), [1.0 + 2.0j, 0.0])
    assert np.allclose(moved.value(1.6), [0.0, 0.0])


def test_segments_merge_breakpoints():
    k = TestFunction([0.0, 0.5, 1.5, 3.0], [[1.0], [2.0], [3.0]])
    f = FieldProfile((Harmonic(1.0, 0.0, 2.0),), window=1.5)
    # shared breakpoints appear once; those outside (0, t_end) are dropped
    assert segments(2.0, k, f) == [(0.0, 0.5), (0.5, 1.5), (1.5, 2.0)]
    assert segments(0.4, k, f) == [(0.0, 0.4)]
    assert segments(2.0) == [(0.0, 2.0)]
    assert segments(0.0, k, f) == []
