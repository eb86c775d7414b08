import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.errors import UnsupportedScalarError
from stabkit.exactnum import (
    ExactComplex,
    PhaseKey,
    QuadScalar,
    ccw_displacement,
    in_strict_upper_half,
    normalize_direction,
    phase_diff_float,
    phase_key_anchor,
    root_bounds,
    sqrt_bounds,
)

from support import ec


def test_strict_upper_half_examples():
    assert in_strict_upper_half(ec(0, 1))        # i, phase 1/2
    assert in_strict_upper_half(ec(-1, 0))       # boundary, phase 1
    assert not in_strict_upper_half(ec(1, 0))
    assert not in_strict_upper_half(ec(0, 0))
    assert not in_strict_upper_half(ec(0, -1))


def test_cmp_phase_examples():
    assert PhaseKey(0, ec(1, 1)).cmp(PhaseKey(0, ec(0, 1))) < 0
    assert PhaseKey(0, ec(-1, 1)).cmp(PhaseKey(0, ec(0, 1))) > 0
    assert PhaseKey(1, ec(0, 1)).cmp(PhaseKey(0, ec(-1, 0))) > 0
    assert PhaseKey(0, ec(2, 2)) == PhaseKey(0, ec(1, 1))


def test_quad_sign_examples():
    assert QuadScalar(Fraction(1), Fraction(-3, 4), 2).sign() == -1
    assert QuadScalar(Fraction(0), Fraction(0), 2).sign() == 0
    assert QuadScalar(Fraction(-1), Fraction(1), 2).sign() == 1


def test_quad_requires_square_free():
    for _ in range(2):  # the memoized check still refuses on a repeat
        with pytest.raises(UnsupportedScalarError):
            QuadScalar(Fraction(1), Fraction(1), 4)
        with pytest.raises(UnsupportedScalarError):
            QuadScalar(Fraction(1), Fraction(1), 12)
        assert QuadScalar(Fraction(1), Fraction(1), 6).d == 6
    with pytest.raises(UnsupportedScalarError):
        QuadScalar(Fraction(1), Fraction(1), 1)


def test_quad_inverse():
    x = QuadScalar(Fraction(3), Fraction(-1, 2), 5)
    y = x * x.inverse()
    assert y == 1


def test_ccw_displacement_examples():
    d = ccw_displacement(ec(1, 0), ec(0, 1))
    assert d.sector == 1 and abs(d.float_value() - 0.5) < 1e-12
    assert ccw_displacement(ec(3, 4), ec(3, 4)).is_zero
    d2 = ccw_displacement(ec(0, 1), ec(1, 0))
    assert d2.sector == 3 and abs(d2.float_value() - 1.5) < 1e-12


def test_displacement_add_to_phase():
    p = PhaseKey(0, ec(0, 1))  # 1/2
    half = ccw_displacement(ec(1, 0), ec(0, 1))  # 1/2
    assert abs(p.add_displacement(half).float_value() - 1.0) < 1e-12
    full_and_half = ccw_displacement(ec(0, 1), ec(1, 0))  # 3/2
    assert abs(p.add_displacement(full_and_half).float_value() - 2.0) < 1e-12
    one = ccw_displacement(ec(1, 1), ec(-1, -1))  # exactly 1
    q = p.add_displacement(one)
    assert q.k == 1 and q == PhaseKey(1, ec(0, 1))


directions = st.tuples(
    st.integers(-9, 9), st.integers(-9, 9)
).filter(lambda t: t != (0, 0)).map(lambda t: ec(t[0], t[1]))

phase_keys = st.tuples(st.integers(-3, 3), directions).map(
    lambda t: normalize_direction(t[1]).shift(t[0])
)


@given(phase_keys, phase_keys, phase_keys)
@settings(max_examples=150)
def test_cmp_phase_total_order(p, q, r):
    assert p.cmp(q) == -q.cmp(p)
    if p.cmp(q) <= 0 and q.cmp(r) <= 0:
        assert p.cmp(r) <= 0


@given(directions, st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=150)
def test_normalize_scaling_invariance(d, num, den):
    lam = Fraction(num, den)
    assert normalize_direction(d.scale(lam)) == normalize_direction(d)


quads = st.tuples(
    st.integers(-8, 8), st.integers(1, 8), st.integers(-8, 8), st.integers(1, 8)
).map(lambda t: QuadScalar(Fraction(t[0], t[1]), Fraction(t[2], t[3]), 3))


@given(quads, quads)
@settings(max_examples=150)
def test_sign_multiplicative(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


@given(quads)
@settings(max_examples=150)
def test_sign_matches_float(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


@given(directions, directions, directions)
@settings(max_examples=150)
def test_displacement_cocycle_mod_2(d1, d2, d3):
    lhs = ccw_displacement(d1, d2).plus(ccw_displacement(d2, d3))
    rhs = ccw_displacement(d1, d3)
    assert lhs.cmp(rhs) == 0


@given(phase_keys, directions, directions)
@settings(max_examples=200)
def test_add_displacement_matches_float(p, d1, d2):
    disp = ccw_displacement(d1, d2)
    got = p.add_displacement(disp).float_value()
    want = p.float_value() + disp.float_value()
    assert abs(got - want) < 1e-9


@given(directions, st.integers(-3, 3))
@settings(max_examples=200)
def test_phase_key_anchor_window(u, m):
    key = phase_key_anchor(u, m)
    v = key.float_value()
    assert 2 * m - 0.5 - 1e-9 < v <= 2 * m + 1.5 + 1e-9
    # the key's direction, seen as a plane vector, must be positively
    # proportional to u (the half-turn parity sits in the integer part)
    vec = key.dir if key.k % 2 == 0 else -key.dir
    angle_vec = math.atan2(*reversed(vec.to_floats())) % (2 * math.pi)
    angle_u = math.atan2(*reversed(u.to_floats())) % (2 * math.pi)
    gap = abs(angle_vec - angle_u)
    assert min(gap, 2 * math.pi - gap) < 1e-9


def test_phase_diff_float_exact_on_proportional():
    p = PhaseKey(3, ec(2, 5))
    q = PhaseKey(1, ec(4, 10))
    assert phase_diff_float(p, q) == 2.0


@given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 3))
@settings(max_examples=100)
def test_sqrt_bounds_enclose(num, den):
    q = Fraction(num, den)
    lo, hi = sqrt_bounds(q, 70)
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Fraction(2, 2 ** 70)


def test_root_bounds_enclose_quadratic_scalars():
    for x in (QuadScalar(Fraction(1, 3), Fraction(5, 7), 2), QuadScalar(Fraction(-2), Fraction(-3, 4), 7)):
        lo, hi = root_bounds(x, 60)
        assert (x - lo).sign() > 0 and (hi - x).sign() > 0
        assert hi - lo <= abs(x.b) * Fraction(2, 2 ** 60)
    assert root_bounds(Fraction(3, 5), 60) == (Fraction(3, 5), Fraction(3, 5))
