import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.errors import UnsupportedScalarError
from stabkit import exactnum
from stabkit.exactnum import (
    EC_I,
    SPLIT_BUDGET,
    ExactComplex,
    PhaseKey,
    QuadScalar,
    ccw_displacement,
    cross,
    cross_sign,
    fmt_scalar,
    in_strict_upper_half,
    normalize_direction,
    phase_diff_float,
    phase_key_anchor,
    root_bounds,
    sign_of,
    split_fraction,
    sqrt_bounds,
    squarefree_split,
)
from stabkit.stabspace import solve_alignment

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


def factorint_split(n):
    """(s, d) with n = s**2 * d and d square-free, from sympy's factorization."""
    s = d = 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return s, d


def test_squarefree_split_matches_factorint():
    rng = random.Random(7001)
    cases = [1, 2, 4, 8, 12, 72, 2 ** 61, 3 ** 40 * 7]
    cases += [rng.randrange(1, 10 ** 15) for _ in range(300)]
    # p**2 * q with p near 10**6: the cofactor left after trial division is p**2
    cases += [sympy.prevprime(10 ** 6 - rng.randrange(10 ** 4)) ** 2 * rng.randrange(1, 10 ** 5)
              for _ in range(40)]
    # smooth numbers far above 10**18
    primes = list(sympy.primerange(2, 1000))
    for _ in range(60):
        n = 1
        while n < 10 ** 30:
            n *= rng.choice(primes) ** rng.randint(1, 5)
        cases.append(n)
    for n in cases:
        assert squarefree_split(n) == factorint_split(n), n


def test_squarefree_split_refuses_beyond_the_budget():
    p, q, r = 100000007, 100000037, 100000039
    assert SPLIT_BUDGET ** 3 < p * q * r and all(sympy.isprime(x) for x in (p, q, r))
    # the discriminant of t**2 - N/4 is N itself
    with pytest.raises(UnsupportedScalarError, match="trial divisors above"):
        solve_alignment(Fraction(-p * q * r, 4), Fraction(0), Fraction(1))


def test_library_refusals_by_class_and_message():
    r2, r3, zero = QuadScalar(1, 1, 2), QuadScalar(1, 1, 3), ec(0, 0)
    for mixed in (lambda: r2 + r3, lambda: r2 * r3):
        with pytest.raises(UnsupportedScalarError, match=r"^mixed quadratic extensions sqrt\(2\) and sqrt\(3\)$"):
            mixed()
    with pytest.raises(ZeroDivisionError, match="^inverse of zero quadratic scalar$"):
        QuadScalar(0, 0, 2).inverse()
    # sqrt_bounds checks the sign first, so the helper's guard is reached only directly
    for negative in (lambda: sqrt_bounds(Fraction(-1)), lambda: sqrt_bounds(QuadScalar(1, -1, 2)),
                     lambda: exactnum._sqrt_bounds_fraction(Fraction(-1), 10)):
        with pytest.raises(ValueError, match="^sqrt of negative value$"):
            negative()
    for direction in ((1, 0), (1, -1)):
        with pytest.raises(ValueError, match=rf"^phase direction \({direction[0]} \+ {direction[1]}i\) not in \(0, pi\] convention$"):
            PhaseKey(0, ec(*direction))
    with pytest.raises(ValueError, match="^no phase for the zero vector$"):
        normalize_direction(zero)
    for d1, d2 in ((zero, EC_I), (EC_I, zero)):
        with pytest.raises(ValueError, match="^displacement of a zero vector$"):
            ccw_displacement(d1, d2)
    with pytest.raises(ValueError, match="^anchor direction must be nonzero$"):
        phase_key_anchor(zero, 0)


def test_solve_alignment_splits_numerator_and_denominator_apart():
    N = 10000019 * 10000079
    D = 10000103 * 10000121
    assert all(sympy.isprime(x) for x in (10000019, 10000079, 10000103, 10000121))
    # roots of t**2 - N/(4D): sqrt(N/D) / 2 = sqrt(N*D) / (2D), and N*D is beyond the split budget
    lo, hi = solve_alignment(Fraction(-N, 4 * D), Fraction(0), Fraction(1))
    for root, sign in ((lo, -1), (hi, 1)):
        assert (root.a, root.b, root.d) == (0, Fraction(sign, 2 * D), N * D)
        assert root * root == Fraction(N, 4 * D)
    rad, d = split_fraction(Fraction(12, 5))
    assert (rad, d) == (Fraction(2, 5), 15)
    x = QuadScalar(Fraction(1), Fraction(1), d)
    assert x == QuadScalar(Fraction(1), Fraction(1), 15) and repr(x) == "QuadScalar(1, 1, d=15)"
    assert fmt_scalar(x) == "(1+1√15)" and hash(x) == hash(QuadScalar(Fraction(1), Fraction(1), 15))
    with pytest.raises(UnsupportedScalarError):  # arithmetic on a proven d proves nothing
        QuadScalar(Fraction(0), Fraction(1), 4 * d)


def test_solve_alignment_matches_the_single_integer_split():
    rng = random.Random(7002)
    for _ in range(300):
        q0, q1, q2 = (Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(3))
        if q2 == 0 or (disc := q1 * q1 - 4 * q0 * q2) <= 0:
            continue
        s, d = squarefree_split(disc.numerator * disc.denominator)
        rad, a = Fraction(s, disc.denominator), -q1 / (2 * q2)
        if d == 1:
            expected = [(-q1 - rad) / (2 * q2), (-q1 + rad) / (2 * q2)]
        else:
            expected = [QuadScalar(a, -rad / (2 * q2), d), QuadScalar(a, rad / (2 * q2), d)]
        got = solve_alignment(q0, q1, q2)
        assert got == expected and [type(x) for x in got] == [type(x) for x in expected]


def test_cross_sign_matches_the_sign_of_the_cross_product():
    rng = random.Random(7003)

    def rational():
        return Fraction(rng.choice((0, 1, -1, rng.randint(-10 ** 12, 10 ** 12))), rng.randint(1, 10 ** 6))

    def quad(d):
        x = QuadScalar(rational(), rational(), d)
        return x if rng.random() < 0.7 else x.a  # mixed Fraction and QuadScalar parts

    pairs = []
    for _ in range(150):
        d = rng.choice((None, 2, 3, 5))
        part = rational if d is None else (lambda: quad(d))
        z1 = ExactComplex(part(), part())
        for z2 in (ExactComplex(part(), part()), z1):
            pairs.append((z1, z2))
            # parallel and antiparallel directions have cross product zero
            pairs.append((z1, z2.scale(rational() or 1)))
            pairs.append((z1, z2.scale(-(rational() or 1))))
    for z1, z2 in pairs:
        assert cross_sign(z1, z2) == sign_of(cross(z1, z2)), (z1, z2)
        assert cross_sign(z2, z1) == -cross_sign(z1, z2)
    assert {cross_sign(z1, z2) for z1, z2 in pairs} == {-1, 0, 1}


def test_quad_inverse():
    x = QuadScalar(Fraction(3), Fraction(-1, 2), 5)
    y = x * x.inverse()
    assert y == 1


def test_ccw_displacement_examples():
    zero = ccw_displacement(ec(3, 4), ec(3, 4))
    assert zero == PhaseKey(-1, ec(-1, 0)) and zero.float_value() == 0.0
    half = ccw_displacement(ec(1, 0), ec(0, 1))
    assert half == PhaseKey(0, ec(0, 1)) and abs(half.float_value() - 0.5) < 1e-12
    one = ccw_displacement(ec(1, 1), ec(-1, -1))
    assert one == PhaseKey(0, ec(-1, 0)) and one.float_value() == 1.0
    d2 = ccw_displacement(ec(0, 1), ec(1, 0))
    assert d2 == PhaseKey(1, ec(0, 1)) and abs(d2.float_value() - 1.5) < 1e-12


def test_displacement_add_to_phase():
    p = PhaseKey(0, ec(0, 1))  # 1/2
    half = ccw_displacement(ec(1, 0), ec(0, 1))  # 1/2
    assert abs(p.plus(half).float_value() - 1.0) < 1e-12
    full_and_half = ccw_displacement(ec(0, 1), ec(1, 0))  # 3/2
    assert abs(p.plus(full_and_half).float_value() - 2.0) < 1e-12
    one = ccw_displacement(ec(1, 1), ec(-1, -1))  # exactly 1
    q = p.plus(one)
    assert q.k == 1 and q == PhaseKey(1, ec(0, 1))
    # adding an integer keeps the direction object, as shift does
    assert q.dir is p.dir and p.plus(ccw_displacement(ec(2, 5), ec(4, 10))).dir is p.dir


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
    assert lhs in (rhs, rhs.shift(2))


@given(phase_keys, directions, directions)
@settings(max_examples=200)
def test_add_displacement_matches_float(p, d1, d2):
    disp = ccw_displacement(d1, d2)
    got = p.plus(disp).float_value()
    want = p.float_value() + disp.float_value()
    assert abs(got - want) < 1e-9


@given(phase_keys, phase_keys)
@settings(max_examples=200)
def test_plus_matches_float_sum(p, q):
    assert abs(p.plus(q).float_value() - (p.float_value() + q.float_value())) < 1e-9
    assert p.plus(q) == q.plus(p)


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


def test_post_init_hook_sees_every_quad_construction(monkeypatch):
    # a counter replaces the hook on the class, as a tracer does
    seen = []
    original = QuadScalar.__post_init__

    def counting(obj):
        seen.append((obj.a, obj.b, obj.d))
        original(obj)

    monkeypatch.setattr(QuadScalar, "__post_init__", counting)
    x = QuadScalar(Fraction(1), 1, 2)
    assert seen == [(1, 1, 2)]
    for op, built in ((lambda: x + 1, 2), (lambda: x * x, 1), (lambda: x._coerce(Fraction(1, 2)), 1),
                      (lambda: solve_alignment(Fraction(-2), Fraction(0), Fraction(1)), 2)):
        before = len(seen)
        op()
        assert len(seen) == before + built
    assert seen[-2:] == [(0, -1, 2), (0, 1, 2)]  # the roots -sqrt(2) and sqrt(2)
    with pytest.raises(UnsupportedScalarError):
        QuadScalar(Fraction(1), Fraction(1), 8)
    assert seen[-1] == (1, 1, 8)
