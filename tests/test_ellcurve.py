import math
import random
from fractions import Fraction

import pytest

from stabkit.ellcurve import MAT_STD, NumClass, NumericalCharge, classify, modular_reduce
from stabkit.errors import DegenerateChargeError, OrientationError
from stabkit.exactnum import normalize_direction
from stabkit.stabspace import GLtildeElement, mat2, mat2_det, mat2_inv

from support import charge_of_element, ec

STD = NumericalCharge(MAT_STD)  # the standard charge -deg + i*rank


def test_std_charge_examples():
    sky = STD.of(NumClass(0, 1))
    assert sky == ec(-1, 0)
    assert normalize_direction(sky).float_value() == 1.0
    line = STD.of(NumClass(1, 0))
    assert line == ec(0, 1)
    assert normalize_direction(line).float_value() == 0.5
    assert STD.of(NumClass(2, 3)) == ec(-3, 2)


def test_numerical_charge_of_matches_std_charge_and_classify():
    rng = random.Random(2401)
    for _ in range(50):
        c = NumClass(rng.randint(-6, 6), rng.randint(-6, 6))
        assert STD.of(c) == ec(-c.d, c.r)
        while True:
            M = mat2(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)))
            if mat2_det(M) > 0:
                break
        Zn = NumericalCharge(M)
        assert charge_of_element(classify(Zn)).of(c) == Zn.of(c)


def test_classify_standard_is_identity():
    g = classify(NumericalCharge(MAT_STD))
    assert g.is_identity


def test_classify_errors():
    with pytest.raises(DegenerateChargeError):
        classify(NumericalCharge(mat2(1, 1, 1, 1)))
    with pytest.raises(OrientationError, match="orientation"):
        classify(NumericalCharge(mat2(0, 1, 1, 0)))


def test_classify_scaled():
    g = classify(NumericalCharge(mat2(0, -3, 3, 0)))
    assert g.T == mat2(Fraction(1, 3), 0, 0, Fraction(1, 3)) and g.m == 0
    assert charge_of_element(g).M == mat2(0, -3, 3, 0)


def random_matrix(rng):
    while True:
        T = mat2(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        if mat2_det(T) > 0:
            return T


def skyscraper_phase_float(g: GLtildeElement) -> float:
    """Independent float oracle for the relabeled phase of the class (0, 1)."""
    tinv = mat2_inv(g.T)
    ux, uy = float(tinv[0][1]), float(tinv[1][1])  # T^{-1} i
    anchor = math.atan2(uy, ux) / math.pi % 2.0
    if anchor > 1.5:
        anchor -= 2.0
    anchor += 2 * g.m
    wx, wy = float(-tinv[0][0]), float(-tinv[1][0])  # T^{-1} (-1, 0)
    delta = (math.atan2(wy, wx) - math.atan2(uy, ux)) / math.pi % 2.0
    return anchor + delta  # window index of phase 1 is 0


def test_classify_round_trip_against_float_oracle():
    rng = random.Random(42)
    done = 0
    while done < 120:
        T = random_matrix(rng)
        base = GLtildeElement(T, 0)
        approx = skyscraper_phase_float(base)
        # canonical branch puts the skyscraper phase in (0, 2]: the unique
        # m in ((-approx)/2, (2-approx)/2] is the floor of the upper end
        m_oracle = math.floor((2 - approx) / 2 + 1e-12)
        if min(abs(approx % 2), abs(2 - approx % 2)) < 1e-6:
            continue  # too close to a branch boundary for the float oracle
        g = GLtildeElement(T, m_oracle)
        got = classify(charge_of_element(g))
        assert got.T == g.T and got.m == g.m
        done += 1


def test_classify_freeness_injectivity():
    rng = random.Random(43)
    seen = {}
    for _ in range(100):
        T = random_matrix(rng)
        g = classify(charge_of_element(GLtildeElement(T, 0)))
        key = tuple(x for row in charge_of_element(g).M for x in row) + (g.m,)
        if key in seen:
            assert seen[key] == (g.T, g.m)
        seen[key] = (g.T, g.m)


def test_hom_direction_phase_chain():
    rng = random.Random(44)
    for _ in range(50):
        g = classify(charge_of_element(GLtildeElement(random_matrix(rng), 0)))
        degrees = sorted(rng.sample(range(-6, 7), 3))
        keys = []
        for d in degrees:
            base = normalize_direction(STD.of(NumClass(1, d)))
            keys.append(g.relabel(base))
        for ka, kb in zip(keys, keys[1:]):
            assert ka.cmp(kb) <= 0
            assert kb.cmp(ka.shift(1)) <= 0


def test_modular_reduce_examples():
    assert modular_reduce(classify(NumericalCharge(MAT_STD))).tau == ec(0, 1)
    red5 = modular_reduce(GLtildeElement(mat2(1, 5, 0, 1), 0))
    assert red5.tau == ec(0, 1)
    assert red5.word == ("T^-5",)
    redh = modular_reduce(GLtildeElement(mat2(1, 0, 0, Fraction(1, 2)), 0))
    assert redh.tau == ec(0, 2)
    assert redh.word == ("S",)


def test_modular_reduce_random_domain_and_det():
    rng = random.Random(45)
    for _ in range(100):
        g = GLtildeElement(random_matrix(rng), rng.randint(-2, 2))
        red = modular_reduce(g)
        assert abs(red.tau.re) <= Fraction(1, 2)
        assert red.tau.abs_squared() >= 1
        assert red.tau.im > 0
        det = red.gamma[0][0] * red.gamma[1][1] - red.gamma[0][1] * red.gamma[1][0]
        assert det == 1
        assert red.branch == g.m
        # gamma really carries tau0 to the reduced point
        T = g.T
        w1 = ec(T[0][0], T[1][0])
        w2 = ec(T[0][1], T[1][1])
        n2 = w1.abs_squared()
        tau0_re = (w2.re * w1.re + w2.im * w1.im) / n2
        tau0_im = (w2.im * w1.re - w2.re * w1.im) / n2
        a, b = red.gamma[0]
        c, d = red.gamma[1]
        den_re = c * tau0_re + d
        den_im = c * tau0_im
        den2 = den_re * den_re + den_im * den_im
        out_re = ((a * tau0_re + b) * den_re + a * tau0_im * den_im) / den2
        out_im = (a * tau0_im * den_re - (a * tau0_re + b) * den_im) / den2
        assert out_re == red.tau.re and out_im == red.tau.im
