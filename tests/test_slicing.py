import random
from fractions import Fraction

import pytest

from stabkit.exactnum import PhaseKey
from stabkit.quivrep import all_ses, sub_rep
from stabkit.slicing import (
    FormalComplex,
    PhaseInterval,
    containment_check,
    hn_decompose,
    in_interval,
    phi_bounds,
    slicing_distance,
)
from stabkit.stability import phase
from stabkit.stabspace import plain_handle
from stabkit.errors import ZeroObjectError

from support import A2, F2, ec, charge, instance_stream, random_charge


def fc0(rep):
    return FormalComplex.of_module(rep)


def handle(Z):
    return plain_handle(A2, F2, Z)


def test_decompose_single_semistable(a2_reps, z_std):
    out = hn_decompose(fc0(a2_reps["P"]), handle(z_std))
    assert len(out) == 1
    assert out[0].shift == 0 and out[0].factor.dims == (1, 1)


def test_decompose_two_degrees(a2_reps, z_std):
    fc = FormalComplex(((1, a2_reps["S1"]), (0, a2_reps["S2"])))
    out = hn_decompose(fc, handle(z_std))
    assert [(f.shift, f.factor.dims) for f in out] == [(1, (1, 0)), (0, (0, 1))]
    assert [round(f.key.float_value(), 6) for f in out] == [1.75, 0.25]


def test_decompose_unstable_module(a2_reps, z_flip):
    out = hn_decompose(fc0(a2_reps["P"]), handle(z_flip))
    assert [(f.shift, f.factor.dims) for f in out] == [(0, (0, 1)), (0, (1, 0))]
    assert [round(f.key.float_value(), 6) for f in out] == [0.75, 0.25]


def test_decompose_zero_rejected(z_std):
    with pytest.raises(ZeroObjectError):
        hn_decompose(FormalComplex(()), handle(z_std))


def test_phi_bounds_examples(a2_reps, z_std, z_flip):
    lo, hi = phi_bounds(fc0(a2_reps["P"]), handle(z_std))
    assert lo == hi
    fc = FormalComplex(((1, a2_reps["S1"]), (0, a2_reps["S2"])))
    lo2, hi2 = phi_bounds(fc, handle(z_std))
    assert (round(lo2.float_value(), 6), round(hi2.float_value(), 6)) == (0.25, 1.75)
    lo3, hi3 = phi_bounds(fc0(a2_reps["P"]), handle(z_flip))
    assert (round(lo3.float_value(), 6), round(hi3.float_value(), 6)) == (0.25, 0.75)


def test_in_interval_examples(a2_reps, z_std, z_flip):
    S = handle(z_std)
    # semistable P has phase 1/2; a narrow interval around it contains it
    band = PhaseInterval(PhaseKey(0, ec(1, 2)), PhaseKey(0, ec(-1, 2)))
    assert in_interval(fc0(a2_reps["P"]), S, band)
    # unstable P under the flipped charge is not in (1/2, 1]
    half_open = PhaseInterval(PhaseKey(0, ec(0, 1)), PhaseKey(0, ec(-1, 0)), True, False)
    assert not in_interval(fc0(a2_reps["P"]), handle(z_flip), half_open)
    # the zero object belongs to every interval slice
    assert in_interval(FormalComplex(()), S, band)


def test_slicing_distance_identity(a2_reps, z_std):
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    rep = slicing_distance(handle(z_std), handle(z_std), testset)
    assert rep.value == 0.0
    assert rep.kind == "lower_bound"


def test_slicing_distance_quarter_example(a2_reps):
    z1 = charge((-1, 1), (1, 1))
    z2 = charge((-1, 1), (0, 1))
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    rep = slicing_distance(handle(z1), handle(z2), testset, labels=["S1", "S2", "P"])
    assert abs(rep.value - 0.25) < 1e-12  # S2 moves from 1/4 to 1/2
    by_label = {r.label: r for r in rep.rows}
    assert by_label["S1"].value == 0.0
    assert abs(by_label["S2"].value - 0.25) < 1e-12


def test_containment_examples(a2_reps, z_std):
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    S = handle(z_std)
    assert containment_check(S, S, Fraction(0), testset).ok
    z2 = charge((-1, 1), (0, 1))
    rep = containment_check(handle(z2), S, Fraction(1, 4), testset)
    assert rep.ok  # drift is exactly 1/4 and the band is closed
    rep2 = containment_check(handle(z2), S, Fraction(1, 5), testset)
    assert not rep2.ok


def test_distance_implies_containment_on_random_pairs(a2_reps):
    rng = random.Random(77)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    checked = 0
    for _ in range(40):
        za = random_charge(rng, 2)
        zb = random_charge(rng, 2)
        Sa, Sb = handle(za), handle(zb)
        try:
            d = slicing_distance(Sa, Sb, testset)
        except Exception:
            continue
        # containment requires the testset to be Sb-semistable
        if any(len(hn_decompose(fc, Sb)) != 1 for fc in testset):
            continue
        eps = Fraction(d.value).limit_denominator(10 ** 6) + Fraction(1, 1000)
        assert containment_check(Sa, Sb, eps, testset).ok
        checked += 1
    assert checked > 5


def test_pseudometric_properties(a2_reps):
    rng = random.Random(78)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P", "SS")]
    for _ in range(25):
        za, zb, zc = (random_charge(rng, 2) for _ in range(3))
        Sa, Sb, Sc = handle(za), handle(zb), handle(zc)
        dab = slicing_distance(Sa, Sb, testset).value
        dba = slicing_distance(Sb, Sa, testset).value
        assert abs(dab - dba) < 1e-12
        dac = slicing_distance(Sa, Sc, testset).value
        dcb = slicing_distance(Sc, Sb, testset).value
        assert dab <= dac + dcb + 1e-9


def test_shifted_sum_phase_bound_lemma(a2_reps, z_flip):
    # split extensions: phi+(A) <= phi+(A+B) and phi-(A+B) <= phi-(B)
    S = handle(z_flip)
    fa = FormalComplex(((1, a2_reps["S1"]),))
    fb = fc0(a2_reps["P"])
    fe = fa.direct_sum(fb)
    assert phi_bounds(fa, S)[1].cmp(phi_bounds(fe, S)[1]) <= 0
    assert phi_bounds(fe, S)[0].cmp(phi_bounds(fb, S)[0]) <= 0


def test_sub_quotient_phase_bounds_on_instances():
    # non-split sequences embedded in degree zero
    for _, r, Z in instance_stream(seed=55, count=20, max_total=5, max_per_vertex=3):
        S = plain_handle(r.quiver, r.field, Z)
        he = phi_bounds(fc0(r), S)
        for sub, quot in all_ses(r):
            ha = phi_bounds(fc0(sub_rep(r, sub)), S)
            hb = phi_bounds(fc0(quot), S)
            assert ha[1].cmp(he[1]) <= 0
            assert he[0].cmp(hb[0]) <= 0


def test_decompose_idempotent_on_factors(a2_reps, z_flip):
    S = handle(z_flip)
    out = hn_decompose(fc0(a2_reps["P"]), S)
    for f in out:
        again = hn_decompose(FormalComplex(((f.shift, f.factor),)), S)
        assert len(again) == 1
        assert again[0].key == f.key
