import random

import pytest

from stabkit.exactnum import PhaseKey
from stabkit.quivrep import Arrow, Quiver, subquotient, zero_submodule
from stabkit.slicing import (
    FormalComplex,
    hn_decompose,
    phi_bounds,
    slicing_distance,
)
from stabkit.stabspace import GLtildeElement, StabilityConditionHandle
from stabkit.errors import (
    CapExceededError,
    FieldMismatchError,
    InvariantViolation,
    UnsupportedVerdictError,
    ZeroObjectError,
)

from support import A2, F2, F3, Q, all_ses, ec, charge, instance_stream, labelled, random_charge, rep


def fc0(rep):
    return FormalComplex.of_module(rep)


def handle(Z):
    return StabilityConditionHandle(A2, F2, Z)


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


def test_decompose_over_q_of_a_semistable_module(z_std):
    P = rep(A2, Q, (1, 1), {"a": [[1]]})  # semistable under z_std
    out = hn_decompose(fc0(P), StabilityConditionHandle(A2, Q, z_std))
    assert [(f.shift, f.factor) for f in out] == [(0, P)]
    assert out[0].key.float_value() == 0.5


def test_direct_sum_merges_parts_at_one_shift(a2_reps):
    S1, S2, P = a2_reps["S1"], a2_reps["S2"], a2_reps["P"]
    fc = FormalComplex(((1, S2), (0, S1))).direct_sum(FormalComplex(((0, P), (-1, S1))))
    assert [(k, r.dims, r.maps) for k, r in fc.parts] == [
        (1, (0, 1), (((),),)), (0, (2, 1), (((0, 1),),)), (-1, (1, 0), ((),)),
    ]


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


def test_slicing_distance_identity(a2_reps, z_std):
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    rep = slicing_distance(handle(z_std), handle(z_std), testset)
    assert rep.value == 0.0
    assert [r.label for r in rep.rows] == ["S1", "S2", "P"]


def test_slicing_distance_quarter_example(a2_reps):
    z1 = charge((-1, 1), (1, 1))
    z2 = charge((-1, 1), (0, 1))
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    rep = slicing_distance(handle(z1), handle(z2), testset)
    assert rep.value == 0.25  # S2 moves from 1/4 to 1/2, exactly so in the float
    by_label = {r.label: r for r in rep.rows}
    assert by_label["S1"].value == 0.0
    assert (by_label["S2"].lo_diff, by_label["S2"].hi_diff) == (-0.25, -0.25)


def test_pseudometric_properties(a2_reps):
    rng = random.Random(78)
    testset = labelled(a2_reps, ("S1", "S2", "P", "SS"))
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
        S = StabilityConditionHandle(r.quiver, r.field, Z)
        he = phi_bounds(fc0(r), S)
        for sub, quot in all_ses(r):
            ha = phi_bounds(fc0(subquotient(r, zero_submodule(r), sub)), S)
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


def test_formal_complex_accepts_equal_quivers_built_apart(a2_reps, z_std):
    twin = Quiver(2, (Arrow("a", 1, 2),))
    assert twin is not A2 and twin == A2
    fc = FormalComplex(((1, a2_reps["S1"]), (0, rep(twin, F2, (0, 1)))))
    assert fc.class_vector() == (-1, 1)
    assert [f.factor.dims for f in hn_decompose(fc, StabilityConditionHandle(twin, F2, z_std))] == [(1, 0), (0, 1)]
    other = Quiver(2, (Arrow("b", 1, 2),))
    with pytest.raises(FieldMismatchError):
        FormalComplex(((1, a2_reps["S1"]), (0, rep(other, F2, (0, 1)))))
    with pytest.raises(FieldMismatchError):
        FormalComplex(((1, a2_reps["S1"]), (0, rep(A2, F3, (0, 1)))))


def test_library_refusals_by_class_and_message(a2_reps, z_std):
    zero = rep(A2, F2, (0, 0))
    for parts, k in ((((0, zero),), 0), (((2, a2_reps["S1"]), (1, zero)), 1)):
        with pytest.raises(ZeroObjectError, match=f"^zero representation stored at shift {k}$"):
            FormalComplex(parts)
    with pytest.raises(ZeroObjectError, match="^zero object has no interesting class here$"):
        FormalComplex(()).class_vector()
    sigma = handle(z_std)
    with pytest.raises(ZeroObjectError, match="^slicing distance needs a nonempty testset$"):
        slicing_distance(sigma, sigma, ())


def test_decompose_refuses_a_relabeling_that_breaks_the_order(a2_reps, z_flip, monkeypatch):
    # planted defect: a relabeling that sends every phase to 1/2
    fc = fc0(a2_reps["P"])
    assert len(hn_decompose(fc, handle(z_flip))) == 2
    monkeypatch.setattr(GLtildeElement, "relabel", lambda self, p: PhaseKey(0, ec(0, 1)))
    with pytest.raises(InvariantViolation, match="^decomposition phases are not strictly descending$"):
        hn_decompose(fc, handle(z_flip))


def test_decompose_refuses_an_object_over_another_heart(a2_reps, z_std):
    over_f3 = fc0(rep(A2, F3, (1, 1), {"a": [[1]]}))
    with pytest.raises(FieldMismatchError):
        hn_decompose(over_f3, handle(z_std))
    with pytest.raises(FieldMismatchError):
        hn_decompose(fc0(a2_reps["P"]), StabilityConditionHandle(A2, F3, z_std))


def test_hn_factors_are_memoised_per_charge(a2_reps, monkeypatch):
    from stabkit import stability

    real, calls = stability.hn_filtration_max_sub, []

    def counting(r, *args, **kwargs):
        calls.append(r.dims)
        return real(r, *args, **kwargs)

    monkeypatch.setattr(stability, "hn_filtration_max_sub", counting)
    Z, twin = charge((1, 1), (-1, 1)), charge((1, 1), (-1, 1))
    P = fc0(a2_reps["P"])
    first = hn_decompose(P, handle(Z))
    assert [f.factor.dims for f in first] == [(0, 1), (1, 0)]
    assert hn_decompose(P, handle(Z)) == first and calls == [(1, 1)]
    # a charge built apart with equal values has a memo of its own and gives equal factors
    assert twin == Z and hash(twin) == hash(Z) and repr(twin) == repr(Z)
    assert hn_decompose(P, handle(twin)) == first and calls == [(1, 1), (1, 1)]


def test_hn_factor_refusals_are_raised_on_every_call(a2_reps):
    Z = charge((1, 1), (-1, 1))
    P = fc0(a2_reps["P"])
    for _ in range(2):
        with pytest.raises(CapExceededError):
            hn_decompose(P, handle(Z), cap=1)
    assert len(hn_decompose(P, handle(Z))) == 2  # the default cap admits P
    with pytest.raises(CapExceededError):  # the memo is keyed by the cap as well
        hn_decompose(P, handle(Z), cap=1)
    over_q = fc0(rep(A2, Q, (1, 1), {"a": [[1]]}))  # unstable under Z, so refused over Q
    for _ in range(2):
        with pytest.raises(UnsupportedVerdictError):
            hn_decompose(over_q, StabilityConditionHandle(A2, Q, Z))
