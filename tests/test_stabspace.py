import math
import random
from fractions import Fraction

import pytest

from stabkit.errors import (
    HeartChangeUnsupportedError,
    HypothesisViolatedError,
    InvariantViolation,
    OrientationError,
    ProportionalPairError,
    StabkitError,
)
from stabkit.exactnum import ExactComplex, PhaseKey, QuadScalar
from stabkit.slicing import FormalComplex, containment_check, hn_decompose, slicing_distance
from stabkit.stability import CentralCharge, is_semistable
from stabkit.stabspace import (
    ChargePath,
    GLtildeElement,
    chamber_samples,
    charge_matches_key,
    compose,
    deform,
    find_walls,
    gl_act,
    invert,
    mat2,
    mat2_det,
    mul_sequential,
    norm_sigma,
    plain_handle,
    sin_pi_eps_bounds,
    solve_alignment,
    stab_distance,
    validate_axioms,
)

from support import A2, F2, charge, ec, random_charge, rep


def fc0(r):
    return FormalComplex.of_module(r)


def handle(Z):
    return plain_handle(A2, F2, Z)


def random_element(rng, max_n=6):
    while True:
        T = mat2(
            Fraction(rng.randint(-max_n, max_n), rng.randint(1, 4)),
            Fraction(rng.randint(-max_n, max_n), rng.randint(1, 4)),
            Fraction(rng.randint(-max_n, max_n), rng.randint(1, 4)),
            Fraction(rng.randint(-max_n, max_n), rng.randint(1, 4)),
        )
        if mat2_det(T) > 0:
            return GLtildeElement(T, rng.randint(-2, 2))


def test_det_positive_required():
    with pytest.raises(OrientationError):
        GLtildeElement(mat2(1, 0, 0, -1), 0)


def test_scalar_action_keeps_phases(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    sigma2, relabeled = gl_act(sigma, GLtildeElement(mat2(2, 0, 0, 2), 0), testset)
    assert sigma2.charge2d() == tuple(z.scale(Fraction(1, 2)) for z in z_std.values)
    assert sigma2.heart_compatible
    for (fc, key), want in zip(relabeled, testset):
        assert key == sigma.semistable_phase(want)
    # verdicts computed directly from the transformed charge agree
    Z2 = sigma2.as_central_charge()
    for name in ("S1", "S2", "P"):
        assert is_semistable(a2_reps[name], Z2).verdict == is_semistable(a2_reps[name], z_std).verdict


def test_shift_action_axiom_b(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    sigma2, relabeled = gl_act(sigma, GLtildeElement.shift(), testset)
    assert sigma2.charge2d() == tuple(-z for z in z_std.values)
    assert not sigma2.heart_compatible
    for fc, key in relabeled:
        base = sigma.semistable_phase(fc)
        assert key == base.shift(1)


def test_rotation_twice_equals_composition(a2_reps, z_std):
    rot = GLtildeElement(mat2(0, -1, 1, 0), 0)
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    once, _ = gl_act(sigma, rot, testset)
    twice, rel_seq = gl_act(once, rot, testset)
    combined, rel_comp = gl_act(sigma, compose(rot, rot), testset)
    assert twice.charge2d() == combined.charge2d()
    assert twice.g.T == combined.g.T and twice.g.m == combined.g.m
    for (f1, k1), (f2, k2) in zip(rel_seq, rel_comp):
        assert k1 == k2


def test_compose_examples():
    g = GLtildeElement(mat2(3, 1, 0, 2), 1)
    ident = GLtildeElement.identity()
    assert compose(ident, g) == g
    assert compose(g, ident) == g
    ss = compose(GLtildeElement.shift(), GLtildeElement.shift())
    assert ss.T == mat2(1, 0, 0, 1) and ss.m == 1
    rot = GLtildeElement(mat2(0, -1, 1, 0), 0)
    assert mul_sequential(rot, invert(rot)).is_identity
    assert mul_sequential(invert(rot), rot).is_identity


def test_compose_associative_random():
    rng = random.Random(501)
    for _ in range(60):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        a = compose(g1, compose(g2, g3))
        b = compose(compose(g1, g2), g3)
        assert a.T == b.T and a.m == b.m


def test_action_composition_compatibility_random(a2_reps, z_std):
    rng = random.Random(502)
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    for _ in range(40):
        g1, g2 = random_element(rng), random_element(rng)
        s_seq, rel_seq = gl_act(*gl_act(sigma, g2, testset)[:1], g1, testset)
        s_cmp, rel_cmp = gl_act(sigma, compose(g1, g2), testset)
        assert s_seq.charge2d() == s_cmp.charge2d()
        assert s_seq.g.T == s_cmp.g.T and s_seq.g.m == s_cmp.g.m
        for (f1, k1), (f2, k2) in zip(rel_seq, rel_cmp):
            assert k1 == k2


def test_relabel_monotone_random():
    rng = random.Random(503)
    for _ in range(40):
        g = random_element(rng)
        keys = []
        for _ in range(6):
            re, im = rng.randint(-5, 5), rng.randint(-5, 5)
            if (re, im) == (0, 0):
                continue
            from stabkit.exactnum import normalize_direction

            keys.append(normalize_direction(ec(re, im)).shift(rng.randint(-2, 2)))
        for p in keys:
            for q in keys:
                c_before = p.cmp(q)
                c_after = g.relabel(p).cmp(g.relabel(q))
                assert c_before == c_after


def test_norm_requires_semistable_testset(a2_reps, z_flip):
    sigma = handle(z_flip)
    with pytest.raises(StabkitError, match="not semistable"):
        norm_sigma(z_flip.values, sigma, [fc0(a2_reps["P"])], labels=["P"])


def test_norm_examples(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    rep_z = norm_sigma(z_std.values, sigma, testset)
    assert abs(rep_z.value - 1.0) < 1e-12
    zero = (ec(0, 0), ec(0, 0))
    assert norm_sigma(zero, sigma, testset).value == 0.0
    w = charge((-1, 1), (1, Fraction(11, 10)))
    u = tuple(a - b for a, b in zip(w.values, z_std.values))
    rep_u = norm_sigma(u, sigma, testset)
    lo, _ = sin_pi_eps_bounds(Fraction(1, 10))
    assert rep_u.value < float(lo)


def test_sin_bounds_sane():
    lo, hi = sin_pi_eps_bounds(Fraction(1, 10))
    # sin(pi/10) = (sqrt(5) - 1) / 4 exactly; compare without floats
    assert (4 * lo + 1) ** 2 < 5
    assert (4 * hi + 1) ** 2 > 5
    assert float(hi - lo) < 1e-20
    with pytest.raises(StabkitError):
        sin_pi_eps_bounds(Fraction(1, 8))
    with pytest.raises(StabkitError):
        sin_pi_eps_bounds(Fraction(0))


def test_deform_identity(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    tau, report = deform(sigma, z_std.values, Fraction(1, 10), testset)
    assert report.distance == 0.0
    assert tau.charge == z_std


def test_deform_fixture(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    w = charge((-1, 1), (1, Fraction(11, 10)))
    tau, report = deform(sigma, w.values, Fraction(1, 10), testset, labels=["S1", "S2", "P"])
    assert report.distance < 0.1
    assert all(r.margin > 0 for r in report.hypothesis)
    assert tau.charge == w


def test_deform_across_wall(a2_reps):
    # crossing the alignment of S2 and P within bounds: the filtration of
    # P changes while every phase drift stays below eps
    z = charge((Fraction(-1, 10), 1), (0, 1))
    w = charge((Fraction(1, 10), 1), (0, 1))
    sigma = plain_handle(A2, F2, z)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    assert is_semistable(a2_reps["P"], z).is_semistable
    assert not is_semistable(a2_reps["P"], w).is_semistable
    tau, report = deform(sigma, w.values, Fraction(1, 10), testset)
    assert report.distance < 0.1


def test_deform_hypothesis_violation(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    w = charge((-1, 1), (1, 3))
    with pytest.raises(HypothesisViolatedError, match="S2"):
        deform(sigma, w.values, Fraction(1, 20), testset, labels=["S1", "S2", "P"])


def test_deform_heart_change_rejected(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps["S1"])]
    bad = (ec(-1, 1), ec(1, -1))
    with pytest.raises(HeartChangeUnsupportedError):
        deform(sigma, bad, Fraction(1, 10), testset)


def test_deform_eps_range(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps["S1"])]
    with pytest.raises(StabkitError):
        deform(sigma, z_std.values, Fraction(1, 4), testset)


def test_stab_distance_identity_and_scaling(a2_reps, z_std):
    s1 = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    assert stab_distance(s1, s1, testset).value == 0.0
    s2, _ = gl_act(s1, GLtildeElement(mat2(2, 0, 0, 2), 0))
    d = stab_distance(s1, s2, testset)
    assert abs(d.value - math.log(2)) < 1e-12
    for row in d.rows:
        assert row.lo_diff == 0.0 and row.hi_diff == 0.0


def test_stab_distance_shift(a2_reps, z_std):
    s1 = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    s2, _ = gl_act(s1, GLtildeElement.shift())
    d = stab_distance(s1, s2, testset)
    assert d.value == 1.0
    sl = slicing_distance(s1, s2, testset)
    assert sl.value == 1.0
    assert not containment_check(s1, s2, Fraction(1, 2), testset).ok


def test_stab_pseudometric_random(a2_reps):
    rng = random.Random(504)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P")]
    for _ in range(15):
        za, zb, zc = (random_charge(rng, 2) for _ in range(3))
        sa, sb, sc = handle(za), handle(zb), handle(zc)
        dab = stab_distance(sa, sb, testset).value
        dba = stab_distance(sb, sa, testset).value
        assert abs(dab - dba) < 1e-9
        dac = stab_distance(sa, sc, testset).value
        dcb = stab_distance(sc, sb, testset).value
        assert dab <= dac + dcb + 1e-9


def test_semistable_set_invariance_random(a2_reps, z_std):
    rng = random.Random(505)
    checked = 0
    names = ("S1", "S2", "P", "SS")
    sigma = handle(z_std)
    while checked < 25:
        g = random_element(rng)
        sigma2, _ = gl_act(sigma, g)
        if not sigma2.heart_compatible:
            continue
        Z2 = sigma2.as_central_charge()
        for name in names:
            assert is_semistable(a2_reps[name], Z2).verdict == is_semistable(a2_reps[name], z_std).verdict
        checked += 1


def test_find_walls_fixture():
    path = ChargePath(charge((-1, 1), (0, 1)), charge((1, 1), (0, 1)))
    report = find_walls(path, [((0, 1), (1, 1))])
    assert len(report.events) == 1
    assert report.events[0].t_exact == Fraction(1, 2)
    samples = chamber_samples(report.events)
    assert samples == [Fraction(1, 4), Fraction(3, 4)]


def test_find_walls_constant_path_no_walls(z_std):
    path = ChargePath(z_std, z_std)
    report = find_walls(path, [((0, 1), (1, 1))])
    assert report.events == ()
    assert report.degenerate_pairs == ()


def test_find_walls_degenerate_pair():
    # charges keep the two classes aligned for every t
    path = ChargePath(charge((0, 1), (0, 1)), charge((0, 2), (0, 2)))
    report = find_walls(path, [((1, 0), (0, 1))])
    assert report.events == ()
    assert report.degenerate_pairs == (((1, 0), (0, 1)),)


def test_find_walls_proportional_rejected(z_std):
    path = ChargePath(z_std, z_std)
    with pytest.raises(ProportionalPairError):
        find_walls(path, [((1, 1), (2, 2))])
    with pytest.raises(ProportionalPairError):
        find_walls(path, [((0, 0), (1, 0))])


def test_find_walls_quadratic_root():
    path = ChargePath(charge((-1, 1), (0, 1)), charge((1, 1), (1, 2)))
    report = find_walls(path, [((1, 0), (0, 1))])
    assert len(report.events) == 1
    t = report.events[0].t_exact
    assert isinstance(t, QuadScalar) and t.d == 2
    assert abs(report.events[0].t_float - math.sqrt(0.5)) < 1e-12
    samples = chamber_samples(report.events)
    assert len(samples) == 2
    assert samples[0] < Fraction(70711, 100000) < samples[1]
    # the tracked pair strictly reorders across the wall
    from stabkit.exactnum import cross, sign_of

    signs = []
    for s in samples:
        Zs = path.at(s)
        signs.append(sign_of(cross(Zs.of((1, 0)), Zs.of((0, 1)))))
    assert signs in ([1, -1], [-1, 1])


def test_solve_alignment_cases():
    assert solve_alignment(Fraction(0), Fraction(0), Fraction(0)) is None
    assert solve_alignment(Fraction(1), Fraction(0), Fraction(0)) == []
    assert solve_alignment(Fraction(-1), Fraction(2), Fraction(0)) == [Fraction(1, 2)]
    roots = solve_alignment(Fraction(-1), Fraction(0), Fraction(2))
    assert len(roots) == 2 and all(isinstance(r, QuadScalar) for r in roots)


def test_path_requires_rational_charges():
    irr = CentralCharge((
        ExactComplex(Fraction(0), QuadScalar(Fraction(0), Fraction(1), 2)),
        ExactComplex(Fraction(-1), Fraction(1)),
    ))
    with pytest.raises(StabkitError):
        ChargePath(irr, irr)


def test_validate_axioms_pass(a2_reps, z_std):
    sigma = handle(z_std)
    testset = [fc0(a2_reps[n]) for n in ("S1", "S2", "P", "SS")]
    testset.append(FormalComplex(((1, a2_reps["S1"]), (0, a2_reps["S2"]))))
    report = validate_axioms(sigma, testset, labels=["S1", "S2", "P", "SS", "mix"])
    assert report.ok
    axioms = {c.axiom for c in report.checks}
    assert axioms == {"a", "b", "c", "d"}


def test_axiom_a_negative_control(z_std):
    # a deliberately corrupted phase label is caught by the axiom (a) predicate
    z = z_std.values[0]
    good = PhaseKey(0, z)
    assert charge_matches_key(z, good)
    corrupted = PhaseKey(0, ec(1, 1))
    assert not charge_matches_key(z, corrupted)
    assert charge_matches_key(-z, good.shift(1))
    assert not charge_matches_key(-z, good)


def test_axiom_b_on_shifted_pair(a2_reps, z_std):
    sigma = handle(z_std)
    m = fc0(a2_reps["P"])
    testset = [m, m.shifted(1)]
    report = validate_axioms(sigma, testset, labels=["P", "P[1]"])
    assert report.ok
    k0 = sigma.semistable_phase(m)
    k1 = sigma.semistable_phase(m.shifted(1))
    assert k1 == k0.shift(1)


def test_identity_relabel_keeps_exact_scalar_types():
    # a direction with a rational real part and an irrational imaginary part
    p = PhaseKey(0, ExactComplex(Fraction(1), QuadScalar(Fraction(0), Fraction(1), 2)))
    assert GLtildeElement.identity().relabel(p) is p
    moved = GLtildeElement.identity().anchored(p)
    assert moved == p and isinstance(moved.dir.re, QuadScalar)


def test_decompose_relabels_through_the_handle(a2_reps, z_flip):
    sigma = handle(z_flip)
    shifted, _ = gl_act(sigma, GLtildeElement.shift())
    fc = fc0(a2_reps["P"])
    plain = hn_decompose(fc, sigma)
    moved = hn_decompose(fc, shifted)
    assert [f.factor.dims for f in moved] == [f.factor.dims for f in plain]
    assert [m.key.cmp(p.key.shift(1)) for m, p in zip(moved, plain)] == [0, 0]
