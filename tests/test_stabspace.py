import math
import random
import signal
from fractions import Fraction

import pytest

from stabkit.errors import (
    FieldMismatchError,
    HypothesisViolatedError,
    InvariantViolation,
    OrientationError,
    ProportionalPairError,
    StabilityFunctionError,
    StabkitError,
    ZeroObjectError,
)
from stabkit.exactnum import (
    EC_I,
    ExactComplex,
    PhaseKey,
    QuadScalar,
    normalize_direction,
    phase_key_anchor,
    root_bounds,
)
from stabkit.slicing import FormalComplex, hn_decompose, slicing_distance
from stabkit.stability import CentralCharge, is_semistable
from stabkit.stabspace import (
    ChargePath,
    GLtildeElement,
    StabilityConditionHandle,
    WallEvent,
    chamber_samples,
    charge_matches_key,
    cmp_roots,
    deform,
    find_walls,
    gl_act,
    invert,
    mat2,
    mat2_det,
    mat2_inv,
    mul_sequential,
    sin_pi_eps_bounds,
    solve_alignment,
    stab_distance,
    validate_axioms,
)

from support import A2, F2, F3, charge, ec, heart_charge, labelled, random_charge, semistable_phase


def fc0(r):
    return FormalComplex.of_module(r)


def handle(Z):
    return StabilityConditionHandle(A2, F2, Z)


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
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    sigma2, relabeled = gl_act(sigma, GLtildeElement(mat2(2, 0, 0, 2), 0), testset)
    assert sigma2.charge2d() == tuple(z.scale(Fraction(1, 2)) for z in z_std.values)
    assert heart_charge(sigma2) is not None
    assert [label for label, _ in relabeled] == ["S1", "S2", "P"]
    for (_, key), (_, want) in zip(relabeled, testset):
        assert key == semistable_phase(sigma, want)
    # verdicts computed directly from the transformed charge agree
    Z2 = heart_charge(sigma2)
    for name in ("S1", "S2", "P"):
        assert is_semistable(a2_reps[name], Z2).verdict == is_semistable(a2_reps[name], z_std).verdict


def test_shift_action_axiom_b(a2_reps, z_std):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    sigma2, relabeled = gl_act(sigma, GLtildeElement.shift(), testset)
    assert sigma2.charge2d() == tuple(-z for z in z_std.values)
    assert heart_charge(sigma2) is None
    objects = dict(testset)
    for label, key in relabeled:
        assert key == semistable_phase(sigma, objects[label]).shift(1)


def test_rotation_twice_equals_composition(a2_reps, z_std):
    rot = GLtildeElement(mat2(0, -1, 1, 0), 0)
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    once, _ = gl_act(sigma, rot, testset)
    twice, rel_seq = gl_act(once, rot, testset)
    combined, rel_comp = gl_act(sigma, mul_sequential(rot, rot), testset)
    assert twice.charge2d() == combined.charge2d()
    assert twice.g.T == combined.g.T and twice.g.m == combined.g.m
    assert rel_seq == rel_comp


def test_product_examples():
    g = GLtildeElement(mat2(3, 1, 0, 2), 1)
    ident = GLtildeElement.identity()
    assert mul_sequential(g, ident) == g
    assert mul_sequential(ident, g) == g
    ss = mul_sequential(GLtildeElement.shift(), GLtildeElement.shift())
    assert ss.T == mat2(1, 0, 0, 1) and ss.m == 1
    rot = GLtildeElement(mat2(0, -1, 1, 0), 0)
    assert mul_sequential(rot, invert(rot)).is_identity
    assert mul_sequential(invert(rot), rot).is_identity


def test_product_associative_and_invertible_random():
    rng = random.Random(501)
    for _ in range(60):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        a = mul_sequential(mul_sequential(g3, g2), g1)
        b = mul_sequential(g3, mul_sequential(g2, g1))
        assert a.T == b.T and a.m == b.m
        for g in (g1, g2, g3):
            assert mul_sequential(g, invert(g)).is_identity
            assert mul_sequential(invert(g), g).is_identity


def test_product_relabels_sequentially_on_axis_aligned_elements():
    """mul_sequential(g1, g2) relabels as g1 and then g2 for +-I, the quarter
    turns, 2I and the four unit shears on branches -1, 0 and 1, which put
    reference directions on the axes, on phases along the axes and the
    diagonals with k from -2 to 2: 29,160 relabelings."""
    mats = [mat2(1, 0, 0, 1), mat2(-1, 0, 0, -1), mat2(0, -1, 1, 0), mat2(0, 1, -1, 0), mat2(2, 0, 0, 2),
            mat2(1, 1, 0, 1), mat2(1, -1, 0, 1), mat2(1, 0, 1, 1), mat2(1, 0, -1, 1)]
    elements = [GLtildeElement(T, m) for T in mats for m in (-1, 0, 1)]
    phases = [normalize_direction(ec(x, y)).shift(k) for x in (-1, 0, 1) for y in (-1, 0, 1) if (x, y) != (0, 0)
              for k in range(-2, 3)]
    # images and products recur, so each distinct relabeling runs once
    images, slot = [], {}

    def slot_of(q):
        key = (q.k, q.dir.re, q.dir.im)
        if key not in slot:
            slot[key] = len(images)
            images.append(q)
        return slot[key]

    first = [[slot_of(g1.relabel(p)) for p in phases] for g1 in elements]
    second = [[g2.relabel(q) for q in images] for g2 in elements]
    products = {}
    checked = 0
    for a, g1 in enumerate(elements):
        for b, g2 in enumerate(elements):
            g = mul_sequential(g1, g2)
            if (g.T, g.m) not in products:
                products[g.T, g.m] = [g.relabel(p) for p in phases]
            for j, p in enumerate(phases):
                assert products[g.T, g.m][j] == second[b][first[a][j]], (g1, g2, p)
                checked += 1
    assert checked == 29160


def test_anchored_inverts_the_matrix_once(monkeypatch):
    from stabkit import stabspace

    real, calls = stabspace.mat2_inv, []

    def counting(T):
        calls.append(T)
        return real(T)

    T = mat2(2, 1, -1, 3)
    phases = [normalize_direction(ec(x, y)).shift(k) for x, y in ((1, 2), (-3, 1), (0, 1)) for k in (-1, 0, 2)]
    expected = [GLtildeElement(T, 1).anchored(p) for p in phases]
    monkeypatch.setattr(stabspace, "mat2_inv", counting)
    g = GLtildeElement(T, 1)
    assert calls == [T]  # the constructor inverts once
    calls.clear()
    for p, want in zip(phases, expected):
        assert g.anchored(p) == want
    t_inv = real(T)
    assert g.anchor_key() == phase_key_anchor(stabspace.mat2_apply(t_inv, EC_I), 1)
    assert g.transform_charge(ec(3, 2)) == stabspace.mat2_apply(t_inv, ec(3, 2))
    assert calls == []  # the element's queries read the stored inverse
    # the stored inverse and anchor stay out of the value: pickling carries (T, m) only
    assert g.__reduce__() == (GLtildeElement, (T, 1))


def test_action_composition_compatibility_random(a2_reps, z_std):
    rng = random.Random(502)
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    for _ in range(40):
        g1, g2 = random_element(rng), random_element(rng)
        s_seq, rel_seq = gl_act(*gl_act(sigma, g2, testset)[:1], g1, testset)
        s_cmp, rel_cmp = gl_act(sigma, mul_sequential(g2, g1), testset)
        assert s_seq.charge2d() == s_cmp.charge2d()
        assert s_seq.g.T == s_cmp.g.T and s_seq.g.m == s_cmp.g.m
        assert rel_seq == rel_cmp


def test_relabel_monotone_random():
    rng = random.Random(503)
    for _ in range(40):
        g = random_element(rng)
        keys = []
        for _ in range(6):
            re, im = rng.randint(-5, 5), rng.randint(-5, 5)
            if (re, im) == (0, 0):
                continue
            keys.append(normalize_direction(ec(re, im)).shift(rng.randint(-2, 2)))
        for p in keys:
            for q in keys:
                c_before = p.cmp(q)
                c_after = g.relabel(p).cmp(g.relabel(q))
                assert c_before == c_after


def test_deform_margin_examples(a2_reps, z_std):
    # each semistable object's margin is sin(pi eps)|Z(E)| - |W(E) - Z(E)|
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    eps, sin, r2 = Fraction(1, 10), math.sin(math.pi / 10), math.sqrt(2)
    # with sqrt(2) parts, |Z(E)|^2 is a QuadScalar: 5 + 2 sqrt(2) on S2 and 9 + 2 sqrt(2) on P
    Zq = CentralCharge((ec(-1, 1), ExactComplex(QuadScalar(0, 1, 2), QuadScalar(1, 1, 2))))
    cases = (
        (z_std, z_std, [sin * r2, sin * r2, 2 * sin]),
        (z_std, charge((-1, 1), (1, Fraction(11, 10))), [sin * r2, sin * r2 - 0.1, 2 * sin - 0.1]),
        (Zq, Zq, [sin * r2, sin * math.sqrt(5 + 2 * r2), sin * math.sqrt(9 + 2 * r2)]),
    )
    for Z, W, want in cases:
        report = deform(handle(Z), W, eps, testset)[1]
        assert [r.label for r in report.hypothesis] == ["S1", "S2", "P"]
        assert all(abs(r.margin - m) < 1e-12 for r, m in zip(report.hypothesis, want))
    # W = 2Z moves every charge by |Z| itself, far beyond sin(pi eps)|Z|
    twice = CentralCharge(tuple(z.scale(2) for z in z_std.values))
    refused(HypothesisViolatedError, "deformation hypothesis fails on S1: |W-Z| exceeds sin(pi*eps)|Z|",
            deform, handle(z_std), twice, eps, testset)


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


def test_sin_bounds_are_memoised_per_eps():
    first = sin_pi_eps_bounds(Fraction(1, 10))
    assert sin_pi_eps_bounds(Fraction(2, 20)) is first
    assert sin_pi_eps_bounds.__wrapped__(Fraction(1, 10)) == first  # the memo keeps the exact values
    size = sin_pi_eps_bounds.cache_info().currsize
    for eps in (Fraction(0), Fraction(1, 8)) * 2:  # a refusal is raised on every call
        with pytest.raises(StabkitError, match=rf"^epsilon must lie in \(0, 1/8\), got {eps}$"):
            sin_pi_eps_bounds(eps)
    assert sin_pi_eps_bounds.cache_info().currsize == size


def test_deform_identity(a2_reps, z_std):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    tau, report = deform(sigma, z_std, Fraction(1, 10), testset)
    assert report.distance == 0.0
    assert tau.charge == z_std


def test_deform_fixture(a2_reps, z_std):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    w = charge((-1, 1), (1, Fraction(11, 10)))
    tau, report = deform(sigma, w, Fraction(1, 10), testset)
    assert report.distance < 0.1
    assert all(r.margin > 0 for r in report.hypothesis)
    assert tau.charge == w


def test_deform_across_wall(a2_reps):
    # crossing the alignment of S2 and P within bounds: the filtration of
    # P changes while every phase drift stays below eps
    z = charge((Fraction(-1, 10), 1), (0, 1))
    w = charge((Fraction(1, 10), 1), (0, 1))
    sigma = StabilityConditionHandle(A2, F2, z)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    assert is_semistable(a2_reps["P"], z).is_semistable
    assert not is_semistable(a2_reps["P"], w).is_semistable
    tau, report = deform(sigma, w, Fraction(1, 10), testset)
    assert report.distance < 0.1


def test_deform_hypothesis_violation(a2_reps, z_std):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    w = charge((-1, 1), (1, 3))
    with pytest.raises(HypothesisViolatedError, match="S2"):
        deform(sigma, w, Fraction(1, 20), testset)


def test_deform_heart_change_rejected(a2_reps, z_std):
    # the perturbed charge is a CentralCharge: its constructor is the one half-plane check
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1",))
    bad = (ec(-1, 1), ec(1, -1))
    message = r"^charge value 2 = \(1 \+ -1i\) is outside the strict upper half-plane$"
    with pytest.raises(StabilityFunctionError, match=message):
        deform(sigma, CentralCharge(bad), Fraction(1, 10), testset)
    from stabkit import errors

    assert not hasattr(errors, "HeartChangeUnsupportedError")  # deform keeps no second check


def test_deform_eps_range(a2_reps, z_std):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1",))
    with pytest.raises(StabkitError):
        deform(sigma, z_std, Fraction(1, 4), testset)


def test_deform_reuses_the_memo_of_the_charge_it_is_given(a2_reps, monkeypatch):
    from stabkit import stability

    real, calls = stability.hn_filtration_max_sub, []

    def counting(rep, Z, *args, **kwargs):
        calls.append(Z)
        return real(rep, Z, *args, **kwargs)

    z, w = charge((-1, 1), (1, 1)), charge((-1, 1), (1, Fraction(11, 10)))
    sigma = handle(z)
    testset = labelled(a2_reps, ("S1", "S2", "P", "SS", "P"))
    monkeypatch.setattr(stability, "hn_filtration_max_sub", counting)
    tau, report = deform(sigma, w, Fraction(1, 10), testset)
    assert tau.charge is w
    assert sum(Z is w for Z in calls) == 4  # one filtration per distinct object, kept in w's memo
    calls.clear()
    assert deform(sigma, w, Fraction(1, 10), testset) == (tau, report)
    assert calls == []  # tau's side reads the memo the first call filled


def test_deform_refuses_a_margin_inside_the_rounding_band(a2_reps, z_std, monkeypatch):
    from stabkit import stabspace

    testset = labelled(a2_reps, ("S1", "S2", "P"))
    w = charge((-1, 1), (1, Fraction(11, 10)))
    # a bracket [0, 1] on sin(pi*eps) puts every |W - Z| < |Z| inside the band
    monkeypatch.setattr(stabspace, "sin_pi_eps_bounds", lambda eps: (Fraction(0), Fraction(1)))
    message = r"^deformation hypothesis is within the certified rounding band on S1; rejected conservatively$"
    with pytest.raises(HypothesisViolatedError, match=message):
        deform(handle(z_std), w, Fraction(1, 10), testset)


def test_deform_conclusion_gate_exits_3_on_a_wrong_tau(a2_reps, z_std, z_flip, monkeypatch):
    # planted defect: the deformed handle is built over a charge other than the checked W
    from stabkit import stabspace

    real = stabspace.StabilityConditionHandle
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    monkeypatch.setattr(stabspace, "StabilityConditionHandle", lambda quiver, field, W: real(quiver, field, z_flip))
    message = r"^deformation conclusion failed: testset slicing distance 0\.5 is not below eps 1/10$"
    with pytest.raises(InvariantViolation, match=message) as exc:
        deform(sigma, charge((-1, 1), (1, Fraction(11, 10))), Fraction(1, 10), testset)
    assert exc.value.exit_code == 3


def test_gl_act_decomposes_each_object_once(a2_reps, z_std, monkeypatch):
    from stabkit import slicing

    real, calls = slicing.hn_decompose, []

    def counting(fc, S, cap):
        calls.append(fc)
        return real(fc, S, cap)

    testset = labelled(a2_reps, ("S1", "S2", "P", "SS", "S1"))
    testset.append(("S1[1]", fc0(a2_reps["S1"]).shifted(1)))
    sigma, _ = gl_act(handle(z_std), GLtildeElement(mat2(2, 1, -1, 3), 1))
    g = GLtildeElement(mat2(1, -2, 1, 1), -1)
    sigma2 = StabilityConditionHandle(A2, F2, z_std, mul_sequential(sigma.g, g))
    expected = [(label, semistable_phase(sigma2, fc)) for label, fc in testset
                if semistable_phase(sigma, fc) is not None]
    assert [label for label, _ in expected] == ["S1", "S2", "P", "S1", "S1[1]"]  # SS is not semistable
    monkeypatch.setattr(slicing, "hn_decompose", counting)
    assert gl_act(sigma, g, testset) == (sigma2, expected)
    assert calls == [fc for _, fc in testset]


def test_stab_distance_identity_and_scaling(a2_reps, z_std):
    s1 = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    assert stab_distance(s1, s1, testset).value == 0.0
    s2, _ = gl_act(s1, GLtildeElement(mat2(2, 0, 0, 2), 0))
    d = stab_distance(s1, s2, testset)
    assert abs(d.value - math.log(2)) < 1e-12
    for row in d.rows:
        assert row.lo_diff == 0.0 and row.hi_diff == 0.0


def test_stab_distance_shift(a2_reps, z_std):
    s1 = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    s2, _ = gl_act(s1, GLtildeElement.shift())
    d = stab_distance(s1, s2, testset)
    assert d.value == 1.0
    sl = slicing_distance(s1, s2, testset)
    assert sl.value == 1.0


def test_stab_pseudometric_random(a2_reps):
    rng = random.Random(504)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    for _ in range(15):
        za, zb, zc = (random_charge(rng, 2) for _ in range(3))
        sa, sb, sc = handle(za), handle(zb), handle(zc)
        dab = stab_distance(sa, sb, testset).value
        dba = stab_distance(sb, sa, testset).value
        assert abs(dab - dba) < 1e-9
        dac = stab_distance(sa, sc, testset).value
        dcb = stab_distance(sc, sb, testset).value
        assert dab <= dac + dcb + 1e-9


def test_distances_refuse_conditions_over_different_hearts(a2_reps, z_std):
    testset = labelled(a2_reps, ("S1", "P"))
    over_f3 = StabilityConditionHandle(A2, F3, z_std)
    for distance in (slicing_distance, stab_distance):
        for s1, s2 in ((handle(z_std), over_f3), (over_f3, handle(z_std))):
            with pytest.raises(FieldMismatchError):
                distance(s1, s2, testset)


def test_semistable_set_invariance_random(a2_reps, z_std):
    rng = random.Random(505)
    checked = 0
    names = ("S1", "S2", "P", "SS")
    sigma = handle(z_std)
    while checked < 25:
        g = random_element(rng)
        sigma2, _ = gl_act(sigma, g)
        if heart_charge(sigma2) is None:
            continue
        Z2 = heart_charge(sigma2)
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


def test_find_walls_reads_each_class_charge_once_per_call(monkeypatch):
    real, calls = ChargePath.of_class, []

    def counting(self, alpha):
        calls.append(alpha)
        return real(self, alpha)

    path = ChargePath(charge((-1, 1), (1, 1), (1, 1)), charge((2, 1), (-1, 1), (2, 1)))
    # auto pairs repeat the total class in every pair
    pairs = [(beta, (1, 1, 1)) for beta in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1))]
    pairs.append(((1, 0, 0), (0, 1, 0)))
    expected = find_walls(path, pairs)
    monkeypatch.setattr(ChargePath, "of_class", counting)
    for _ in range(2):  # the memo is local to the call
        calls.clear()
        assert find_walls(path, pairs) == expected
        assert sorted(calls) == sorted({c for pair in pairs for c in pair})
    assert len(expected.events) == 4


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
    assert solve_alignment(Fraction(1), Fraction(-2), Fraction(1)) == [Fraction(1)]  # a double root


def test_double_root_is_one_wall():
    # Z_t(1,0) and Z_t(0,1) touch along i at t = 1/2 without crossing
    path = ChargePath(charge((-2, 1), (-2, 2)), charge((2, 2), (2, 1)))
    report = find_walls(path, [((1, 0), (0, 1))])
    assert [e.t_exact for e in report.events] == [Fraction(1, 2)]
    assert chamber_samples(report.events) == [Fraction(1, 4), Fraction(3, 4)]


def test_chamber_samples_refine_walls_closer_than_the_first_precision():
    wall = QuadScalar(0, Fraction(1, 2), 2)
    near = Fraction(math.isqrt(2 << 140), 1 << 71)  # sqrt(2)/2 rounded down to a multiple of 2**-71
    lo, hi = root_bounds(wall, 60)
    assert lo < near < hi and cmp_roots(near, wall) < 0  # distinct, but not apart at 60 bits
    samples = chamber_samples((WallEvent(near, (1, 0), (0, 1)), WallEvent(wall, (1, 0), (1, 1))))
    assert len(samples) == 3
    assert cmp_roots(near, samples[1]) < 0 < cmp_roots(wall, samples[1])


def test_chamber_samples_refuse_descending_events():
    # the two roots have one float, so float order keeps them as given: descending
    wall = QuadScalar(0, Fraction(1, 2), 2)
    near = Fraction(math.isqrt(2 << 140), 1 << 71)
    events = sorted((WallEvent(wall, (1, 0), (1, 1)), WallEvent(near, (1, 0), (0, 1))), key=lambda e: e.t_float)
    assert [e.t_exact for e in events] == [wall, near]

    def too_slow(signum, frame):
        raise TimeoutError("chamber_samples ran past 1 s")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(StabkitError, match="^chamber samples need events in ascending order of t$"):
            chamber_samples(tuple(events))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    ascending = tuple(events[::-1])
    samples = chamber_samples(ascending)
    assert chamber_samples(ascending + ascending[-1:]) == samples  # equal events are one wall
    assert cmp_roots(samples[0], near) < 0 < cmp_roots(samples[1], near)
    assert cmp_roots(samples[1], wall) < 0 < cmp_roots(samples[2], wall)


def refused(cls, message, fn, *args):
    with pytest.raises(cls) as info:
        fn(*args)
    assert (type(info.value), str(info.value)) == (cls, message)


def test_refusals_of_the_stability_space_operations(a2_reps, z_std, z_flip):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    refused(OrientationError, "matrix is singular", mat2_inv, mat2(1, 2, 2, 4))
    acted, _ = gl_act(sigma, GLtildeElement(mat2(2, 0, 0, 2), 0), testset)
    refused(StabkitError, "deform expects an unacted handle; apply the plane action afterwards",
            deform, acted, z_flip.values, Fraction(1, 10), testset)
    refused(ZeroObjectError, "deform needs a nonempty testset", deform, sigma, z_flip.values, Fraction(1, 10), [])
    refused(ZeroObjectError, "stability-space distance needs a nonempty testset",
            stab_distance, sigma, handle(z_flip), [])
    refused(StabkitError, "path endpoints have different lengths", ChargePath, z_std, charge((0, 1)))


WRONG_LENGTH = ((charge((-1, 1), (1, 1), (0, 1)), "charge has length 3, quiver has 2 vertices"),
                (charge((0, 1)), "charge has length 1, quiver has 2 vertices"))


def test_handle_refuses_a_charge_of_the_wrong_length():
    for Z, message in WRONG_LENGTH:
        refused(FieldMismatchError, message, StabilityConditionHandle, A2, F2, Z)


def test_deform_refuses_a_charge_of_the_wrong_length(a2_reps, z_std):
    # the deformed handle is built before the hypothesis loop, so its constructor refuses first
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    for W, message in WRONG_LENGTH:
        refused(FieldMismatchError, message, deform, handle(z_std), W, Fraction(1, 10), testset)


def nonzero_fraction(rng, top):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, top))


def test_cmp_roots_across_extensions_matches_enclosures():
    rng = random.Random(7002)
    square_free = [d for d in range(2, 600) if all(d % (k * k) for k in range(2, 25))]
    near = 0
    for i in range(600):
        m, n = rng.sample(square_free, 2)
        x = QuadScalar(Fraction(rng.randint(-40, 40), rng.randint(1, 40)), nonzero_fraction(rng, 40), m)
        e = nonzero_fraction(rng, 40)
        if i % 2:
            c = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        else:
            # c = x - e*sqrt(n) rounded to a multiple of 2**-k, so |x - y| is about 2**-k
            k = rng.randint(10, 200)
            approx = root_bounds(x, k + 20)[0] - root_bounds(QuadScalar(0, e, n), k + 20)[0]
            c = Fraction(round(approx * 2 ** k), 2 ** k)
        y = QuadScalar(c, e, n)
        if i % 10 == 1:
            x = QuadScalar(c, 0, m)  # rational x with the same rational part as y
        (xl, xh), (yl, yh) = root_bounds(x, 2000), root_bounds(y, 2000)
        assert xh < yl or yh < xl
        near += abs(xl - yl) < Fraction(1, 2 ** 20)
        want = -1 if xh < yl else 1
        assert cmp_roots(x, y) == want
        assert cmp_roots(y, x) == -cmp_roots(x, y) != 0
    assert near >= 250


def test_path_requires_rational_charges():
    irr = CentralCharge((
        ExactComplex(Fraction(0), QuadScalar(Fraction(0), Fraction(1), 2)),
        ExactComplex(Fraction(-1), Fraction(1)),
    ))
    with pytest.raises(StabkitError):
        ChargePath(irr, irr)


def test_validate_axioms_pass(a2_reps, z_std):
    sigma = handle(z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P", "SS"))
    testset.append(("mix", FormalComplex(((1, a2_reps["S1"]), (0, a2_reps["S2"])))))
    report = validate_axioms(sigma, testset)
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
    report = validate_axioms(sigma, [("P", m), ("P[1]", m.shifted(1))])
    assert report.ok
    k0 = semistable_phase(sigma, m)
    k1 = semistable_phase(sigma, m.shifted(1))
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
