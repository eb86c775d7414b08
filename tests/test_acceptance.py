"""Acceptance suite: one test per criterion, each printing a PASS line
(run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria are property- and oracle-based at desk scale; tolerances are
pinned here and nowhere else.  Criteria 1, 2, 4 and 5 quantify over the
same seeded 500-instance family (three quivers, F2/F3, total dimension
at most 6, rational charges with denominators at most 16).
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from stabkit.ellcurve import MAT_STD, NumClass, NumericalCharge, classify, modular_reduce
from stabkit.errors import HypothesisViolatedError
from stabkit.exactnum import ExactComplex, QuadScalar, normalize_direction
from stabkit.quivrep import hom_dim
from stabkit.slicing import slicing_distance
from stabkit.stability import (
    CentralCharge,
    check_discreteness,
    hn_filtration_max_sub,
    hn_filtration_mdq,
    is_semistable,
    mass,
    phase,
)
from stabkit.stabspace import (
    ChargePath,
    GLtildeElement,
    StabilityConditionHandle,
    chamber_samples,
    deform,
    find_walls,
    gl_act,
    mat2,
    mat2_det,
    mul_sequential,
    stab_distance,
)

from support import (
    A2,
    F2,
    charge,
    charge_of_element,
    ec,
    heart_charge,
    instance_stream,
    labelled,
    members,
    random_charge,
    semistable_phase,
    simple_rep,
)

TOL_MASS = 2.0 ** -30
TOL_LOG = 1e-12

FUZZ_SEED = 1001
FUZZ_COUNT = 500


@lru_cache(maxsize=1)
def fuzz_instances():
    return instance_stream(seed=FUZZ_SEED, count=FUZZ_COUNT)


@lru_cache(maxsize=1)
def fuzz_filtrations():
    """Filtration pairs for the shared family (computed once)."""
    out = []
    for quiver, r, Z in fuzz_instances():
        out.append((quiver, r, Z, hn_filtration_max_sub(r, Z), hn_filtration_mdq(r, Z)))
    return out


def _ok(name, detail=""):
    print(f"ACCEPTANCE {name}: PASS {detail}")


def test_c1_hn_oracle_equivalence():
    t0 = time.monotonic()
    for quiver, r, Z, f1, f2 in fuzz_filtrations():
        assert f1.same_chain(f2), (r.dims, [str(v) for v in Z.values])
        for p, q in zip(f1.phases, f1.phases[1:]):
            assert p.cmp(q) > 0
        total = Z.of(r.dims)
        acc = ExactComplex(Fraction(0), Fraction(0))
        for f in f1.factors:
            acc = acc + Z.of(f.dims)
        assert acc == total
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 120s budget"
    _ok("1 (filtration oracle equivalence)", f"{FUZZ_COUNT} instances in {elapsed:.1f}s")


def _direct_exhaustive_verdict(r, Z):
    """Inline exhaustive phase scan (shares the enumerator, not the
    certificate code path)."""
    from stabkit.quivrep import enumerate_submodules

    own = phase(r.dims, Z)
    for sub in members(enumerate_submodules(r)):
        if sub.is_zero or sub.is_full:
            continue
        if phase(sub.dims, Z).cmp(own) > 0:
            return "unstable"
    return "semistable"


def _second_opinion_semistable(r, Z):
    """Exhaustive verdict through the independently coded span-closure
    enumerator; raw Fraction cross products, no PhaseKey machinery."""
    from support import submodule_sets_bruteforce

    p = r.field.p

    def z_of(dims):
        re = sum((Z.values[i].re * d for i, d in enumerate(dims)), Fraction(0))
        im = sum((Z.values[i].im * d for i, d in enumerate(dims)), Fraction(0))
        return re, im

    def set_dims(space_sets):
        out = []
        for s in space_sets:
            size = len(s)
            d = 0
            while size > 1:
                size //= p
                d += 1
            out.append(d)
        return tuple(out)

    own = z_of(r.dims)
    for tup in submodule_sets_bruteforce(r):
        dims = set_dims(tup)
        if sum(dims) == 0 or dims == r.dims:
            continue
        zb = z_of(dims)
        if own[0] * zb[1] - own[1] * zb[0] > 0:  # arg(sub) > arg(rep)
            return "unstable"
    return "semistable"


def test_c2_semistability_soundness():
    # every shared instance: certificate vs a direct exhaustive scan
    for quiver, r, Z in fuzz_instances():
        assert is_semistable(r, Z).verdict == _direct_exhaustive_verdict(r, Z)
    # and an independently coded enumerator on 100 further instances
    second = 0
    for quiver, r, Z in instance_stream(seed=1002, count=100, max_total=5, max_per_vertex=3):
        mine = is_semistable(r, Z).verdict
        theirs = _second_opinion_semistable(r, Z)
        assert mine == theirs, (r.dims, mine, theirs)
        second += 1
    assert second == 100
    _ok("2 (semistability soundness)",
        f"{FUZZ_COUNT} exhaustive scans + {second} independent-enumerator instances")


def test_c3_a2_wall_fixture(a2_reps):
    path = ChargePath(charge((-1, 1), (0, 1)), charge((1, 1), (0, 1)))
    report = find_walls(path, [((0, 1), (1, 1))])
    assert len(report.events) == 1
    assert report.events[0].t_exact == Fraction(1, 2)
    assert chamber_samples(report.events) == [Fraction(1, 4), Fraction(3, 4)]
    before = is_semistable(a2_reps["P"], path.at(Fraction(1, 4)))
    after = is_semistable(a2_reps["P"], path.at(Fraction(3, 4)))
    assert before.verdict == "semistable" and after.verdict == "unstable"
    _ok("3 (wall fixture)", "single wall at t=1/2, verdict flips across 1/4 and 3/4")


def test_c4_hom_vanishing():
    violations = 0
    pairs_checked = 0
    for quiver, r, Z, f1, _f2 in fuzz_filtrations():
        semistables = [
            (simple_rep(quiver, r.field, v),
             phase(tuple(1 if i == v - 1 else 0 for i in range(quiver.n)), Z))
            for v in range(1, quiver.n + 1)
        ]
        for f, p in zip(f1.factors, f1.phases):
            semistables.append((f, p))
        for m1, p1 in semistables:
            for m2, p2 in semistables:
                if p1.cmp(p2) > 0:
                    pairs_checked += 1
                    if hom_dim(m1, m2) != 0:
                        violations += 1
    assert violations == 0
    assert pairs_checked > 1000
    _ok("4 (hom vanishing)", f"{pairs_checked} ordered semistable pairs, zero violations")


def test_c5_mass_inequality():
    for quiver, r, Z, f1, _f2 in fuzz_filtrations():
        m = mass([Z.of(f.dims) for f in f1.factors])
        z_abs = math.sqrt(float(Z.of(r.dims).abs_squared()))
        assert m.value >= z_abs - TOL_MASS
        if f1.length == 1:
            assert abs(m.value - z_abs) <= TOL_MASS
        else:
            assert m.value - z_abs > TOL_MASS
    _ok("5 (mass inequality)", f"{FUZZ_COUNT} instances, equality exactly on length-1 chains")


def _perturb(rng, Z, scale):
    values = []
    for z in Z.values:
        dre = Fraction(rng.randint(-8, 8), 64) * scale
        dim_ = Fraction(rng.randint(-8, 8), 64) * scale
        values.append(ExactComplex(z.re + dre, z.im + dim_))
    return tuple(values)


def test_c6_deformation_shadow(a2_reps):
    fixtures = [charge((-1, 1), (1, 1)), charge((Fraction(-1, 2), 1), (Fraction(1, 3), 2))]
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    total = 0
    for Z in fixtures:
        sigma = StabilityConditionHandle(A2, F2, Z)
        for eps in (Fraction(1, 20), Fraction(1, 10)):
            rng = random.Random(1006 + int(eps * 1000))
            done = 0
            while done < 50:
                w = _perturb(rng, Z, Fraction(1, 1))
                while True:
                    try:
                        tau, report = deform(sigma, CentralCharge(w), eps, testset)
                        break
                    except HypothesisViolatedError:
                        w = tuple(
                            z + (wz - z).scale(Fraction(1, 4))
                            for z, wz in zip(Z.values, w)
                        )
                assert report.distance < float(eps)
                done += 1
                total += 1
    assert total == 200
    _ok("6 (deformation shadow)", "200 verified perturbations, d(testset) < eps throughout")


def _random_element(rng):
    while True:
        T = mat2(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        )
        if mat2_det(T) > 0:
            return GLtildeElement(T, rng.randint(-2, 2))


def test_c7_plane_action_laws(a2_reps, z_std):
    rng = random.Random(1007)
    sigma = StabilityConditionHandle(A2, F2, z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    reps = ("S1", "S2", "P", "SS")
    pairs_done = 0
    attempts = 0
    while pairs_done < 100:
        attempts += 1
        assert attempts < 20000
        g1, g2 = _random_element(rng), _random_element(rng)
        mid, _ = gl_act(sigma, g2, testset)
        if heart_charge(mid) is None:
            continue
        seq, rel_seq = gl_act(mid, g1, testset)
        cmp_handle, rel_cmp = gl_act(sigma, mul_sequential(g2, g1), testset)
        assert seq.charge2d() == cmp_handle.charge2d()
        assert seq.g.T == cmp_handle.g.T and seq.g.m == cmp_handle.g.m
        assert rel_seq == rel_cmp
        Zmid = heart_charge(mid)
        for name in reps:
            assert is_semistable(a2_reps[name], Zmid).verdict == \
                is_semistable(a2_reps[name], z_std).verdict
        if heart_charge(seq) is not None:
            Zseq = heart_charge(seq)
            for name in reps:
                assert is_semistable(a2_reps[name], Zseq).verdict == \
                    is_semistable(a2_reps[name], z_std).verdict
        pairs_done += 1
    shifted, rel = gl_act(sigma, GLtildeElement.shift(), testset)
    objects = dict(testset)
    for label, key in rel:
        assert key == semistable_phase(sigma, objects[label]).shift(1)
    _ok("7 (plane action laws)", f"100 pairs ({attempts} sampled), shift offsets exact")


def test_c8_metric_fixtures(a2_reps, z_std):
    s1 = StabilityConditionHandle(A2, F2, z_std)
    testset = labelled(a2_reps, ("S1", "S2", "P"))
    s2, _ = gl_act(s1, GLtildeElement(mat2(2, 0, 0, 2), 0))
    d = stab_distance(s1, s2, testset)
    assert abs(d.value - math.log(2)) < TOL_LOG
    s3, _ = gl_act(s1, GLtildeElement.shift())
    sl = slicing_distance(s1, s3, testset)
    assert sl.value == 1.0
    _ok("8 (metric fixtures)", "scaling gives log 2 within 1e-12, shift gives exactly 1")


def test_c9_discreteness():
    rng = random.Random(1009)
    for _ in range(25):
        assert check_discreteness(random_charge(rng, rng.randint(1, 3))).verdict == "discrete"
    z_irr = CentralCharge((
        ExactComplex(Fraction(0), Fraction(1)),
        ExactComplex(Fraction(0), QuadScalar(Fraction(0), Fraction(1), 2)),
    ))
    assert check_discreteness(z_irr).verdict == "non_discrete"
    _ok("9 (discreteness)", "rational charges discrete, sqrt(2)-skewed charge dense")


def test_c10_elliptic_round_trip():
    rng = random.Random(1010)
    done = 0
    while done < 100:
        T = mat2(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        if mat2_det(T) <= 0:
            continue
        g = classify(charge_of_element(GLtildeElement(T, 0)))  # canonical branch
        back = classify(charge_of_element(g))
        assert back.T == g.T and back.m == g.m
        red = modular_reduce(g)
        assert abs(red.tau.re) <= Fraction(1, 2)
        assert red.tau.abs_squared() >= 1
        det = red.gamma[0][0] * red.gamma[1][1] - red.gamma[0][1] * red.gamma[1][0]
        assert det == 1
        done += 1
    sky = NumericalCharge(MAT_STD).of(NumClass(0, 1))
    assert sky == ec(-1, 0)
    assert normalize_direction(sky).float_value() == 1.0
    _ok("10 (elliptic round trip)", "100 round trips, fundamental domain and det(gamma)=1 exact")
