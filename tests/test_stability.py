import functools
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from stabkit.errors import (
    InvariantViolation,
    StabilityFunctionError,
    UnsupportedScalarError,
    UnsupportedVerdictError,
    ZeroClassError,
    ZeroObjectError,
)
from stabkit import linalg
from stabkit.exactnum import ExactComplex, PhaseKey, QuadScalar
from stabkit.quivrep import (
    DEFAULT_CAP,
    Submodule,
    dim_sub,
    direct_sum,
    enumerate_submodules,
    full_submodule,
    zero_submodule,
)
from stabkit.stability import (
    CentralCharge,
    HNFiltration,
    _check_factors_semistable,
    check_discreteness,
    hn_filtration_max_sub,
    hn_filtration_mdq,
    is_semistable,
    mass,
    phase,
)

from support import A2, A3, F2, F3, KRONECKER, Q, all_ses, charge, ec, instance_stream, members, rep, zero_rep


def test_phase_examples(z_std):
    zi = charge((0, 1), (0, 1))
    p = phase((1, 0), zi)
    assert p.k == 0 and abs(p.float_value() - 0.5) < 1e-12
    p2 = phase((1, 1), z_std)
    assert p2 == PhaseKey(0, ec(0, 2))
    boundary = charge((0, 1), (-1, 0))
    p3 = phase((0, 1), boundary)
    assert p3.float_value() == 1.0


def test_phase_zero_class_error():
    zi = charge((0, 1), (0, 1))
    with pytest.raises(ZeroClassError):
        phase((1, -1), zi)


def test_phase_memo_is_held_by_the_charge():
    Z = charge((1, 1), (-1, 2))
    twin = charge((1, 1), (-1, 2))
    before = (repr(Z), hash(Z))
    p = phase((1, 2), Z)
    assert phase((1, 2), Z) is p and phase([1, 2], Z) is p
    fresh = phase((1, 2), twin)
    assert fresh is not p and fresh.cmp(p) == 0 and fresh.dir == p.dir
    # the memo is outside ==, hash, repr and the public fields
    assert Z == twin and (repr(Z), hash(Z)) == before == (repr(twin), hash(twin))
    assert [name for name in CentralCharge.__slots__ if not name.startswith("_")] == ["values"]
    assert repr(Z) == f"CentralCharge(values={Z.values!r})" and Z.__reduce__() == (CentralCharge, (Z.values,))
    zi = charge((0, 1), (0, 1))
    for _ in range(3):  # a vanishing class raises on every call and is never stored
        with pytest.raises(ZeroClassError, match="vanishes"):
            phase((1, -1), zi)
        with pytest.raises(ZeroClassError, match="length"):
            phase((1, 1, 1), zi)
    assert (1, -1) not in zi._phases and phase((1, 0), zi).k == 0


def test_semistable_examples(a2_reps, z_std, z_flip):
    assert is_semistable(a2_reps["S1"], z_std).is_semistable
    assert is_semistable(a2_reps["S2"], z_flip).is_semistable
    assert is_semistable(a2_reps["P"], z_std).is_semistable
    cert = is_semistable(a2_reps["P"], z_flip)
    assert cert.verdict == "unstable"
    assert cert.witness.dims == (0, 1)
    assert abs(cert.witness_phase.float_value() - 0.75) < 1e-12
    assert abs(cert.object_phase.float_value() - 0.5) < 1e-12


def test_hn_semistable_is_single_step(a2_reps, z_std):
    filt = hn_filtration_max_sub(a2_reps["P"], z_std)
    assert filt.length == 1
    assert filt.factors[0].dims == (1, 1)
    filt2 = hn_filtration_mdq(a2_reps["P"], z_std)
    assert filt.same_chain(filt2)


def test_hn_flip_example(a2_reps, z_flip):
    for algo in (hn_filtration_max_sub, hn_filtration_mdq):
        filt = algo(a2_reps["P"], z_flip)
        assert [f.dims for f in filt.factors] == [(0, 1), (1, 0)]
        assert [round(p.float_value(), 6) for p in filt.phases] == [0.75, 0.25]
        assert [s.dims for s in filt.chain] == [(0, 0), (0, 1), (1, 1)]


def test_hn_direct_sum_example(a2_reps, z_flip):
    filt = hn_filtration_max_sub(a2_reps["SS"], z_flip)
    assert [f.dims for f in filt.factors] == [(0, 1), (1, 0)]
    assert filt.same_chain(hn_filtration_mdq(a2_reps["SS"], z_flip))


def test_one_enumeration_per_route(monkeypatch):
    # every step is a query over the lattice of the whole representation
    from stabkit import quivrep

    real = quivrep.enumerate_submodules
    calls = []

    def counting(r, cap=quivrep.DEFAULT_CAP):
        calls.append(r.dims)
        return real(r, cap)

    monkeypatch.setattr(quivrep, "enumerate_submodules", counting)
    r = rep(A3, F3, (1, 2, 1), {"a": [[1], [2]]})
    Z = charge((1, 1), (0, 1), (-1, 1))
    filts = []
    for algo in (hn_filtration_max_sub, hn_filtration_mdq):
        calls.clear()
        filts.append(algo(r, Z, validate=False))
        assert calls == [r.dims]
    assert filts[0].length >= 3
    assert filts[0].same_chain(filts[1])


def test_factor_check_rejects_unstable_factor(a2_reps, z_flip):
    # 0 < P is a chain with one factor, P itself, which S2 destabilises
    P = a2_reps["P"]
    filt = HNFiltration(P, (zero_submodule(P), full_submodule(P)), (P,), (phase(P.dims, z_flip),))
    assert not is_semistable(P, z_flip).is_semistable
    with pytest.raises(InvariantViolation, match="^a filtration factor is not semistable$"):
        _check_factors_semistable(filt, z_flip, DEFAULT_CAP)


def test_hn_zero_rep_rejected(z_std):
    with pytest.raises(ZeroObjectError):
        hn_filtration_mdq(zero_rep(A2, F2), z_std)
    with pytest.raises(ZeroObjectError):
        hn_filtration_max_sub(zero_rep(A2, F2), z_std)


def test_mass_examples(a2_reps, z_std, z_flip):
    filt = hn_filtration_max_sub(a2_reps["P"], z_std)
    m = mass([z_std.of(f.dims) for f in filt.factors])
    assert abs(m.value - 2.0) < 1e-12  # |Z(P)| = |2i|
    filt2 = hn_filtration_max_sub(a2_reps["P"], z_flip)
    m2 = mass([z_flip.of(f.dims) for f in filt2.factors])
    assert abs(m2.value - 2 * math.sqrt(2)) < 1e-12
    assert m2.value > 2.0  # strict triangle inequality for a length-2 chain
    assert m2.error_bound <= 2.0 ** -40
    # doubling a semistable doubles the mass
    ss2 = direct_sum(a2_reps["S1"], a2_reps["S1"])
    filt3 = hn_filtration_max_sub(ss2, z_std)
    m3 = mass([z_std.of(f.dims) for f in filt3.factors])
    assert abs(m3.value - 2 * math.sqrt(2)) < 1e-12


def test_discreteness_examples():
    assert check_discreteness(charge((-1, 1), (1, 1))).verdict == "discrete"
    z_irr = CentralCharge((
        ExactComplex(Fraction(0), Fraction(1)),
        ExactComplex(Fraction(0), QuadScalar(Fraction(0), Fraction(1), 2)),
    ))
    rep_irr = check_discreteness(z_irr)
    assert rep_irr.verdict == "non_discrete"
    assert rep_irr.z_rank == 2 and rep_irr.real_span_dim == 1
    assert check_discreteness(charge((0, 1), (1, 1))).verdict == "discrete"


def test_discreteness_rank3_dense_in_plane():
    z = CentralCharge((
        ExactComplex(Fraction(0), Fraction(1)),
        ExactComplex(Fraction(0), QuadScalar(Fraction(0), Fraction(1), 2)),
        ExactComplex(Fraction(-1), Fraction(1)),
    ))
    assert check_discreteness(z).verdict == "non_discrete"


def test_see_saw_on_instances():
    for _, r, Z in instance_stream(seed=31, count=40, max_total=5, max_per_vertex=3):
        own = phase(r.dims, Z)
        for sub, quot in all_ses(r):
            a = phase(sub.dims, Z)
            b = phase(quot.dims, Z)
            signs = (a.cmp(own), own.cmp(b))
            assert signs in {(-1, -1), (0, 0), (1, 1)}, (sub.dims, r.dims)


def test_rational_route_semistable(a2_reps):
    # P over Q: the would-be violator (1,0) is rigid and not invariant
    p_q = rep(A2, Q, (1, 1), {"a": [[1]]})
    cert = is_semistable(p_q, charge((-1, 1), (1, 1)))
    assert cert.is_semistable
    cert2 = is_semistable(p_q, charge((1, 1), (-1, 1)))
    assert cert2.verdict == "unstable" and cert2.witness.dims == (0, 1)


def test_library_refusals_by_class_and_message():
    with pytest.raises(StabilityFunctionError, match="^charge needs at least one value$"):
        CentralCharge(())
    r2, r3 = QuadScalar(0, 1, 2), QuadScalar(1, 1, 3)
    with pytest.raises(UnsupportedScalarError, match=r"^charge mixes quadratic extensions \[2, 3\]$"):
        CentralCharge((ExactComplex(r2, Fraction(1)), ExactComplex(Fraction(0), r3)))
    with pytest.raises(ZeroObjectError, match="^semistability is undefined for the zero representation$"):
        is_semistable(zero_rep(A2, F2), charge((-1, 1), (1, 1)))


def test_rational_route_refusal():
    # phase((1,1)) > phase((1,2)) but the only rigid violator (1,0) is not
    # invariant, so the verdict would need a quiver-Grassmannian argument
    r = rep(A2, Q, (1, 2), {"a": [["1"], ["0"]]})
    with pytest.raises(UnsupportedVerdictError, match="partial component"):
        is_semistable(r, charge((-1, 1), (0, 1)))


def test_hn_uniqueness_assertion_guard():
    # phases with a forced tie between two distinct maximal submodules of
    # equal dimension cannot arise from a genuine charge; simulate the
    # guard by checking the exception type exists and is exit-code 3
    assert InvariantViolation("x").exit_code == 3


def test_z_additivity_and_descending_on_instances():
    checked = 0
    for _, r, Z in instance_stream(seed=32, count=30, max_total=5, max_per_vertex=3):
        filt = hn_filtration_max_sub(r, Z)
        total = Z.of(r.dims)
        acc = ExactComplex(Fraction(0), Fraction(0))
        for f in filt.factors:
            acc = acc + Z.of(f.dims)
        assert acc == total
        for p, q in zip(filt.phases, filt.phases[1:]):
            assert p.cmp(q) > 0
        checked += 1
    assert checked == 30


# --- reference: the per-submodule phase scans the class-level ones replace ---


def _reference_certificate(r, Z):
    own = phase(r.dims, Z)
    for sub in members(enumerate_submodules(r)):
        if sub.is_zero or sub.is_full:
            continue
        ph = phase(sub.dims, Z)
        if ph.cmp(own) > 0:
            return "unstable", sub, ph, own
    return "semistable", None, None, own


def _reference_max_sub(r, Z, ties):
    subs = members(enumerate_submodules(r))
    class_phase = functools.cache(lambda beta: phase(beta, Z))
    chain = [zero_submodule(r)]
    phases = []
    while not chain[-1].is_full:
        A = chain[-1]
        above = [(class_phase(dim_sub(C.dims, A.dims)), C)
                 for C in subs if C.total_dim > A.total_dim and C.contains(A)]
        best = max(ph for ph, _ in above)
        tied = [C for ph, C in above if ph == best]
        ties.append(len({C.dims for C in tied}) > 1)
        maxdim = max(C.total_dim for C in tied)
        top = [C for C in tied if C.total_dim == maxdim]
        if len(top) != 1:
            raise InvariantViolation(
                "maximal-phase subobject of maximal dimension is not unique; "
                f"{len(top)} candidates of dimension {maxdim - A.total_dim}"
            )
        chain.append(top[0])
        phases.append(best)
    return chain, phases


def _reference_mdq(r, Z, ties):
    subs = members(enumerate_submodules(r))
    class_phase = functools.cache(lambda beta: phase(beta, Z))
    chain_desc = [full_submodule(r)]
    phases_rev = []
    while not chain_desc[-1].is_zero:
        current = chain_desc[-1]
        kernels = [(class_phase(dim_sub(current.dims, K.dims)), K)
                   for K in subs if K.total_dim < current.total_dim and current.contains(K)]
        best = min(ph for ph, _ in kernels)
        tied = [K for ph, K in kernels if ph == best]
        ties.append(len({K.dims for K in tied}) > 1)
        K = min(tied, key=lambda s: (s.total_dim, s.dims, s.rows))
        for other in tied:
            if not other.contains(K):
                raise InvariantViolation(
                    "no maximally destabilising quotient: phase-minimal quotients do not factor through a common one"
                )
        phases_rev.append(class_phase(dim_sub(current.dims, K.dims)))
        chain_desc.append(K)
    return chain_desc[::-1], phases_rev[::-1]


def _same_phase(p, q):
    # equal as phases, and the same class chosen: the directions agree
    return p is None and q is None or (p.cmp(q) == 0 and (p.k, p.dir.re, p.dir.im) == (q.k, q.dir.re, q.dir.im))


def _outcome(fn):
    try:
        return fn()
    except InvariantViolation as exc:
        return str(exc)


def test_class_level_scans_match_per_submodule_reference():
    # charges drawn from a few values, several of them parallel, so phase
    # classes tie at the extremum and the first extremal class matters
    pool = ((1, 1), (2, 2), (3, 3), (-1, 1), (-2, 2), (0, 1), (0, 2))
    rng = random.Random(4242)
    ties = []
    steps = 0
    for _, r, _Z in instance_stream(seed=4243, count=150, max_total=5, max_per_vertex=3):
        Z = charge(*(pool[rng.randrange(len(pool))] for _ in range(r.quiver.n)))
        verdict, witness, wph, own = _reference_certificate(r, Z)
        cert = is_semistable(r, Z)
        assert cert.verdict == verdict
        assert (cert.witness is None) == (witness is None)
        if witness is not None:
            assert cert.witness.rows == witness.rows
        assert _same_phase(cert.witness_phase, wph) and _same_phase(cert.object_phase, own)
        for reference, algo in ((_reference_max_sub, hn_filtration_max_sub), (_reference_mdq, hn_filtration_mdq)):
            want = _outcome(lambda: reference(r, Z, ties))
            got = _outcome(lambda: algo(r, Z, validate=False))
            if isinstance(want, str):
                assert got == want
                continue
            chain, phases = want
            assert [s.rows for s in got.chain] == [s.rows for s in chain]
            assert len(got.phases) == len(phases)
            assert all(_same_phase(p, q) for p, q in zip(got.phases, phases))
            steps += len(phases)
    assert steps > 300
    assert sum(ties) > 50  # steps whose extremal phase several classes attain


def _invertible(rng, p, k):
    while True:
        m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        if linalg.rank(linalg.PrimeField(p), m) == k:
            return m


def _witness_families():
    """(rep, charge) on three families: the fuzz stream over F2 and F3,
    semisimple representations with aligned charges, and chain-style
    representations (invertible maps along every arrow, so each is a sum
    of copies of the projective at vertex 1) with a violating class."""
    stream = [(r, Z) for _, r, Z in instance_stream(seed=1515, count=120, max_total=5, max_per_vertex=3)]
    rng = random.Random(1516)
    aligned = []
    for quiver, dims in ((A2, (0, 3)), (A2, (3, 0)), (A2, (2, 2)), (A3, (1, 0, 2)), (A3, (2, 1, 1)),
                         (KRONECKER, (1, 2)), (KRONECKER, (2, 2))):
        for field in (F2, F3):
            re, im = rng.randint(-3, 3), rng.randint(1, 3)
            Z = charge(*((re * c, im * c) for c in (rng.randint(1, 4) for _ in range(quiver.n))))
            aligned.append((rep(quiver, field, dims), Z))
    chains = []
    for quiver, k in ((A2, 1), (A2, 2), (A2, 3), (A3, 1), (A3, 2)):
        for field in (F2, F3):
            maps = {a.name: _invertible(rng, field.p, k) for a in quiver.arrows}
            # the simple at the last vertex, a submodule, has the largest phase
            Z = charge(*[(1, 1), (0, 1), (-1, 1)][-quiver.n:])
            chains.append((rep(quiver, field, (k,) * quiver.n, maps), Z))
    return stream, aligned, chains


def test_witness_is_the_first_violating_member_in_canonical_order():
    stream, aligned, chains = _witness_families()
    verdicts = {}
    for family, cases in (("stream", stream), ("aligned", aligned), ("chain", chains)):
        for r, Z in cases:
            verdict, witness, wph, own = _reference_certificate(r, Z)
            cert = is_semistable(r, Z)
            assert cert.verdict == verdict
            assert cert.witness == witness
            if witness is not None:
                assert cert.witness.rows == witness.rows and cert.witness.pivots == witness.pivots
            assert _same_phase(cert.witness_phase, wph) and _same_phase(cert.object_phase, own)
            verdicts.setdefault(family, []).append(verdict)
    assert set(verdicts["aligned"]) == {"semistable"}
    assert set(verdicts["chain"]) == {"unstable"}
    assert 20 < verdicts["stream"].count("unstable") < len(stream) - 20


def test_verdicts_build_only_the_witness(monkeypatch):
    from stabkit import quivrep

    real, built = quivrep._member, []

    def counting(*args):
        built.append(args[1])
        return real(*args)

    monkeypatch.setattr(quivrep, "_member", counting)
    _, aligned, chains = _witness_families()
    for (r, Z), want in ((aligned[2], "semistable"), (chains[4], "unstable")):
        quivrep._lattice.cache_clear()
        built.clear()
        cert = is_semistable(r, Z)
        witness = [] if cert.witness is None else [cert.witness.rows]
        assert cert.verdict == want and len(witness) == (want == "unstable") and built == witness
        lattice = enumerate_submodules(r)
        assert len(lattice) > 4 and built == witness  # counting builds nothing
        assert lattice.member(-1) == lattice.member(len(lattice) - 1) and lattice.member(-1).is_full


def test_routes_build_only_what_they_choose(monkeypatch):
    # P1 + S2^4 over F3, with P1 the projective at vertex 1: 2,876 members.
    # The max-sub chain is 0 < P1 < r; the first MDQ step ties every kernel
    # whose quotient is a sum of copies of S2, 211 of them.
    from stabkit import quivrep

    r = rep(A2, F3, (1, 5), {"a": [[1], [0], [0], [0], [0]]})
    Z = charge((-1, 1), (1, 1))
    subs = members(enumerate_submodules(r))
    real, built = quivrep._member, []

    def counting(*args):
        built.append(args[1])
        return real(*args)

    monkeypatch.setattr(quivrep, "_member", counting)
    filt = hn_filtration_max_sub(r, Z, validate=False)
    assert len(subs) > 2000 and [s.dims for s in filt.chain] == [(0, 0), (1, 1), (1, 5)]
    assert built == [s.rows for s in filt.chain]
    built.clear()
    desc = hn_filtration_mdq(r, Z, validate=False).chain[::-1]
    tied = [[K.rows for K in subs if K.total_dim < cur.total_dim and cur.contains(K)
             and phase(dim_sub(cur.dims, K.dims), Z) == phase(dim_sub(cur.dims, nxt.dims), Z)]
            for cur, nxt in zip(desc, desc[1:])]
    assert [len(t) for t in tied] == [211, 1] and all(nxt.rows in t for nxt, t in zip(desc[1:], tied))
    assert built == [s.rows for s in desc]  # its chain only: the tied kernels are tested from rows


def test_mdq_refuses_tied_kernels_without_a_common_one(monkeypatch):
    # Phases rigged so that SS/S1 and SS/S2 tie below SS itself: the two
    # tied kernels share the least total dimension and neither contains the
    # other, so the minimal-phase route must refuse rather than pick one.
    from stabkit import stability

    low, high = PhaseKey(0, ec(1, 1)), PhaseKey(0, ec(0, 1))
    monkeypatch.setattr(stability, "phase", lambda beta, Z: high if tuple(beta) == (1, 1) else low)
    with pytest.raises(InvariantViolation, match="no maximally destabilising quotient"):
        hn_filtration_mdq(rep(A2, F2, (1, 1)), charge((-1, 1), (1, 1)), validate=False)


def test_max_sub_refuses_a_tied_maximal_subobject(monkeypatch):
    # Phases rigged so that S1 and S2 both beat SS = S1 + S2: two
    # maximal-phase subobjects of dimension 1, so the route must refuse.
    from stabkit import stability

    low, high = PhaseKey(0, ec(1, 1)), PhaseKey(0, ec(0, 1))
    monkeypatch.setattr(stability, "phase", lambda beta, Z: low if tuple(beta) == (1, 1) else high)
    with pytest.raises(InvariantViolation, match="^maximal-phase subobject of maximal dimension is not unique; "
                                                 "2 candidates of dimension 1$"):
        hn_filtration_max_sub(rep(A2, F2, (1, 1)), charge((-1, 1), (1, 1)), validate=False)


def test_filtration_refuses_a_broken_chain():
    # direct construction, one invariant broken at a time: SS = S1 + S2 with
    # the chain 0 < S2 < SS and the factors S2, S1 is a filtration
    SS = rep(A2, F2, (1, 1))
    S1, S2 = rep(A2, F2, (1, 0)), rep(A2, F2, (0, 1))
    sub = {s.dims: s for s in members(enumerate_submodules(SS))}
    zero, s1, s2, full = sub[0, 0], sub[1, 0], sub[0, 1], sub[1, 1]
    low, high = PhaseKey(0, ec(1, 1)), PhaseKey(0, ec(0, 1))
    for chain, factors, phases, message in (
            ((zero, s2, full), (S2, S1), (low, high), "filtration phases are not strictly descending"),
            ((zero, s2, full), (S2, S1), (high, high), "filtration phases are not strictly descending"),
            ((zero, s2, full), (S2, S2), (high, low), "factor dimension vectors do not sum to the total"),
            ((s2, s1), (S2, S1), (high, low), "filtration chain is not ascending")):
        with pytest.raises(InvariantViolation, match=f"^{message}$"):
            HNFiltration(SS, chain, factors, phases)
    assert HNFiltration(SS, (zero, s2, full), (S2, S1), (high, low)).length == 2


# --- reference: the separate rational certificate the merged one replaces ---


def _reference_rational_certificate(rep, Z):
    own = phase(rep.dims, Z)
    F = rep.field
    undecidable = None
    for beta in product(*[range(d + 1) for d in rep.dims]):
        if not any(beta) or beta == rep.dims:
            continue
        if phase(beta, Z).cmp(own) <= 0:
            continue
        if any(0 < b < d for b, d in zip(beta, rep.dims)):
            if undecidable is None:
                undecidable = beta
            continue
        S = {v for v in range(rep.quiver.n) if beta[v] > 0}
        invariant = True
        for idx, a in enumerate(rep.quiver.arrows):
            if (a.src - 1) in S and (a.tgt - 1) not in S:
                if any(x != F.zero for row in rep.maps[idx] for x in row):
                    invariant = False
                    break
        if not invariant:
            continue
        rows = tuple(
            linalg.identity_matrix(F, rep.dims[v]) if v in S else tuple()
            for v in range(rep.quiver.n)
        )
        pivots = tuple(
            tuple(range(rep.dims[v])) if v in S else tuple()
            for v in range(rep.quiver.n)
        )
        sub = Submodule(rep, rows, pivots)
        return "unstable", sub, phase(beta, Z), own
    if undecidable is not None:
        raise UnsupportedVerdictError(
            "no finite semistability certificate over Q: the destabilizing candidate "
            f"dimension vector {undecidable} has a partial component and cannot be decided at desk scale"
        )
    return "semistable", None, None, own


def _certificate_outcome(fn):
    try:
        return fn()
    except UnsupportedVerdictError as exc:
        return type(exc), str(exc)


def test_rational_certificate_matches_reference():
    # about 40 % of the arrows are zero, so rigid violators are often
    # realized; charges come from a few values, so phases often tie
    pool = ((1, 1), (2, 2), (-1, 1), (-2, 1), (0, 1), (1, 2), (-1, 2))
    rng = random.Random(5151)
    outcomes = {"semistable": 0, "unstable": 0, "refused": 0}
    for _ in range(600):
        quiver = rng.choice((A2, A3, KRONECKER))
        while True:
            dims = tuple(rng.randint(0, 3) for _ in range(quiver.n))
            if 0 < sum(dims) <= 6:
                break
        maps = {}
        for a in quiver.arrows:
            if rng.random() >= 0.4:
                maps[a.name] = [[rng.choice((0, 1, -1, 2, "1/2")) for _ in range(dims[a.src - 1])]
                                for _ in range(dims[a.tgt - 1])]
        r = rep(quiver, Q, dims, maps)
        Z = charge(*(rng.choice(pool) for _ in range(quiver.n)))
        want = _certificate_outcome(lambda: _reference_rational_certificate(r, Z))
        got = _certificate_outcome(lambda: is_semistable(r, Z))
        if isinstance(want[0], type):
            assert got == want
            outcomes["refused"] += 1
            continue
        verdict, witness, wph, own = want
        assert got.verdict == verdict
        assert (got.witness is None) == (witness is None)
        if witness is not None:
            assert got.witness.rows == witness.rows and got.witness.pivots == witness.pivots
        assert _same_phase(got.witness_phase, wph) and _same_phase(got.object_phase, own)
        outcomes[verdict] += 1
    assert min(outcomes.values()) > 50, outcomes
