import copy
import math
import random
import tracemalloc
from itertools import accumulate, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import linalg, quivrep
from stabkit.errors import CapExceededError, CycleError, FieldMismatchError, SchemaError, WrongFieldError
from stabkit.quivrep import (
    Arrow,
    Quiver,
    coordinate_submodule,
    dim_add,
    dim_sub,
    direct_sum,
    enumerate_submodules,
    euler_form,
    full_submodule,
    hom_dim,
    sub_dims,
    subquotient,
    zero_submodule,
)

from support import (
    A2,
    A3,
    BACKWARD_QUIVERS,
    F2,
    F3,
    KRONECKER,
    Q,
    all_ses,
    ext1_dim,
    instance_stream,
    members,
    random_rep,
    rep,
    simple_rep,
    submodule_as_sets,
    submodule_sets_bruteforce,
    whole_space_submodule_counts,
    zero_rep,
)


def test_acyclicity_enforced():
    with pytest.raises(CycleError, match="cycle"):
        Quiver(2, (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    with pytest.raises(CycleError):
        Quiver(1, (Arrow("loop", 1, 1),))


def test_p_submodules(a2_reps):
    subs = members(enumerate_submodules(a2_reps["P"]))
    assert [s.dims for s in subs] == [(0, 0), (0, 1), (1, 1)]
    # (1, 0) is not arrow-invariant for P
    assert (1, 0) not in {s.dims for s in subs}


def test_zero_and_simple_submodules():
    assert [s.dims for s in members(enumerate_submodules(zero_rep(A2, F2)))] == [(0, 0)]
    s1 = simple_rep(A2, F2, 1)
    assert [s.dims for s in members(enumerate_submodules(s1))] == [(0, 0), (1, 0)]


def test_quotient_examples(a2_reps):
    P = a2_reps["P"]
    sub_s2 = [s for s in members(enumerate_submodules(P)) if s.dims == (0, 1)][0]
    q = subquotient(P, sub_s2, full_submodule(P))
    assert q.dims == (1, 0)
    zero = [s for s in members(enumerate_submodules(P)) if s.is_zero][0]
    assert subquotient(P, zero, full_submodule(P)) == P
    full = [s for s in members(enumerate_submodules(P)) if s.is_full][0]
    assert subquotient(P, full, full_submodule(P)).is_zero


def test_hom_dim_examples(a2_reps):
    assert hom_dim(a2_reps["S1"], a2_reps["S2"]) == 0
    assert hom_dim(a2_reps["P"], a2_reps["P"]) == 1
    assert hom_dim(a2_reps["S2"], a2_reps["P"]) == 1
    # S2 is a sub, not a quotient, of P: no nonzero maps out of P into it
    assert hom_dim(a2_reps["P"], a2_reps["S2"]) == 0
    assert hom_dim(a2_reps["P"], a2_reps["S1"]) == 1


def test_hom_requires_same_context(a2_reps):
    other = rep(A2, F3, (1, 0))
    with pytest.raises(FieldMismatchError):
        hom_dim(a2_reps["S1"], other)


def test_library_refusals_by_class_and_message(a2_reps):
    P = a2_reps["P"]
    for alpha, beta in (((1,), (0, 1)), ((1, 0), (0, 1, 0))):
        with pytest.raises(SchemaError, match="^at /euler_form: dimension vectors must have length 2$"):
            euler_form(A2, alpha, beta)
    kronecker = rep(KRONECKER, F2, (1, 1))
    for combine in (direct_sum, hom_dim):
        with pytest.raises(FieldMismatchError, match="^representations live over different quivers$"):
            combine(P, kronecker)
    # a submodule of another representation, as the lower or the upper bound
    SS = a2_reps["SS"]
    for lower, upper in ((zero_submodule(SS), full_submodule(P)), (zero_submodule(P), full_submodule(SS))):
        with pytest.raises(FieldMismatchError, match="^submodule belongs to a different representation$"):
            subquotient(P, lower, upper)
    (s2,) = [s for s in members(enumerate_submodules(P)) if s.dims == (0, 1)]
    for lower, upper in ((full_submodule(P), s2), (s2, zero_submodule(P))):
        with pytest.raises(SchemaError, match="^at /submodule: the lower submodule is not contained in the upper one$"):
            subquotient(P, lower, upper)


def test_euler_form_examples():
    assert euler_form(A2, (1, 0), (0, 1)) == -1
    assert euler_form(A2, (3, 5), (0, 0)) == 0
    assert euler_form(A2, (0, 1), (1, 0)) == 0


def test_ext1_identity(a2_reps):
    # Ext^1(S1, S2) is one-dimensional on A2 (the nonsplit extension is P)
    assert ext1_dim(a2_reps["S1"], a2_reps["S2"]) == 1
    assert ext1_dim(a2_reps["S2"], a2_reps["S1"]) == 0


def test_all_ses_examples(a2_reps):
    ses = all_ses(a2_reps["P"])
    assert len(ses) == 1
    sub, quot = ses[0]
    assert sub.dims == (0, 1) and quot.dims == (1, 0)
    assert all_ses(a2_reps["S1"]) == []
    # direct sum with zero maps: both coordinate lines are invariant
    ses_ss = all_ses(a2_reps["SS"])
    assert sorted(s.dims for s, _ in ses_ss) == [(0, 1), (1, 0)]


def test_enumeration_cap_and_field():
    big = rep(A2, F2, (4, 3))
    with pytest.raises(CapExceededError, match="7"):
        enumerate_submodules(big)
    over_q = rep(A2, Q, (1, 1), {"a": [[1]]})
    with pytest.raises(WrongFieldError):
        enumerate_submodules(over_q)
    # the class scan shares the cap check and needs no finite field
    with pytest.raises(CapExceededError, match="^total dimension 7 exceeds the enumeration cap 6$"):
        sub_dims(big)
    assert sub_dims(over_q) == [(0, 1), (1, 0)]
    for r in (rep(A3, Q, (2, 0, 3)), rep(A3, F3, (1, 2, 1)), big):
        box = [beta for beta in product(*(range(d + 1) for d in r.dims)) if any(beta) and beta != r.dims]
        assert sub_dims(r, cap=7) == box


def test_coordinate_submodule_is_the_rigid_realization():
    P = rep(A2, F2, (1, 1), {"a": [[1]]})
    assert coordinate_submodule(P, (1, 0)) is None
    assert coordinate_submodule(P, (0, 1)).dims == (0, 1)
    assert coordinate_submodule(P, (0, 0)) == zero_submodule(P)
    assert coordinate_submodule(P, (1, 1)) == full_submodule(P)
    # a class whose components are all 0 or full has only the coordinate
    # subspace tuple, so it is realized exactly when the enumeration finds it
    checked = 0
    for _, r, _Z in instance_stream(seed=77, count=60, max_total=5, max_per_vertex=3):
        found = {s.dims: s for s in members(enumerate_submodules(r))}
        for beta in sub_dims(r):
            if all(b in (0, d) for b, d in zip(beta, r.dims)):
                sub = coordinate_submodule(r, beta)
                assert (sub is None) == (beta not in found)
                if sub is not None:
                    assert sub == found[beta] and sub.dims == beta
                    checked += 1
    assert checked > 40


def test_enumeration_deterministic(a2_reps):
    r = rep(A3, F3, (1, 2, 1), {"a": [[1], [2]], "b": [[1, 0]]})
    first = enumerate_submodules(r)
    one = [(s.dims, s.rows) for s in members(first)]
    quivrep._lattice.cache_clear()  # the second call builds the lattice again
    second = enumerate_submodules(r)
    assert second is not first
    two = [(s.dims, s.rows) for s in members(second)]
    assert one == two


def test_lattice_memo_is_keyed_on_equal_representations():
    r1 = rep(A3, F3, (1, 2, 1), {"a": [[1], [2]], "b": [[1, 0]]})
    r2 = rep(A3, F3, (1, 2, 1), {"a": [[1], [2]], "b": [[1, 0]]})
    assert r1 is not r2 and r1 == r2
    subs = enumerate_submodules(r1)
    assert enumerate_submodules(r2) is subs
    # the shared lattice refuses assignment and deletion, and its members
    # are Submodules whose dims are shared per class
    for attempt in (lambda: setattr(subs, "rep", r2), lambda: setattr(subs, "extra", None),
                    lambda: delattr(subs, "rep"), lambda: delattr(subs, "extra")):
        with pytest.raises(AttributeError, match="immutable"):
            attempt()
    assert not hasattr(subs, "__dict__")
    shared = {}
    for s in members(subs):
        assert type(s) is quivrep.Submodule and s.parent == r1
        assert s.dims is shared.setdefault(s.dims, s.dims)
    assert len(shared) < len(subs)
    # same dims and matrix entries over another field: another lattice
    other = rep(A3, F2, (1, 2, 1), {"a": [[1], [0]], "b": [[1, 0]]})
    same_entries = rep(A3, F3, (1, 2, 1), {"a": [[1], [0]], "b": [[1, 0]]})
    assert other.maps == same_entries.maps and hash(other) == hash(same_entries)
    assert len(enumerate_submodules(other)) != len(enumerate_submodules(same_entries))


def test_cap_check_runs_on_memo_hits():
    r = rep(A2, F2, (2, 2), {"a": [[1, 0], [0, 1]]})
    enumerate_submodules(r, cap=6)
    with pytest.raises(CapExceededError, match="total dimension 4 exceeds the enumeration cap 3"):
        enumerate_submodules(r, cap=3)
    assert len(enumerate_submodules(r, cap=4)) == len(enumerate_submodules(r, cap=6))


def test_lattice_stores_no_object_per_member():
    # with the subspace tables cached, an unconstrained lattice is its runs
    # and classes: a range of positions, no tuple or index per member
    r = rep(A2, linalg.field_by_name("F5"), (0, 5))
    for d in r.dims:
        linalg.subspaces(5, d)
    tracemalloc.start()
    try:
        lattice = quivrep.SubmoduleLattice(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lattice) == 42176 and peak <= 2 * len(lattice)
    assert lattice.member(-1).is_full and lattice.member(0).is_zero


def test_submodule_stores_shared_dims():
    r = rep(A3, F3, (1, 2, 1), {"a": [[1], [2]], "b": [[1, 0]]})
    subs = enumerate_submodules(r)
    coordinate = [coordinate_submodule(r, beta) for beta in [(0, 0, 0), (0, 0, 1), (1, 2, 1)]]
    first = {}
    for s in members(subs) + coordinate:
        assert type(s) is quivrep.Submodule
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError, match="immutable"):
            s.dims = (9, 9, 9)
        with pytest.raises(AttributeError, match="immutable"):
            del s.rows
        assert s.dims == tuple(len(rows) for rows in s.rows)
        assert s.total_dim == sum(s.dims)
        assert s.dims is first.setdefault(s.dims, s.dims)
    assert len(first) < len(subs)
    # the checked construction rebuilds an equal member; so does copying
    member = subs.member(len(subs) // 2)
    for again in (quivrep.Submodule(r, member.rows, member.pivots), copy.copy(member)):
        assert again == member and hash(again) == hash(member) and again.dims is member.dims
    with pytest.raises(SchemaError, match="not arrow-invariant"):
        quivrep.Submodule(r, ((), ((1, 0),), ()), ((), (0,), ()))


@pytest.mark.parametrize("quiver, dims", [(A2, (0, 3)), (A2, (1, 3)), (A3, (1, 1, 2)), (KRONECKER, (1, 2)),
                                         (A2, (3, 0)), (A3, (2, 0, 2)), (KRONECKER, (0, 2))])
@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
def test_member_loop_against_span_closure(quiver, dims, field):
    # shapes whose last vertex carries most of the dimension, so most
    # members come out of the flat loop over the last vertex; all-zero
    # maps (trial 0, and the first arrow in trial 4) and arrows with a
    # dimension-0 endpoint constrain nothing
    rng = random.Random(f"{dims}/{field}")
    index = [{rows: i for i, rows in enumerate(linalg.subspaces(field.p, d).rows)} for d in dims]
    for trial in range(5):
        maps = {a.name: [[rng.randrange(field.p) if trial else 0 for _ in range(dims[a.src - 1])]
                         for _ in range(dims[a.tgt - 1])] for a in quiver.arrows}
        if trial == 4:
            maps[quiver.arrows[0].name] = [[0] * dims[quiver.arrows[0].src - 1]] * dims[quiver.arrows[0].tgt - 1]
        r = rep(quiver, field, dims, maps)
        lattice = enumerate_submodules(r)
        subs = members(lattice)
        as_sets = [submodule_as_sets(s) for s in subs]
        assert len(set(as_sets)) == len(subs)
        assert set(as_sets) == submodule_sets_bruteforce(r)
        # canonical order: the product of the per-vertex lists, vertex 1 slowest
        positions = [tuple(index[v][s.rows[v]] for v in range(quiver.n)) for s in subs]
        assert positions == sorted(set(positions))
        if trial == 0:
            assert len(subs) == math.prod(len(linalg.subspaces(field.p, d)) for d in dims)
        # each class in order of first appearance, at its first member
        first = {}
        for i, s in enumerate(subs):
            first.setdefault(s.dims, i)
        assert list(lattice.classes()) == list(first.items())
        assert lattice.member(-1) == subs[-1] and subs[-1].is_full
        # the walk: each member strictly above or strictly inside a step, by index, one entry
        # per run (consecutive members with one pivots tuple) that has any, carrying its class
        run_of = list(accumulate((s.pivots != t.pivots for t, s in zip(subs, subs[1:])), initial=0))
        for step in subs:
            for above in (True, False):
                want = [(C.dims, C.total_dim, i) for i, C in enumerate(subs)
                        if (C.total_dim > step.total_dim and C.contains(step) if above
                            else C.total_dim < step.total_dim and step.contains(C))]
                runs = lattice.walk(step, above)
                assert [(beta, total, i) for beta, total, indices in runs for i in indices] == want
                assert len({run_of[indices[0]] for _, _, indices in runs}) == len(runs)
                for beta, total, indices in runs:
                    assert len({run_of[i] for i in indices}) == 1
                    assert all((subs[i].dims, subs[i].total_dim) == (beta, total) for i in indices)
                    if type(indices) is range:  # a run taken whole
                        assert list(indices) == [i for i in range(len(subs)) if run_of[i] == run_of[indices[0]]]


def test_against_independent_enumerator():
    rng = random.Random(20240811)
    for quiver, field in ((A2, F2), (A2, F3), (A3, F2), (KRONECKER, F3)):
        from support import random_rep

        r = random_rep(rng, quiver, field, max_total=4, max_per_vertex=2)
        fast = {submodule_as_sets(s) for s in members(enumerate_submodules(r))}
        slow = submodule_sets_bruteforce(r)
        assert fast == slow


def test_dims_additivity_on_instances():
    for _, r, _Z in instance_stream(seed=11, count=25, max_total=5, max_per_vertex=3):
        for sub, quot in all_ses(r):
            assert dim_add(sub.dims, quot.dims) == r.dims


def test_lattice_sanity_on_instances():
    for _, r, _Z in instance_stream(seed=12, count=15, max_total=5, max_per_vertex=3):
        subs = members(enumerate_submodules(r))
        dims = [s.dims for s in subs]
        assert (0,) * r.quiver.n in dims
        assert r.dims in dims
        # every enumerated tuple re-validates the invariance predicate
        for s in subs:
            from stabkit.quivrep import Submodule

            Submodule(r, s.rows, s.pivots)  # raises if not invariant


def test_subquotient_lattice_correspondence():
    # the submodules of B/A are the lattice members between A and B; the
    # span-closure oracle counts them on the row-reduced subquotient
    pairs = 0
    for _, r, _Z in instance_stream(seed=14, count=12, max_total=4, max_per_vertex=2):
        subs = members(enumerate_submodules(r))
        for A in subs:
            for B in subs:
                if not B.contains(A):
                    continue
                sq = subquotient(r, A, B)
                assert sq.dims == dim_sub(B.dims, A.dims)
                between = sum(1 for C in subs if C.contains(A) and B.contains(C))
                assert len(submodule_sets_bruteforce(sq)) == between
                pairs += 1
    assert pairs > 100


def test_hom_self_positive():
    for _, r, _Z in instance_stream(seed=13, count=15, max_total=5, max_per_vertex=3):
        assert hom_dim(r, r) >= 1


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6), st.integers(0, 6), st.integers(-3, 3))
@settings(max_examples=60)
def test_euler_bilinearity(a1, a2, b1, b2, c1, c2, lam):
    a, b, c = (a1, a2), (b1, b2), (c1, c2)
    lhs = euler_form(A2, a, dim_add(b, tuple(lam * x for x in c)))
    assert lhs == euler_form(A2, a, b) + lam * euler_form(A2, a, c)
    lhs2 = euler_form(A2, dim_add(a, tuple(lam * x for x in c)), b)
    assert lhs2 == euler_form(A2, a, b) + lam * euler_form(A2, c, b)


def test_direct_sum_shapes(a2_reps):
    s = direct_sum(a2_reps["P"], a2_reps["S2"])
    assert s.dims == (1, 2)
    assert hom_dim(s, s) >= 2


def test_direct_sum_is_block_diagonal_and_hom_is_additive():
    M = rep(A3, F3, (1, 1, 0), {"a": [[2]]})
    N = rep(A3, F3, (1, 2, 1), {"a": [[1], [0]], "b": [[1, 2]]})
    s = direct_sum(M, N)
    assert s.dims == (2, 3, 1)
    assert s.maps == (((2, 0), (0, 1), (0, 0)), ((0, 1, 2),))
    others = [simple_rep(A3, F3, v) for v in (1, 2, 3)] + [M, N, rep(A3, F3, (0, 1, 1), {"b": [[1]]})]
    for L in others:
        assert hom_dim(s, L) == hom_dim(M, L) + hom_dim(N, L)
        assert hom_dim(L, s) == hom_dim(L, M) + hom_dim(L, N)


def test_contains_rejects_larger_dims_before_span_tests(a2_reps, monkeypatch):
    P = a2_reps["P"]
    zero, full = zero_submodule(P), full_submodule(P)
    (s2,) = [s for s in members(enumerate_submodules(P)) if s.dims == (0, 1)]
    # partial at vertex 2, where its line holds the image of vertex 1
    r = rep(A2, F2, (1, 2), {"a": [[1], [0]]})
    (line,) = [s for s in members(enumerate_submodules(r)) if s.dims == (1, 1)]

    def no_span_test(*args):
        raise AssertionError("in_span called")

    monkeypatch.setattr(linalg, "in_span", no_span_test)
    assert not s2.contains(full)
    assert not zero.contains(s2)
    assert not zero.contains(full)
    # a vertex where the containing side is the whole space needs no span test
    assert full.contains(s2)
    with pytest.raises(AssertionError, match="in_span called"):
        line.contains(line)


@pytest.mark.parametrize("name", sorted(BACKWARD_QUIVERS))
def test_backward_arrows_against_span_closure(name):
    # an arrow into an earlier vertex is checked when its source is chosen
    quiver = BACKWARD_QUIVERS[name]
    rng = random.Random(name)
    for field in (F2, F3):
        for _ in range(6):
            r = random_rep(rng, quiver, field, max_total=4, max_per_vertex=2)
            lattice = enumerate_submodules(r)
            as_sets = [submodule_as_sets(s) for s in members(lattice)]
            assert len(set(as_sets)) == len(lattice)
            assert set(as_sets) == submodule_sets_bruteforce(r)


@pytest.mark.parametrize("quiver, field, dims", [
    (A2, F2, (2, 2)), (A2, F3, (2, 2)), (KRONECKER, F2, (2, 2)), (A3, F2, (1, 2, 1)),
    (BACKWARD_QUIVERS["A2 2->1"], F2, (2, 2)), (BACKWARD_QUIVERS["A3 1<-2->3"], F2, (1, 2, 1)),
    (BACKWARD_QUIVERS["A3 1->2<-3"], F2, (1, 1, 1)), (BACKWARD_QUIVERS["K2 2=>1"], F2, (1, 2)),
    (BACKWARD_QUIVERS["A3 1->3->2"], F2, (1, 1, 2)),
], ids=["A2-F2", "A2-F3", "K2-F2", "A3-F2", "A2 2->1", "A3 1<-2->3", "A3 1->2<-3", "K2 2=>1", "A3 1->3->2"])
def test_whole_space_submodule_count(quiver, field, dims):
    # summed over every representation of dims, the submodules of each
    # dimension vector e are counted by Gaussian binomials alone
    counted, formula = whole_space_submodule_counts(quiver, field, dims)
    assert counted == formula


def test_submodules_of_different_parents_differ():
    # equal rows in representations with equal dims but different maps
    P, SS = rep(A2, F2, (1, 1), {"a": [[1]]}), rep(A2, F2, (1, 1), {"a": [[0]]})
    for build in (zero_submodule, full_submodule):
        mine, theirs = build(P), build(SS)
        assert mine.rows == theirs.rows and mine != theirs and len({mine, theirs}) == 2
        again = build(rep(A2, F2, (1, 1), {"a": [[1]]}))
        assert again.parent is not P and again == mine and hash(again) == hash(mine)
