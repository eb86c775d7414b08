"""Shared builders and seeded random-instance generators for the tests.

All randomness takes an explicit seed; the generators are the fuzz
tooling and live here, outside the CLI.  The span-closure enumerator at
the bottom is an independently coded oracle for the echelon-based
submodule enumeration: it never touches row reduction.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from stabkit.ellcurve import MAT_STD, NumericalCharge
from stabkit.exactnum import (
    EC_I,
    ExactComplex,
    PhaseKey,
    ccw_displacement,
    in_strict_upper_half,
    phase_key_anchor,
)
from stabkit.linalg import field_by_name
from stabkit.quivrep import (
    Arrow,
    Quiver,
    QuiverRep,
    enumerate_submodules,
    euler_form,
    full_submodule,
    hom_dim,
    subquotient,
)
from stabkit.slicing import FormalComplex, hn_decompose
from stabkit.stability import CentralCharge
from stabkit.stabspace import mat2_apply, mat2_inv, mat2_mul

A2 = Quiver(2, (Arrow("a", 1, 2),))
A3 = Quiver(3, (Arrow("a", 1, 2), Arrow("b", 2, 3)))
KRONECKER = Quiver(2, (Arrow("a", 1, 2), Arrow("b", 1, 2)))

QUIVERS = {"A2": A2, "A3": A3, "K2": KRONECKER}

# Quivers with an arrow from a higher to a lower vertex index.  They are
# kept out of QUIVERS, so the seeded instance streams stay as they are.
BACKWARD_QUIVERS = {
    "A2 2->1": Quiver(2, (Arrow("a", 2, 1),)),
    "A3 1<-2->3": Quiver(3, (Arrow("a", 2, 1), Arrow("b", 2, 3))),
    "A3 1->2<-3": Quiver(3, (Arrow("a", 1, 2), Arrow("b", 3, 2))),
    "K2 2=>1": Quiver(2, (Arrow("a", 2, 1), Arrow("b", 2, 1))),
    # vertex 3 has an arrow in from vertex 1 and one back to vertex 2, so
    # both bounds of its candidate interval constrain it
    "A3 1->3->2": Quiver(3, (Arrow("a", 1, 3), Arrow("b", 3, 2))),
}

F2 = field_by_name("F2")
F3 = field_by_name("F3")
Q = field_by_name("Q")


def ec(re, im) -> ExactComplex:
    return ExactComplex(Fraction(re), Fraction(im))


def charge(*pairs) -> CentralCharge:
    return CentralCharge(tuple(ec(re, im) for re, im in pairs))


def heart_charge(S) -> CentralCharge | None:
    """A handle's transformed charge as a half-plane charge on the same
    heart, or None when one of its values leaves the half-plane."""
    values = S.charge2d()
    return CentralCharge(values) if all(map(in_strict_upper_half, values)) else None


def semistable_phase(S, fc: FormalComplex):
    """The phase of fc in the handle S when fc is semistable there, else None."""
    factors = hn_decompose(fc, S)
    return factors[0].key if len(factors) == 1 else None


def anchored_by_arithmetic(g, p: PhaseKey) -> PhaseKey:
    """The new phase of p under g by the anchor arithmetic, written out
    for every element, the identity included: the ccw displacement from
    T^{-1}(i) to T^{-1} of p's plane vector, added onto the anchor, then
    shifted by twice the window index of p."""
    t_inv = mat2_inv(g.T)
    reference = mat2_apply(t_inv, EC_I)
    vec = p.dir if p.k % 2 == 0 else -p.dir
    disp = ccw_displacement(reference, mat2_apply(t_inv, vec))
    return phase_key_anchor(reference, g.m).plus(disp).shift(2 * p.window_index())


def charge_of_element(g) -> NumericalCharge:
    """The numerical charge that ``ellcurve.classify`` sends to g: the
    standard charge acted on by g."""
    return NumericalCharge(mat2_mul(mat2_inv(g.T), MAT_STD))


def rep(quiver: Quiver, field, dims, maps_by_name=None) -> QuiverRep:
    maps_by_name = maps_by_name or {}
    maps = []
    for a in quiver.arrows:
        rows_n, cols_n = dims[a.tgt - 1], dims[a.src - 1]
        if a.name in maps_by_name:
            M = tuple(tuple(field.coerce(x) for x in row) for row in maps_by_name[a.name])
        else:
            M = tuple(tuple(field.zero for _ in range(cols_n)) for _ in range(rows_n))
        maps.append(M)
    return QuiverRep(quiver, field, tuple(dims), tuple(maps))


def zero_rep(quiver: Quiver, field) -> QuiverRep:
    return rep(quiver, field, (0,) * quiver.n)


def simple_rep(quiver: Quiver, field, vertex: int) -> QuiverRep:
    return rep(quiver, field, tuple(int(v == vertex) for v in range(1, quiver.n + 1)))


def ext1_dim(M: QuiverRep, N: QuiverRep) -> int:
    """First extension-space dimension, defined by hom - euler for acyclic quivers."""
    return hom_dim(M, N) - euler_form(M.quiver, M.dims, N.dims)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """The number [n, k]_q of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def all_reps(quiver: Quiver, field, dims) -> list[QuiverRep]:
    """Every representation of quiver with dimension vector dims over the finite field."""
    shapes = [(dims[a.tgt - 1], dims[a.src - 1]) for a in quiver.arrows]
    out = []
    for entries in product(range(field.p), repeat=sum(r * c for r, c in shapes)):
        it, maps = iter(entries), []
        for r, c in shapes:
            maps.append(tuple(tuple(next(it) for _ in range(c)) for _ in range(r)))
        out.append(QuiverRep(quiver, field, tuple(dims), tuple(maps)))
    return out


def whole_space_submodule_counts(quiver: Quiver, field, dims) -> tuple[Counter, dict]:
    """Both sides of the whole-space submodule count: for every e <= dims,

        sum over M in R_d(F_q) of #{U <= M : dim U = e}
            = prod_i [d_i, e_i]_q * q ** sum_{arrows i->j} (d_i d_j - e_i (d_j - e_j)),

    since for each choice of the U_i the matrices mapping every U_i into U_j
    are counted arrow by arrow.  The left side is counted from
    ``enumerate_submodules``, the right side needs no enumeration."""
    q = field.p
    counted = Counter()
    for r in all_reps(quiver, field, dims):
        lattice = enumerate_submodules(r)
        counted.update(lattice.member(i).dims for i in range(len(lattice)))
    formula = {}
    for e in product(*(range(d + 1) for d in dims)):
        count = 1
        for d, k in zip(dims, e):
            count *= gaussian_binomial(d, k, q)
        exponent = sum(dims[a.src - 1] * dims[a.tgt - 1] - e[a.src - 1] * (dims[a.tgt - 1] - e[a.tgt - 1])
                       for a in quiver.arrows)
        formula[e] = count * q ** exponent
    return counted, formula


def labelled(reps: dict[str, QuiverRep], names) -> list[tuple[str, FormalComplex]]:
    """A testset of (name, representation in degree 0) pairs."""
    return [(n, FormalComplex.of_module(reps[n])) for n in names]


def members(lattice) -> list:
    """Every member of a submodule lattice, built one by one."""
    return [lattice.member(i) for i in range(len(lattice))]


def all_ses(r: QuiverRep) -> list:
    """All short exact sequences 0 -> A -> r -> B -> 0 with A proper nonzero."""
    full = full_submodule(r)
    return [(sub, subquotient(r, sub, full)) for sub in members(enumerate_submodules(r))
            if not (sub.is_zero or sub.is_full)]


def random_rep(rng: random.Random, quiver: Quiver, field, max_total=6, max_per_vertex=4) -> QuiverRep:
    while True:
        dims = tuple(rng.randint(0, max_per_vertex) for _ in range(quiver.n))
        if 0 < sum(dims) <= max_total:
            break
    maps = []
    for a in quiver.arrows:
        rows_n, cols_n = dims[a.tgt - 1], dims[a.src - 1]
        maps.append(tuple(
            tuple(rng.randrange(field.p) for _ in range(cols_n)) for _ in range(rows_n)
        ))
    return QuiverRep(quiver, field, dims, tuple(maps))


def random_charge(rng: random.Random, n: int, max_den=16) -> CentralCharge:
    values = []
    for _ in range(n):
        if rng.random() < 0.05:
            values.append(ExactComplex(Fraction(-rng.randint(1, max_den)), Fraction(0)))
        else:
            re = Fraction(rng.randint(-max_den, max_den), rng.randint(1, max_den))
            im = Fraction(rng.randint(1, max_den), rng.randint(1, max_den))
            values.append(ExactComplex(re, im))
    return CentralCharge(tuple(values))


def instance_stream(seed: int, count: int, fields=("F2", "F3"), max_total=6, max_per_vertex=4):
    """Deterministic stream of (quiver, rep, charge) fuzz instances."""
    rng = random.Random(seed)
    names = sorted(QUIVERS)
    out = []
    for _ in range(count):
        quiver = QUIVERS[names[rng.randrange(len(names))]]
        field = field_by_name(fields[rng.randrange(len(fields))])
        r = random_rep(rng, quiver, field, max_total, max_per_vertex)
        Z = random_charge(rng, quiver.n)
        out.append((quiver, r, Z))
    return out


# --- independent submodule enumeration oracle (span closure, no echelon) ---


def _all_vectors(p: int, dim: int):
    if dim == 0:
        return [tuple()]
    out = [()]
    for _ in range(dim):
        out = [v + (x,) for v in out for x in range(p)]
    return out


def _span_closure(p: int, gens: list[tuple[int, ...]], dim: int) -> frozenset:
    """All vectors in the span, computed by closure under addition and
    scalar multiples (no elimination anywhere)."""
    zero = tuple([0] * dim)
    span = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            for c in range(1, p):
                w = tuple((x + c * y) % p for x, y in zip(v, g))
                if w not in span:
                    span.add(w)
                    frontier.append(w)
    return frozenset(span)


def subspace_sets(p: int, dim: int) -> list[frozenset]:
    """Every subspace of F_p^dim as its full vector set."""
    seen = {_span_closure(p, [], dim)}
    frontier = [frozenset([tuple([0] * dim)])]
    while frontier:
        space = frontier.pop()
        for v in _all_vectors(p, dim):
            if v in space:
                continue
            bigger = _span_closure(p, list(space) + [v], dim)
            if bigger not in seen:
                seen.add(bigger)
                frontier.append(bigger)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def submodule_sets_bruteforce(r: QuiverRep) -> set[tuple[frozenset, ...]]:
    """All arrow-invariant subspace tuples as vector sets."""
    p = r.field.p
    per_vertex = [subspace_sets(p, d) for d in r.dims]

    def apply(M, v):
        return tuple(sum(row[j] * v[j] for j in range(len(v))) % p for row in M)

    out = set()

    def descend(v, chosen):
        if v == r.quiver.n:
            out.add(tuple(chosen))
            return
        for cand in per_vertex[v]:
            chosen.append(cand)
            ok = True
            for idx, a in enumerate(r.quiver.arrows):
                s, t = a.src - 1, a.tgt - 1
                if max(s, t) != v:
                    continue
                for vec in chosen[s]:
                    if apply(r.maps[idx], vec) not in chosen[t]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                descend(v + 1, chosen)
            chosen.pop()

    descend(0, [])
    return out


def submodule_as_sets(sub) -> tuple[frozenset, ...]:
    """Convert an echelon-basis submodule to per-vertex vector sets."""
    p = sub.parent.field.p
    out = []
    for v in range(sub.parent.quiver.n):
        out.append(_span_closure(p, list(sub.rows[v]), sub.parent.dims[v]))
    return tuple(out)
