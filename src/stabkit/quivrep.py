"""Acyclic quivers, their finite-dimensional representations, and the
brute-force subobject / intertwiner oracles.

Everything is desk scale by design: submodule enumeration walks the
tuples of per-vertex echelon subspaces vertex by vertex, taking at each
vertex the interval of subspaces that the arrows to the earlier vertices
allow, so it is only available over finite fields and below a
configurable total-dimension cap and work budget.
"""

from __future__ import annotations

import bisect
import functools
import graphlib
import math
from array import array
from itertools import product

from . import linalg
from .errors import (
    CapExceededError,
    CycleError,
    FieldMismatchError,
    SchemaError,
    WrongFieldError,
)
from .exactnum import Frozen
from .linalg import Field

DimVector = tuple[int, ...]

DEFAULT_CAP = 6
ENUMERATION_BUDGET = 10**6  # subspace tuples (or sub-dimension vectors) one scan may visit


def dim_add(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x + y for x, y in zip(a, b))


def dim_sub(a: DimVector, b: DimVector) -> DimVector:
    return tuple(x - y for x, y in zip(a, b))


def dims_proportional(a: DimVector, b: DimVector) -> bool:
    """True iff the integer vectors span the same line (both nonzero)."""
    if all(x == 0 for x in a) or all(x == 0 for x in b):
        return False
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n))


class Arrow(Frozen):
    __slots__ = ("name", "src", "tgt")

    def __init__(self, name: str, src: int, tgt: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)


class Quiver(Frozen):
    """Directed graph on vertices 1..n, required to be acyclic."""

    __slots__ = ("n", "arrows")

    def __init__(self, n: int, arrows: tuple[Arrow, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arrows", arrows)
        if n < 1:
            raise SchemaError("/vertices", f"need at least one vertex, got {n}")
        names = set()
        order = graphlib.TopologicalSorter()
        for i, a in enumerate(arrows):
            if not (1 <= a.src <= n and 1 <= a.tgt <= n):
                raise SchemaError(f"/arrows/{i}", f"endpoint out of range 1..{n}")
            if a.name in names:
                raise SchemaError(f"/arrows/{i}", "duplicate arrow name")
            names.add(a.name)
            order.add(a.tgt, a.src)
        try:
            order.prepare()
        except graphlib.CycleError as exc:  # its cycle follows the arrows
            raise CycleError("/arrows", "quiver has a directed cycle through vertices "
                             + " -> ".join(map(str, exc.args[1]))) from None


def euler_form(quiver: Quiver, alpha: DimVector, beta: DimVector) -> int:
    """Bilinear form sum_i a_i b_i - sum_{arrows i->j} a_i b_j.

    For representations M, N of an acyclic quiver this equals
    hom_dim(M, N) - dim Ext^1(M, N); the tests define the Ext^1
    dimension through that identity and check it on examples.
    """
    if len(alpha) != quiver.n or len(beta) != quiver.n:
        raise SchemaError("/euler_form", f"dimension vectors must have length {quiver.n}")
    total = sum(a * b for a, b in zip(alpha, beta))
    for ar in quiver.arrows:
        total -= alpha[ar.src - 1] * beta[ar.tgt - 1]
    return total


class QuiverRep(Frozen):
    """Representation: one vector space per vertex, one matrix per arrow.

    Matrices have shape (dim target x dim source) and act on column
    vectors, so arrow a: i -> j sends v in F^{dims[i]} to maps[a] @ v;
    ``maps`` holds one row-tuple matrix per arrow, in quiver order.
    """

    __slots__ = ("quiver", "field", "dims", "maps")

    def __init__(self, quiver: Quiver, field: Field, dims: DimVector, maps: tuple[tuple, ...]):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)
        if len(dims) != quiver.n:
            raise SchemaError("/dims", f"expected {quiver.n} entries, got {len(dims)}")
        if any(d < 0 for d in dims):
            raise SchemaError("/dims", "dimensions must be non-negative")
        if len(maps) != len(quiver.arrows):
            raise SchemaError("/maps", f"expected {len(quiver.arrows)} matrices")
        for a, M in zip(quiver.arrows, maps):
            rows, cols = dims[a.tgt - 1], dims[a.src - 1]
            if len(M) != rows or any(len(r) != cols for r in M):
                raise SchemaError(
                    f"/maps/{a.name}",
                    f"matrix must be {rows}x{cols} for arrow {a.src}->{a.tgt}",
                )

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __hash__(self):  # dims and maps only: the lattice memo hashes a rep on every call
        return hash((self.dims, self.maps))


def direct_sum(M: QuiverRep, N: QuiverRep) -> QuiverRep:
    _require_compatible(M, N)
    F = M.field
    dims = dim_add(M.dims, N.dims)
    maps = []
    for idx, a in enumerate(M.quiver.arrows):
        rt, ct = dims[a.tgt - 1], dims[a.src - 1]
        rt1, ct1 = M.dims[a.tgt - 1], M.dims[a.src - 1]
        block = [[F.zero] * ct for _ in range(rt)]
        for i, row in enumerate(M.maps[idx]):
            for j, x in enumerate(row):
                block[i][j] = x
        for i, row in enumerate(N.maps[idx]):
            for j, x in enumerate(row):
                block[rt1 + i][ct1 + j] = x
        maps.append(tuple(tuple(r) for r in block))
    return QuiverRep(M.quiver, F, dims, tuple(maps))


def _require_compatible(M: QuiverRep, N: QuiverRep):
    if M.quiver != N.quiver:
        raise FieldMismatchError("representations live over different quivers")
    if M.field != N.field:
        raise FieldMismatchError(f"representations live over different fields {M.field} and {N.field}")


class Submodule(Frozen):
    """Arrow-invariant tuple of subspaces, one echelon basis per vertex.

    Bases are stored as rows in reduced echelon form, which makes
    equality of submodules of one representation literal equality of
    bases.  The dimension vector and total dimension are stored at
    construction; submodules with equal dimension vectors share one
    ``dims`` tuple.  Calling the class checks arrow invariance; the
    enumerator, whose members are invariant by construction, builds
    them with ``_member``.  Instances are immutable.
    """

    __slots__ = ("parent", "rows", "pivots", "dims", "total_dim")

    def __new__(cls, parent: QuiverRep, rows, pivots):
        if not _invariant(parent, rows, pivots):
            raise SchemaError("/submodule", "subspaces are not arrow-invariant")
        dims = _shared_dims(tuple(map(len, rows)))
        return _member(parent, rows, pivots, dims, sum(dims))

    def __reduce__(self):
        return Submodule, (self.parent, self.rows, self.pivots)

    def __repr__(self):
        return f"Submodule(parent={self.parent!r}, rows={self.rows!r}, pivots={self.pivots!r})"

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    @property
    def is_full(self) -> bool:
        return self.dims == self.parent.dims

    def contains(self, other: "Submodule") -> bool:
        """Whether other lies in self at every vertex: larger dimensions are rejected before any
        span test, and a vertex where self is the whole space needs none."""
        if any(o > d for o, d in zip(other.dims, self.dims)):
            return False  # echelon rows are independent
        F = self.parent.field
        for rows, pivots, d, n, theirs in zip(self.rows, self.pivots, self.dims, self.parent.dims, other.rows):
            if d < n and not _maps_into(F, theirs, rows, pivots):
                return False
        return True


_set_parent, _set_rows, _set_pivots = Submodule.parent.__set__, Submodule.rows.__set__, Submodule.pivots.__set__
_set_dims, _set_total_dim = Submodule.dims.__set__, Submodule.total_dim.__set__


def _member(parent: QuiverRep, rows, pivots, dims: DimVector, total_dim: int) -> Submodule:
    """A Submodule from parts known to be arrow-invariant; dims is shared.
    The parts are stored through the slot descriptors, as in exactnum."""
    sub = object.__new__(Submodule)
    _set_parent(sub, parent)
    _set_rows(sub, rows)
    _set_pivots(sub, pivots)
    _set_dims(sub, dims)
    _set_total_dim(sub, total_dim)
    return sub


@functools.lru_cache(maxsize=1024)
def _shared_dims(dims: DimVector) -> DimVector:
    return dims  # the cache hands back the first equal tuple


def _images(F: Field, M, rows) -> list:
    """The nonzero images M @ u of the rows u."""
    return [w for w in (linalg.mat_vec(F, M, u) for u in rows) if any(w)]


def _maps_into(F: Field, images, rows, pivots) -> bool:
    """Every image lies in the span of the echelon rows (pivots)."""
    return all(linalg.in_span(F, w, rows, pivots) for w in images)


def _invariant(rep: QuiverRep, rows, pivots) -> bool:
    F = rep.field
    return all(
        _maps_into(F, _images(F, rep.maps[idx], rows[a.src - 1]), rows[a.tgt - 1], pivots[a.tgt - 1])
        for idx, a in enumerate(rep.quiver.arrows)
    )


def coordinate_submodule(rep: QuiverRep, beta: DimVector) -> Submodule | None:
    """The whole space at every vertex where beta is nonzero and 0 elsewhere,
    or None when that tuple of subspaces is not arrow-invariant."""
    rows = tuple(linalg.identity_matrix(rep.field, d) if b else () for b, d in zip(beta, rep.dims))
    pivots = tuple(tuple(range(d)) if b else () for b, d in zip(beta, rep.dims))
    if not _invariant(rep, rows, pivots):
        return None
    dims = _shared_dims(tuple(map(len, rows)))
    return _member(rep, rows, pivots, dims, sum(dims))


def zero_submodule(rep: QuiverRep) -> Submodule:
    return coordinate_submodule(rep, (0,) * rep.quiver.n)


def full_submodule(rep: QuiverRep) -> Submodule:
    return coordinate_submodule(rep, rep.dims)


def _check_cap(rep: QuiverRep, cap: int, counts, what: str):
    """Refuse a total dimension above cap, then work (the product of counts, one per vertex,
    formed vertex by vertex) above ENUMERATION_BUDGET, named where it first exceeds it."""
    if rep.total_dim > cap:
        raise CapExceededError(f"total dimension {rep.total_dim} exceeds the enumeration cap {cap}")
    work = 1
    for count in counts:
        work *= count
        if work > ENUMERATION_BUDGET:
            raise CapExceededError(f"{what} for dimension vector {rep.dims} would visit at least {work}, "
                                   f"above the enumeration budget {ENUMERATION_BUDGET}")


@functools.lru_cache(maxsize=1024)
def _subspace_counts(p: int, dims: DimVector) -> tuple[int, ...]:
    """len(linalg.subspaces(p, d)) per d in dims, the Galois number G(d) = sum_k [d, k]_p, by
    G(n+1) = 2 G(n) + (p**n - 1) G(n-1); a G(n) above the budget is returned as a bound."""
    counts = []
    for d in dims:
        below, count, n = 0, 1, 0
        while n < d and count <= ENUMERATION_BUDGET:
            below, count, n = count, 2 * count + (p ** n - 1) * below, n + 1
        counts.append(count)
    return tuple(counts)


def sub_dims(rep: QuiverRep, cap: int = DEFAULT_CAP) -> list[DimVector]:
    """The nonzero proper vectors beta <= rep.dims, vertex 1 slowest, below the cap and the budget."""
    _check_cap(rep, cap, (d + 1 for d in rep.dims), "the sub-dimension-vector scan")
    return [beta for beta in product(*(range(d + 1) for d in rep.dims)) if any(beta) and beta != rep.dims]


def enumerate_submodules(rep: QuiverRep, cap: int = DEFAULT_CAP) -> SubmoduleLattice:
    """Every arrow-invariant subspace tuple, including 0 and rep itself.

    Per-vertex subspaces are enumerated in reduced echelon form, each
    vertex taking the interval its arrows to the earlier vertices allow,
    so the member order is canonical (vertex 1 varies slowest) and free
    of duplicates.  The lattice
    depends on the representation alone, so equal representations share
    one immutable :class:`SubmoduleLattice` from a small memo; the field,
    cap and budget checks run on every call, before any table is built.
    """
    _require_finite(rep)
    _check_cap(rep, cap, _subspace_counts(rep.field.p, rep.dims), "submodule enumeration")
    return _lattice(rep)


def _require_finite(rep: QuiverRep):
    if not rep.field.is_finite:
        raise WrongFieldError("submodule enumeration needs a finite field; use the rational-field certificate route")


class SubmoduleLattice(Frozen):
    """The submodules of a representation over a finite field, in canonical order.

    A member is stored as its position in the product of the per-vertex
    ``linalg.subspaces`` tables, vertex 1 slowest: ``_radix`` holds
    ``(table, stride, size)`` per vertex, and the member's subspace at
    vertex v is ``table.row(position // stride % size)``, decoded from
    that index where it is read: by the enumeration at the vertices before
    the last one of positive dimension, and by :meth:`walk` and
    :meth:`member` where they read a member.  The positions are a
    ``range`` when no arrow constrains anything, else an array of 4-byte
    ints.  Consecutive members with one pivots tuple form a run; ``_runs``
    holds its ``(pivots, dims, total_dim)`` and ``_starts`` the index of its
    first member.  ``_first`` maps each dimension-vector class to the index
    of its first member.  ``len`` counts the members, :meth:`walk` is the
    one query for the members between two submodules, read by index, and
    :meth:`member` builds one as a :class:`Submodule`.
    ``==``, ``hash`` and pickling go by the representation.
    :func:`enumerate_submodules` also checks the cap and the budget and
    shares one lattice among equal representations.
    """

    __slots__ = ("rep", "_radix", "_positions", "_starts", "_runs", "_first")

    def __init__(self, rep: QuiverRep):
        object.__setattr__(self, "rep", rep)
        _require_finite(rep)
        for name, value in zip(self.__slots__[1:], _enumerate(rep)):
            object.__setattr__(self, name, value)

    def __len__(self):
        return len(self._positions)

    def classes(self):
        """(dims, index of the first member of that class) per class, in
        order of first appearance."""
        return self._first.items()

    def _rows(self, index: int) -> tuple:
        k = self._positions[index]
        return tuple([table.row(k // s % m) for table, s, m in self._radix])

    def member(self, index: int) -> Submodule:
        """The member at index, built on its own."""
        index = range(len(self))[index]  # a negative index counts from the end
        pivots, dims, total_dim = self._runs[bisect.bisect_right(self._starts, index) - 1]
        return _member(self.rep, self._rows(index), pivots, dims, total_dim)

    def walk(self, lower: Submodule | None = None,
             upper: Submodule | None = None) -> list[tuple[DimVector, int, range | list[int]]]:
        """One (dims, total_dim, indices) per run that has members M with
        lower < M < upper, in canonical order; a missing bound bounds
        nothing, and indices are those members' ascending indices.  A run
        whose dims rule it out is skipped whole, and one whose dims settle
        containment at every vertex is taken whole, as a range; otherwise
        a run whose pivots rule it out at a vertex left open is skipped
        whole too, and containment is decided once per vertex and
        candidate index, on the side(s) its dims leave open there, and
        indices lists the members that pass."""
        F, full, out = self.rep.field, self.rep.dims, []
        positions, radix = self._positions, self._radix
        low, low_total = ((0,) * len(full), -1) if lower is None else (lower.dims, lower.total_dim)
        high, high_total = (full, self.rep.total_dim + 1) if upper is None else (upper.dims, upper.total_dim)
        known: list[dict] = [{} for _ in full]  # per vertex: candidate index -> inside the bounds
        open_at: dict = {}  # per class: None when ruled out, else (vertex, lower open, upper open)
        ends = self._starts[1:] + (len(self),)
        for (pivots, dims, total_dim), start, end in zip(self._runs, self._starts, ends):
            if dims not in open_at:
                ruled_out = not low_total < total_dim < high_total or any(
                    not s <= d <= u for s, d, u in zip(low, dims, high))
                # a side is open unless its containing side is the whole space or its contained side is 0
                open_at[dims] = None if ruled_out else [
                    (v, s and d < n, d and u < n)
                    for v, (s, d, u, n) in enumerate(zip(low, dims, high, full)) if s and d < n or d and u < n]
            if (open_ := open_at[dims]) is None:
                continue
            if not open_:
                out.append((dims, total_dim, range(start, end)))
                continue
            # a subspace's echelon pivots hold those of every subspace in it
            if any(lo and not set(lower.pivots[v]) <= set(pivots[v])
                   or hi and not set(pivots[v]) <= set(upper.pivots[v]) for v, lo, hi in open_):
                continue
            hits = []
            for i in range(start, end):
                for v, low_open, high_open in open_:
                    table, s, m = radix[v]
                    if (hit := known[v].get(c := positions[i] // s % m)) is None:
                        rows = table.row(c)
                        hit = known[v][c] = (
                            (not low_open or _maps_into(F, lower.rows[v], rows, pivots[v]))
                            and (not high_open or _maps_into(F, rows, upper.rows[v], upper.pivots[v])))
                    if not hit:
                        break
                else:
                    hits.append(i)
            if hits:
                out.append((dims, total_dim, hits))
        return out


_lattice = functools.lru_cache(maxsize=8)(SubmoduleLattice)


def _enumerate(rep: QuiverRep):
    # Arrows are checked at the later of their two endpoints; an arrow
    # whose matrix has no nonzero entry constrains nothing and is dropped.
    # Given the choices at the earlier vertices, the candidates at v are
    # the subspaces between U, the span of the images of the arrows into v,
    # and K, the preimage under the arrows out of v of the subspaces chosen
    # at their targets: linalg.subspace_interval solves that interval per
    # pivot set and caches it, and it is read once per choice at the
    # vertices v's arrows tie it to.  A vertex tied to none, or whose
    # interval is the whole space, takes its whole table.  The rows of the
    # tied choices are decoded from their indices (table.row) on a memo
    # miss only, and images of rows are taken once per lattice.  The last
    # vertex of positive dimension, w, adds one block per choice at the
    # earlier ones.
    F, n, dims = rep.field, rep.quiver.n, rep.dims
    tables = tuple(linalg.subspaces(F.p, d) for d in dims)
    strides = tuple(math.prod(map(len, tables[v + 1:])) for v in range(n))
    arrows = [(M, a.src - 1, a.tgt - 1) for M, a in zip(rep.maps, rep.quiver.arrows) if any(map(any, M))]
    into = [[(M, s) for M, s, t in arrows if t == v and s < v] for v in range(n)]
    back = [[(tuple(zip(*M)), t) for M, s, t in arrows if s == v and t < v] for v in range(n)]
    ties = [sorted({min(s, t) for M, s, t in arrows if max(s, t) == v}) for v in range(n)]
    w = max((v for v, d in enumerate(dims) if d), default=0)
    tail = ((),) * (n - 1 - w)  # pivots of the later vertices
    positions = array("I") if arrows else None
    starts, runs, first, memo, images = [], [], {}, {}, {}
    chosen, chosen_pivots = [None] * n, [None] * n

    def image(M, u):
        if (im := images.get((id(M), u))) is None:
            im = images[id(M), u] = linalg.mat_vec(F, M, u)
        return im

    def candidates(v):
        if not ties[v]:
            return tables[v].pivot_sets
        key = (v, *(chosen[u] for u in ties[v]))
        if (segments := memo.get(key)) is None:
            chosen_rows = {u: tables[u].row(chosen[u]) for u in ties[v]}
            lower = linalg.rref(F, [image(M, u) for M, s in into[v] for u in chosen_rows[s]])[0]
            upper = tables[v].whole  # unless an arrow goes back from v
            if back[v]:  # x is in K when M x satisfies the equations of the subspace chosen at each target
                kernel = linalg.rref(F, [linalg.mat_vec(F, MT, a) for MT, t in back[v]
                                         for a in linalg.perp(F, chosen_rows[t], chosen_pivots[t], dims[t])])
                upper = linalg.rref(F, linalg.perp(F, *kernel, dims[v]))[0]
            segments = memo[key] = linalg.subspace_interval(F.p, dims[v], lower, upper)
        return segments

    def block(base, count):
        prefix = tuple(chosen_pivots[:w])
        for pivots, seq in candidates(w):
            member_pivots = prefix + (pivots,) + tail
            if not runs or member_pivots != runs[-1][0]:
                dims = _shared_dims(tuple(map(len, member_pivots)))
                starts.append(count)
                runs.append((member_pivots, dims, sum(dims)))
                first.setdefault(dims, count)
            if positions is not None:
                positions.extend(map(base.__add__, seq))
            count += len(seq)
        return count

    def descend(v, base, count):
        if v == w:
            return block(base, count)
        for pivots, seq in candidates(v):
            chosen_pivots[v] = pivots
            for c in seq:
                chosen[v] = c
                count = descend(v + 1, base + c * strides[v], count)
        return count

    count = descend(0, 0, 0)
    radix = tuple((t, s, len(t)) for t, s in zip(tables, strides))
    return radix, positions if arrows else range(count), tuple(starts), tuple(runs), first


def subquotient(rep: QuiverRep, lower: Submodule, upper: Submodule) -> QuiverRep:
    """The representation upper/lower for submodules lower <= upper of rep.

    At each vertex the rows of upper's echelon basis are reduced modulo
    lower and brought back to echelon form; they span a complement of
    lower in upper.  A vector of upper has as coordinates those of its
    remainder modulo lower in that basis.  With upper full the basis is
    the unit vectors at lower's non-pivot columns (the quotient rep/lower);
    with lower zero it is upper's own basis (upper as a representation).
    """
    for sub in (lower, upper):
        if sub.parent is not rep and sub.parent != rep:
            raise FieldMismatchError("submodule belongs to a different representation")
    if not upper.contains(lower):
        raise SchemaError("/submodule", "the lower submodule is not contained in the upper one")
    F = rep.field
    bases = [
        linalg.rref(F, [linalg.reduce_vector(F, u, lower.rows[v], lower.pivots[v]) for u in upper.rows[v]])
        for v in range(rep.quiver.n)
    ]
    maps = []
    for idx, a in enumerate(rep.quiver.arrows):
        src, tgt = a.src - 1, a.tgt - 1
        M = rep.maps[idx]
        rows_t, piv_t = bases[tgt]
        cols = []
        for u in bases[src][0]:
            image = linalg.reduce_vector(F, linalg.mat_vec(F, M, u), lower.rows[tgt], lower.pivots[tgt])
            coords = linalg.span_coordinates(F, image, rows_t, piv_t)
            if coords is None:
                raise SchemaError("/submodule", "subspaces are not arrow-invariant")
            cols.append(coords)
        maps.append(tuple(tuple(col[i] for col in cols) for i in range(len(rows_t))))
    return QuiverRep(rep.quiver, F, tuple(len(rows) for rows, _ in bases), tuple(maps))


def hom_dim(M: QuiverRep, N: QuiverRep) -> int:
    """Dimension of the space of vertex-wise maps commuting with all arrows.

    Unknowns are the entries of one matrix f_v: M_v -> N_v per vertex;
    each arrow a: i -> j imposes f_j M_a = N_a f_i.  The answer is the
    kernel dimension of the assembled linear system.
    """
    _require_compatible(M, N)
    F = M.field
    n = M.quiver.n
    # unknown layout: f_v entries, row-major, vertex by vertex
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += N.dims[v] * M.dims[v]
    if total == 0:
        return 0
    rows = []
    for idx, a in enumerate(M.quiver.arrows):
        i, j = a.src - 1, a.tgt - 1
        Ma, Na = M.maps[idx], N.maps[idx]
        for r in range(N.dims[j]):
            for c in range(M.dims[i]):
                eq = [F.zero] * total
                # (f_j M_a)[r][c] = sum_t f_j[r][t] * M_a[t][c]
                for t in range(M.dims[j]):
                    eq[offsets[j] + r * M.dims[j] + t] = F.add(
                        eq[offsets[j] + r * M.dims[j] + t], Ma[t][c]
                    )
                # -(N_a f_i)[r][c] = -sum_t N_a[r][t] * f_i[t][c]
                for t in range(N.dims[i]):
                    pos = offsets[i] + t * M.dims[i] + c
                    eq[pos] = F.sub(eq[pos], Na[r][t])
                rows.append(tuple(eq))
    return total - linalg.rank(F, rows)
