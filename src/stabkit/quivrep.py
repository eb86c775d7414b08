"""Acyclic quivers, their finite-dimensional representations, and the
brute-force subobject / intertwiner oracles.

Everything is desk scale by design: submodule enumeration walks every
tuple of per-vertex echelon subspaces and filters by arrow invariance,
so it is only available over finite fields and below a configurable
total-dimension cap.
"""

from __future__ import annotations

import bisect
import functools
import graphlib
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

    @property
    def vertices(self):
        return range(1, self.n + 1)


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
        return _contains(self.parent, self.rows, self.pivots, other.rows)


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


def _contains(rep: QuiverRep, rows, pivots, theirs) -> bool:
    """Whether, at every vertex of rep, the echelon basis rows (pivots) spans the rows theirs."""
    for o, r in zip(theirs, rows):
        if len(o) > len(r):
            return False  # echelon rows are independent
    F = rep.field
    for mine, piv, d, their in zip(rows, pivots, rep.dims, theirs):
        if len(mine) == d:
            continue  # the whole space holds every row
        for row in their:
            if not linalg.in_span(F, row, mine, piv):
                return False
    return True


@functools.lru_cache(maxsize=1024)
def _shared_dims(dims: DimVector) -> DimVector:
    return dims  # the cache hands back the first equal tuple


def _images(F: Field, M, rows) -> list:
    """The nonzero images M @ u of the rows u."""
    return [w for w in (linalg.mat_vec(F, M, u) for u in rows) if any(w)]


def _maps_into(F: Field, images, rows, pivots) -> bool:
    """The arrow-invariance test: every image lies in the span of rows."""
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


def _check_cap(rep: QuiverRep, cap: int):
    if rep.total_dim > cap:
        raise CapExceededError(f"total dimension {rep.total_dim} exceeds the enumeration cap {cap}")


def sub_dims(rep: QuiverRep, cap: int = DEFAULT_CAP) -> list[DimVector]:
    """The nonzero proper vectors beta <= rep.dims, vertex 1 slowest, below the cap."""
    _check_cap(rep, cap)
    return [beta for beta in product(*(range(d + 1) for d in rep.dims)) if any(beta) and beta != rep.dims]


def enumerate_submodules(rep: QuiverRep, cap: int = DEFAULT_CAP) -> SubmoduleLattice:
    """Every arrow-invariant subspace tuple, including 0 and rep itself.

    Per-vertex subspaces are enumerated in reduced echelon form and the
    product is filtered by invariance, so the member order is canonical
    (vertex 1 varies slowest) and free of duplicates.  The lattice
    depends on the representation alone, so equal representations share
    one immutable :class:`SubmoduleLattice` from a small memo; the field
    and cap checks run on every call.
    """
    _require_finite(rep)
    _check_cap(rep, cap)
    return _lattice(rep)


def _require_finite(rep: QuiverRep):
    if not rep.field.is_finite:
        raise WrongFieldError("submodule enumeration needs a finite field; use the rational-field certificate route")


class SubmoduleLattice(Frozen):
    """The submodules of a representation over a finite field, in canonical order.

    A member is stored as its rows tuple alone.  Consecutive members with
    one pivots tuple form a run, which stores that tuple, the shared dims
    and the total dimension once; each dimension-vector class maps to the
    index of its first member.  ``len`` counts the members, :meth:`walk`
    reads them by index and :meth:`member` builds one as a
    :class:`Submodule`.  ``==``, ``hash`` and pickling go by the
    representation.  :func:`enumerate_submodules` also checks the cap and
    shares one lattice among equal representations.
    """

    __slots__ = ("rep", "_rows", "_starts", "_runs", "_first")

    def __init__(self, rep: QuiverRep):
        object.__setattr__(self, "rep", rep)
        _require_finite(rep)
        rows, starts, runs, first = _enumerate(rep)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_starts", starts)  # index of each run's first member
        object.__setattr__(self, "_runs", runs)  # (pivots, dims, total_dim) of each run
        object.__setattr__(self, "_first", first)  # class -> index of its first member

    def __len__(self):
        return len(self._rows)

    def classes(self):
        """(dims, index of the first member of that class) per class, in
        order of first appearance."""
        return self._first.items()

    def member(self, index: int) -> Submodule:
        """The member at index, built on its own."""
        index = range(len(self._rows))[index]  # a negative index counts from the end
        pivots, dims, total_dim = self._runs[bisect.bisect_right(self._starts, index) - 1]
        return _member(self.rep, self._rows[index], pivots, dims, total_dim)

    def member_contains(self, index: int, sub: Submodule) -> bool:
        """Whether the member at index contains sub, tested on rows without building the member."""
        pivots = self._runs[bisect.bisect_right(self._starts, index) - 1][0]
        return _contains(self.rep, self._rows[index], pivots, sub.rows)

    def walk(self, step: Submodule, above: bool) -> list[tuple[DimVector, int, int]]:
        """(dims, total_dim, index) of each member strictly above step, or
        strictly inside it when above is false, in canonical order.  A run
        whose total dimension rules it out is skipped whole."""
        rep, rows, out = self.rep, self._rows, []
        step_rows, step_pivots, step_total = step.rows, step.pivots, step.total_dim
        ends = self._starts[1:] + (len(rows),)
        for (pivots, dims, total_dim), start, end in zip(self._runs, self._starts, ends):
            if above and total_dim > step_total:
                for i in range(start, end):
                    if _contains(rep, rows[i], pivots, step_rows):
                        out.append((dims, total_dim, i))
            elif not above and total_dim < step_total:
                for i in range(start, end):
                    if _contains(rep, step_rows, step_pivots, rows[i]):
                        out.append((dims, total_dim, i))
        return out


_lattice = functools.lru_cache(maxsize=8)(SubmoduleLattice)


def _enumerate(rep: QuiverRep):
    # Arrows are checked at the later of their two endpoints; an arrow
    # whose matrix has no nonzero entry constrains nothing and is dropped.
    # Images of the chosen rows at an earlier source are taken once per
    # prefix; images of a candidate's rows into an earlier target once per
    # candidate.  The last vertex is one flat loop per prefix; a run's dims
    # and total_dim come from a table per prefix rank vector, indexed by the
    # rank at the last vertex.
    F = rep.field
    n = rep.quiver.n
    arrows = [(M, a.src - 1, a.tgt - 1) for M, a in zip(rep.maps, rep.quiver.arrows) if any(map(any, M))]
    into = [[(M, s) for M, s, t in arrows if t == v and s < v] for v in range(n)]
    per_vertex = []
    for v, d in enumerate(rep.dims):
        cands = linalg.subspaces(F.p, d)
        back = [(M, t) for M, s, t in arrows if s == v and t < v]
        images = ([[(t, ims) for M, t in back if (ims := _images(F, M, rows))] for rows, _ in cands]
                  if back else [()] * len(cands))
        per_vertex.append((cands, images))
    out: list = []
    starts: list[int] = []
    runs: list = []
    first: dict[DimVector, int] = {}
    tables: dict[DimVector, list] = {}
    chosen_rows: list = [None] * (n - 1)
    chosen_pivots: list = [None] * (n - 1)

    def last_vertex():
        prefix_rows = tuple(chosen_rows)
        prefix_pivots = tuple(chosen_pivots)
        base = tuple(map(len, prefix_rows))
        if (table := tables.get(base)) is None:
            table = tables[base] = [(_shared_dims(base + (k,)), sum(base) + k) for k in range(rep.dims[-1] + 1)]
        fixed = [w for M, s in into[-1] for w in _images(F, M, chosen_rows[s])]
        last = None
        for (rows, pivots), back in zip(*per_vertex[-1]):
            if fixed and not _maps_into(F, fixed, rows, pivots):
                continue
            if back and not all(_maps_into(F, ims, chosen_rows[t], chosen_pivots[t]) for t, ims in back):
                continue
            if pivots is not last:
                # candidates of one pivot set are consecutive; a run goes on
                # across prefixes while the whole pivots tuple stays equal
                last = pivots
                member_pivots = prefix_pivots + (pivots,)
                if not runs or member_pivots != runs[-1][0]:
                    dims, total_dim = table[len(pivots)]
                    starts.append(len(out))
                    runs.append((member_pivots, dims, total_dim))
                    first.setdefault(dims, len(out))
            out.append(prefix_rows + (rows,))

    def descend(v):
        if v == n - 1:
            last_vertex()
            return
        fixed = [w for M, s in into[v] for w in _images(F, M, chosen_rows[s])]
        for (rows, pivots), back in zip(*per_vertex[v]):
            if fixed and not _maps_into(F, fixed, rows, pivots):
                continue
            if back and not all(_maps_into(F, ims, chosen_rows[t], chosen_pivots[t]) for t, ims in back):
                continue
            chosen_rows[v] = rows
            chosen_pivots[v] = pivots
            descend(v + 1)

    descend(0)
    return tuple(out), tuple(starts), tuple(runs), first


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
