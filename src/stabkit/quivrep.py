"""Acyclic quivers, their finite-dimensional representations, and the
brute-force subobject / intertwiner oracles.

Everything is desk scale by design: submodule enumeration walks every
tuple of per-vertex echelon subspaces and filters by arrow invariance,
so it is only available over finite fields and below a configurable
total-dimension cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import (
    CapExceededError,
    CycleError,
    FieldMismatchError,
    SchemaError,
    WrongFieldError,
)
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


@dataclass(frozen=True)
class Arrow:
    name: str
    src: int
    tgt: int


@dataclass(frozen=True)
class Quiver:
    """Directed graph on vertices 1..n, required to be acyclic."""

    n: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if self.n < 1:
            raise SchemaError("/quiver/vertices", f"need at least one vertex, got {self.n}")
        seen = set()
        for a in self.arrows:
            if not (1 <= a.src <= self.n and 1 <= a.tgt <= self.n):
                raise SchemaError(f"/quiver/arrows/{a.name}", f"endpoint out of range 1..{self.n}")
            if a.name in seen:
                raise SchemaError(f"/quiver/arrows/{a.name}", "duplicate arrow name")
            seen.add(a.name)
        cyc = self._find_cycle()
        if cyc is not None:
            raise CycleError("quiver has a directed cycle through vertices " + " -> ".join(map(str, cyc)))

    def _find_cycle(self):
        succ = {v: [] for v in range(1, self.n + 1)}
        for a in self.arrows:
            succ[a.src].append(a.tgt)
        color = {v: 0 for v in succ}
        stack_path: list[int] = []

        def visit(v):
            color[v] = 1
            stack_path.append(v)
            for w in succ[v]:
                if color[w] == 1:
                    return stack_path[stack_path.index(w):] + [w]
                if color[w] == 0:
                    got = visit(w)
                    if got:
                        return got
            stack_path.pop()
            color[v] = 2
            return None

        for v in succ:
            if color[v] == 0:
                got = visit(v)
                if got:
                    return got
        return None

    @property
    def vertices(self):
        return range(1, self.n + 1)


def euler_form(quiver: Quiver, alpha: DimVector, beta: DimVector) -> int:
    """Bilinear form sum_i a_i b_i - sum_{arrows i->j} a_i b_j.

    For representations M, N of an acyclic quiver this equals
    hom_dim(M, N) - ext1_dim(M, N); ext1_dim is defined through that
    identity and the cross-check lives in the tests.
    """
    if len(alpha) != quiver.n or len(beta) != quiver.n:
        raise SchemaError("/euler_form", f"dimension vectors must have length {quiver.n}")
    total = sum(a * b for a, b in zip(alpha, beta))
    for ar in quiver.arrows:
        total -= alpha[ar.src - 1] * beta[ar.tgt - 1]
    return total


@dataclass(frozen=True)
class QuiverRep:
    """Representation: one vector space per vertex, one matrix per arrow.

    Matrices have shape (dim target x dim source) and act on column
    vectors, so arrow a: i -> j sends v in F^{dims[i]} to maps[a] @ v.
    """

    quiver: Quiver
    field: Field
    dims: DimVector
    maps: tuple[tuple, ...]  # one row-tuple matrix per arrow, in quiver order

    def __post_init__(self):
        if len(self.dims) != self.quiver.n:
            raise SchemaError("/dims", f"expected {self.quiver.n} entries, got {len(self.dims)}")
        if any(d < 0 for d in self.dims):
            raise SchemaError("/dims", "dimensions must be non-negative")
        if len(self.maps) != len(self.quiver.arrows):
            raise SchemaError("/maps", f"expected {len(self.quiver.arrows)} matrices")
        for a, M in zip(self.quiver.arrows, self.maps):
            rows, cols = self.dims[a.tgt - 1], self.dims[a.src - 1]
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

    def __eq__(self, other):
        if not isinstance(other, QuiverRep):
            return NotImplemented
        return (
            self.quiver == other.quiver
            and self.field == other.field
            and self.dims == other.dims
            and self.maps == other.maps
        )

    def __hash__(self):
        return hash((self.dims, self.maps))


def zero_rep(quiver: Quiver, F: Field) -> QuiverRep:
    dims = tuple(0 for _ in quiver.vertices)
    maps = tuple(tuple() for _ in quiver.arrows)
    return QuiverRep(quiver, F, dims, maps)


def simple_rep(quiver: Quiver, F: Field, vertex: int) -> QuiverRep:
    dims = tuple(1 if v == vertex else 0 for v in quiver.vertices)
    maps = []
    for a in quiver.arrows:
        maps.append(linalg.zero_matrix(F, dims[a.tgt - 1], dims[a.src - 1]))
    return QuiverRep(quiver, F, dims, tuple(maps))


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


@dataclass(frozen=True, eq=False)
class Submodule:
    """Arrow-invariant tuple of subspaces, one echelon basis per vertex.

    Bases are stored as rows in reduced echelon form, which makes
    equality of submodules literal equality of bases.
    """

    parent: QuiverRep
    rows: tuple[tuple, ...]  # per vertex: tuple of basis row tuples (RREF)
    pivots: tuple[tuple[int, ...], ...]
    _skip_check: bool = dc_field(default=False, repr=False)

    def __post_init__(self):
        if not self._skip_check and not _invariant(self.parent, self.rows, self.pivots):
            raise SchemaError("/submodule", "subspaces are not arrow-invariant")

    @property
    def dims(self) -> DimVector:
        return tuple(len(r) for r in self.rows)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    @property
    def is_full(self) -> bool:
        return self.dims == self.parent.dims

    def contains(self, other: "Submodule") -> bool:
        F = self.parent.field
        for v in range(self.parent.quiver.n):
            for row in other.rows[v]:
                if not linalg.in_span(F, row, self.rows[v], self.pivots[v]):
                    return False
        return True

    def sort_key(self):
        return (self.total_dim, self.dims, self.rows)

    def __eq__(self, other):
        if not isinstance(other, Submodule):
            return NotImplemented
        return self.parent.dims == other.parent.dims and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


def _invariant(rep: QuiverRep, rows, pivots) -> bool:
    F = rep.field
    for idx, a in enumerate(rep.quiver.arrows):
        src, tgt = a.src - 1, a.tgt - 1
        M = rep.maps[idx]
        for u in rows[src]:
            image = linalg.mat_vec(F, M, u)
            if not linalg.in_span(F, image, rows[tgt], pivots[tgt]):
                return False
    return True


def submodule_from_rows(rep: QuiverRep, raw_rows) -> Submodule:
    """Canonicalize arbitrary spanning rows per vertex into a Submodule."""
    rows, pivots = [], []
    for v in range(rep.quiver.n):
        R, P = linalg.rref(rep.field, raw_rows[v])
        rows.append(R)
        pivots.append(P)
    return Submodule(rep, tuple(rows), tuple(pivots))


def zero_submodule(rep: QuiverRep) -> Submodule:
    empty = tuple(tuple() for _ in rep.quiver.vertices)
    return Submodule(rep, empty, empty, _skip_check=True)


def full_submodule(rep: QuiverRep) -> Submodule:
    rows = tuple(linalg.identity_matrix(rep.field, d) for d in rep.dims)
    pivots = tuple(tuple(range(d)) for d in rep.dims)
    return Submodule(rep, rows, pivots, _skip_check=True)


def enumerate_submodules(rep: QuiverRep, cap: int = DEFAULT_CAP) -> list[Submodule]:
    """Every arrow-invariant subspace tuple, including 0 and rep itself.

    Per-vertex subspaces are enumerated in reduced echelon form and the
    product is filtered by invariance, so the output order is canonical
    (vertex 1 varies slowest) and free of duplicates.
    """
    F = rep.field
    if not F.is_finite:
        raise WrongFieldError("submodule enumeration needs a finite field; use the rational-field certificate route")
    if rep.total_dim > cap:
        raise CapExceededError(
            f"total dimension {rep.total_dim} exceeds the enumeration cap {cap}"
        )
    per_vertex = [linalg.subspaces(F.p, d) for d in rep.dims]
    out = []
    n = rep.quiver.n
    arrows = [
        (idx, a.src - 1, a.tgt - 1)
        for idx, a in enumerate(rep.quiver.arrows)
        if rep.dims[a.src - 1] > 0
    ]

    def descend(v, chosen):
        if v == n:
            rows = tuple(c[0] for c in chosen)
            pivots = tuple(c[1] for c in chosen)
            out.append(Submodule(rep, rows, pivots, _skip_check=True))
            return
        for cand in per_vertex[v]:
            chosen.append(cand)
            if _partial_invariant(rep, arrows, chosen, v):
                descend(v + 1, chosen)
            chosen.pop()

    descend(0, [])
    return out


def _partial_invariant(rep, arrows, chosen, upto) -> bool:
    # only arrows whose later endpoint is the vertex just chosen are new
    F = rep.field
    for idx, src, tgt in arrows:
        if max(src, tgt) != upto:
            continue
        rows_s, _ = chosen[src]
        rows_t, piv_t = chosen[tgt]
        M = rep.maps[idx]
        for u in rows_s:
            if not linalg.in_span(F, linalg.mat_vec(F, M, u), rows_t, piv_t):
                return False
    return True


def sub_rep(rep: QuiverRep, sub: Submodule) -> QuiverRep:
    """The submodule as a representation in its own echelon coordinates."""
    F = rep.field
    maps = []
    for idx, a in enumerate(rep.quiver.arrows):
        src, tgt = a.src - 1, a.tgt - 1
        M = rep.maps[idx]
        cols = []
        for u in sub.rows[src]:
            image = linalg.mat_vec(F, M, u)
            coords = linalg.span_coordinates(F, image, sub.rows[tgt], sub.pivots[tgt])
            if coords is None:
                raise SchemaError("/submodule", "subspaces are not arrow-invariant")
            cols.append(coords)
        r_t = len(sub.rows[tgt])
        maps.append(tuple(tuple(col[i] for col in cols) for i in range(r_t)))
    return QuiverRep(rep.quiver, F, sub.dims, tuple(maps))


def quotient(rep: QuiverRep, sub: Submodule) -> QuiverRep:
    """Quotient representation rep / sub with induced arrow maps."""
    return quotient_with_complement(rep, sub)[0]


def quotient_with_complement(rep: QuiverRep, sub: Submodule):
    """Quotient plus, per vertex, the non-pivot columns that model it.

    The quotient space at a vertex is identified with the span of the
    unit vectors at the non-pivot columns of the submodule basis; the
    identification is 'reduce modulo the basis, read off non-pivot
    coordinates'.
    """
    if sub.parent is not rep and sub.parent != rep:
        raise FieldMismatchError("submodule belongs to a different representation")
    F = rep.field
    complements = []
    for v in range(rep.quiver.n):
        complements.append(tuple(c for c in range(rep.dims[v]) if c not in sub.pivots[v]))
    qdims = tuple(len(c) for c in complements)
    maps = []
    for idx, a in enumerate(rep.quiver.arrows):
        src, tgt = a.src - 1, a.tgt - 1
        M = rep.maps[idx]
        cols = []
        for c in complements[src]:
            e = tuple(F.one if i == c else F.zero for i in range(rep.dims[src]))
            image = linalg.mat_vec(F, M, e)
            reduced = linalg.reduce_vector(F, image, sub.rows[tgt], sub.pivots[tgt])
            cols.append(tuple(reduced[cc] for cc in complements[tgt]))
        maps.append(tuple(tuple(col[i] for col in cols) for i in range(qdims[tgt])))
    return QuiverRep(rep.quiver, F, qdims, tuple(maps)), tuple(complements)


def lift_submodule(rep: QuiverRep, sub: Submodule, quot_sub: Submodule, complements) -> Submodule:
    """Preimage in rep of a submodule of the quotient rep/sub."""
    F = rep.field
    raw = []
    for v in range(rep.quiver.n):
        rows = list(sub.rows[v])
        for qrow in quot_sub.rows[v]:
            vec = [F.zero] * rep.dims[v]
            for coord, col in zip(qrow, complements[v]):
                vec[col] = coord
            rows.append(tuple(vec))
        raw.append(tuple(rows))
    return submodule_from_rows(rep, raw)


def compose_submodule(rep: QuiverRep, outer: Submodule, inner: Submodule) -> Submodule:
    """Submodule of rep from a submodule of sub_rep(rep, outer)."""
    F = rep.field
    raw = []
    for v in range(rep.quiver.n):
        rows = []
        for irow in inner.rows[v]:
            vec = [F.zero] * rep.dims[v]
            for coord, base in zip(irow, outer.rows[v]):
                for c, x in enumerate(base):
                    vec[c] = F.add(vec[c], F.mul(coord, x))
            rows.append(tuple(vec))
        raw.append(tuple(rows))
    return submodule_from_rows(rep, raw)


def all_ses(rep: QuiverRep, cap: int = DEFAULT_CAP):
    """All short exact sequences 0 -> A -> rep -> B -> 0 with A proper nonzero."""
    out = []
    for sub in enumerate_submodules(rep, cap):
        if sub.is_zero or sub.is_full:
            continue
        out.append((sub, quotient(rep, sub)))
    return out


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


def ext1_dim(M: QuiverRep, N: QuiverRep) -> int:
    """First extension-space dimension, defined by hom - euler for acyclic quivers."""
    val = hom_dim(M, N) - euler_form(M.quiver, M.dims, N.dims)
    return val
