"""Exact dense linear algebra over F_p (p in {2,3,5,7}) and Q.

Matrices are tuples of row tuples; entries are small ints (finite case)
or Fractions.  Everything here is deterministic: reduced row echelon
form is the canonical representative for row spans, and the subspace
enumerator yields echelon bases in a fixed lexicographic order.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import UnsupportedScalarError, WrongFieldError
from .exactnum import Frozen, parse_rational

SUPPORTED_PRIMES = (2, 3, 5, 7)


class PrimeField:
    """Arithmetic mod a small prime; elements are ints in [0, p)."""

    is_finite = True

    def __init__(self, p: int):
        if p not in SUPPORTED_PRIMES:
            raise WrongFieldError(f"supported finite fields are F_p for p in {SUPPORTED_PRIMES}, got p={p}")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def coerce(self, v) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise UnsupportedScalarError(f"entries over {self.name} must be integers, got {v!r}")
        return v % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return self.name


class RationalField:
    """Exact rationals via fractions.Fraction."""

    is_finite = False
    name = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(x)

    def coerce(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, str)):
            return parse_rational(v)
        raise UnsupportedScalarError(f"entries over Q must be integers or 'a/b' strings, got {v!r}")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


Field = PrimeField | RationalField

FIELDS = {"Q": RationalField(), **{f"F{p}": PrimeField(p) for p in SUPPORTED_PRIMES}}


def field_by_name(name: str) -> Field:
    if name not in FIELDS:
        raise WrongFieldError(f"unknown field {name!r}; choose one of {sorted(FIELDS)}")
    return FIELDS[name]


def mat_vec(F: Field, A, v):
    """A @ v for a column vector given as a flat tuple."""
    out = []
    for row in A:
        acc = F.zero
        for x, y in zip(row, v):
            if x != F.zero:
                acc = F.add(acc, F.mul(x, y))
        out.append(acc)
    return tuple(out)


def identity_matrix(F: Field, n: int):
    return tuple(tuple(F.one if i == j else F.zero for j in range(n)) for i in range(n))


def zero_matrix(F: Field, rows: int, cols: int):
    return tuple(tuple(F.zero for _ in range(cols)) for _ in range(rows))


def rref(F: Field, rows) -> tuple[tuple, tuple[int, ...]]:
    """Reduced row echelon form: nonzero rows only, plus pivot columns."""
    work = [list(r) for r in rows]
    if not work:
        return tuple(), tuple()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != F.zero:
                f = work[i][c]
                work[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def reduce_vector(F: Field, v, basis_rows, pivots):
    """Remainder of v after eliminating the pivot coordinates of an RREF basis."""
    out = list(v)
    for row, c in zip(basis_rows, pivots):
        if f := out[c]:  # entries of both fields are false exactly at zero
            for j, y in enumerate(row):
                if y:
                    out[j] = F.sub(out[j], F.mul(f, y))
    return tuple(out)


def in_span(F: Field, v, basis_rows, pivots) -> bool:
    return all(x == F.zero for x in reduce_vector(F, v, basis_rows, pivots))


def span_coordinates(F: Field, v, basis_rows, pivots):
    """Coordinates of v in an RREF basis, or None if v is outside the span."""
    coords = tuple(v[c] for c in pivots)
    if not in_span(F, v, basis_rows, pivots):
        return None
    return coords


def rank(F: Field, rows) -> int:
    return len(rref(F, rows)[0])


def perp(F: Field, rows, pivots, dim: int) -> tuple:
    """The vectors a with a . r = 0 for every row r of an RREF basis (pivots) of F^dim, one
    e_c - sum_i rows[i][c] e_{pivots[i]} per non-pivot column c: the equations of the span
    (x lies in it iff every a . x = 0), or the kernel of a matrix in RREF."""
    out = []
    for c in range(dim):
        if c not in pivots:
            a = [F.zero] * dim
            a[c] = F.one
            for row, q in zip(rows, pivots):
                a[q] = F.sub(F.zero, row[c])
            out.append(tuple(a))
    return tuple(out)


class SubspaceTable(Frozen):
    """All subspaces of F_p^dim by their RREF rows, canonically ordered.

    Order: ascending rank, then pivot-column sets lexicographically, then
    free entries lexicographically over 0..p-1, row by row.  Every
    subspace appears exactly once because RREF bases are unique.
    ``pivot_sets`` holds one ``(pivots, range of their indices)`` per
    pivot set, whose subspaces are consecutive; a pivot set with f free
    entries has p**f of them, so ``pivot_sets`` and ``len`` are counted.
    ``whole`` holds the echelon rows of the whole space (the identity),
    the last subspace.  No subspace is stored: the bases of one pivot set
    are the product of per-row tables, one echelon row per value of that
    row's free entries, and the table keeps those (5,456 rows for the
    285,704 subspaces of F_7^5).  :meth:`row` decodes a subspace's rows
    from its index.  A table is determined by ``(p, dim)``: ``==``,
    ``hash``, ``repr`` and pickling go by that pair.
    """

    __slots__ = ("p", "dim", "pivot_sets", "whole", "_indices", "_starts", "_choices")

    def __init__(self, p: int, dim: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        pivot_sets, choices, first = [], [], 0
        for r in range(dim + 1):
            for pivots in itertools.combinations(range(dim), r):
                per_row = []
                for c0 in pivots:  # e_{c0} plus a free entry at each later column that is not a pivot
                    later = [(0,) if c in pivots else range(p) for c in range(c0 + 1, dim)]
                    per_row.append(tuple([(0,) * c0 + (1,) + tail for tail in itertools.product(*later)]))
                count = math.prod(map(len, per_row))
                pivot_sets.append((pivots, range(first, first + count)))
                choices.append(per_row[::-1])
                first += count
        object.__setattr__(self, "pivot_sets", tuple(pivot_sets))
        object.__setattr__(self, "whole", identity_matrix(PrimeField(p), dim))
        object.__setattr__(self, "_indices", range(first))
        object.__setattr__(self, "_starts", tuple(seq.start for _, seq in pivot_sets))
        object.__setattr__(self, "_choices", tuple(choices))

    def row(self, i: int) -> tuple:
        """The echelon rows of subspace i: its pivot set by bisection over their first indices,
        then its offset there as the base-p numeral of the free entries, row by row, the last
        entry least significant, so each row's digits index that row's table.  A negative index
        counts from the end, and one out of range raises IndexError."""
        i = self._indices[i]
        k = bisect.bisect_right(self._starts, i) - 1
        j, out = i - self._starts[k], []
        for choices in self._choices[k]:  # last row first
            j, d = divmod(j, len(choices))
            out.append(choices[d])
        out.reverse()
        return tuple(out)

    def __len__(self):
        return len(self._indices)

    def _values(self) -> tuple:
        return self.p, self.dim

    def __repr__(self):
        return f"SubspaceTable(p={self.p}, dim={self.dim})"


subspaces = lru_cache(maxsize=None)(SubspaceTable)  # one table per (p, dim)


def subspace_interval(p: int, dim: int, lower: tuple, upper: tuple) -> tuple:
    """The subspaces S of F_p^dim with span(lower) <= S <= span(upper), for RREF bases lower and
    upper, as one ``(pivots, ascending indices into subspaces(p, dim))`` segment per pivot set
    that has any.  With lower 0 and upper everything this is the table's own ``pivot_sets``;
    other intervals are solved once and kept in a cache of the last 4096."""
    if not lower and len(upper) == dim:
        return subspaces(p, dim).pivot_sets
    return _interval(p, dim, lower, upper)


@lru_cache(maxsize=4096)
def _interval(p: int, dim: int, lower: tuple, upper: tuple) -> tuple:
    # With pivots P, row i of S is e_{P_i} plus a free entry x at each column c > P_i not in P,
    # and S's index in its pivot set is the base-p numeral of the free entries, row by row.
    # Both bounds are linear in them: each u in lower is sum_i u[P_i] row_i at every column not
    # in P, and every equation a of upper has a . row_i = 0.  The system is reduced with its
    # free entries in reverse, so each solved entry depends on unsolved entries before it only,
    # and the unsolved ones, taken in lexicographic order, give ascending indices.
    F = PrimeField(p)
    leads = {row.index(1) for row in lower}
    tops = tuple(row.index(1) for row in upper)
    equations = perp(F, upper, tops, dim)
    out = []
    for pivots, seq in subspaces(p, dim).pivot_sets:
        if not leads.issubset(pivots) or not set(pivots).issubset(tops):
            continue
        slots = [(i, c) for i, c0 in enumerate(pivots) for c in range(c0 + 1, dim) if c not in pivots][::-1]
        n = len(slots)
        system = [[u[pivots[r]] if col == c else 0 for r, col in slots] + [u[c]]
                  for u in lower for c in range(dim) if c not in pivots]
        system += [[a[col] if r == i else 0 for r, col in slots] + [-a[c0] % p]
                   for a in equations for i, c0 in enumerate(pivots)]
        rows, cols = rref(F, system)
        if cols and cols[-1] == n:
            continue  # no solution
        solved = {n - 1 - j: row for row, j in zip(rows, cols)}
        if not solved:
            out.append((pivots, seq))
            continue
        free = [s for s in range(n) if s not in solved]
        weights = [p ** (n - 1 - s) for s in free]
        terms = [(p ** (n - 1 - k), row[n], [-row[n - 1 - s] % p for s in free]) for k, row in solved.items()]
        indices = []
        for values in itertools.product(range(p), repeat=len(free)):
            index = seq.start + sum(map(mul, values, weights))
            for weight, b, coeffs in terms:
                index += weight * ((b + sum(map(mul, coeffs, values))) % p)
            indices.append(index)
        out.append((pivots, tuple(indices)))
    return tuple(out)
