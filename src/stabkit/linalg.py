"""Exact dense linear algebra over F_p (p in {2,3,5,7}) and Q.

Matrices are tuples of row tuples; entries are small ints (finite case)
or Fractions.  Everything here is deterministic: reduced row echelon
form is the canonical representative for row spans, and the subspace
enumerator yields echelon bases in a fixed lexicographic order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedScalarError, WrongFieldError
from .exactnum import parse_rational

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

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(x, self.p - 2, self.p)

    def coerce(self, v) -> int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise UnsupportedScalarError(f"entries over {self.name} must be integers, got {v!r}")
        return v % self.p

    def elements(self):
        return range(self.p)

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

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(x)

    def coerce(self, v) -> Fraction:
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        if isinstance(v, str):
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


def _dotrow(F, row, B, j):
    acc = F.zero
    for t, x in enumerate(row):
        if x != F.zero:
            acc = F.add(acc, F.mul(x, B[t][j]))
    return acc


def mat_vec(F: Field, A, v):
    """A @ v for a column vector given as a flat tuple."""
    return tuple(_dotrow(F, row, tuple((x,) for x in v), 0) for row in A)


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
        f = out[c]
        if f != F.zero:
            out = [F.sub(x, F.mul(f, y)) for x, y in zip(out, row)]
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


@lru_cache(maxsize=None)
def subspaces(p: int, dim: int):
    """All subspaces of F_p^dim as (RREF rows, pivots), canonically ordered.

    Order: ascending rank, then pivot-column sets lexicographically, then
    free entries lexicographically over 0..p-1.  Every subspace appears
    exactly once because RREF bases are unique.
    """
    F = PrimeField(p)
    out = [(tuple(), tuple())]
    for r in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free_slots = [
                (i, c)
                for i in range(r)
                for c in range(dim)
                if c > pivots[i] and c not in pivots
            ]
            for values in itertools.product(F.elements(), repeat=len(free_slots)):
                rows = [[F.zero] * dim for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = F.one
                for (i, c), v in zip(free_slots, values):
                    rows[i][c] = v
                out.append((tuple(tuple(row) for row in rows), tuple(pivots)))
    return tuple(out)
