import itertools
import random
from fractions import Fraction

import pytest

from stabkit import linalg
from stabkit.errors import UnsupportedScalarError, WrongFieldError
from stabkit.linalg import FIELDS, PrimeField


def nested_loop_subspaces(p: int, dim: int):
    """The slot-by-slot construction of every echelon basis, kept as the
    reference for ``linalg.subspaces``."""
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


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def table_pairs(table: linalg.SubspaceTable) -> tuple:
    """The table read as one (rows, pivots) pair per subspace."""
    assert [i for _, indices in table.pivot_sets for i in indices] == list(range(len(table)))
    return tuple((table.rows[i], pivots) for pivots, indices in table.pivot_sets for i in indices)


@pytest.mark.parametrize("p, max_dim", [(2, 6), (3, 5), (5, 4), (7, 3)])
def test_subspaces_match_the_nested_loop_construction(p, max_dim):
    F = PrimeField(p)
    for dim in range(max_dim + 1):
        got = table_pairs(linalg.subspaces(p, dim))
        assert got == nested_loop_subspaces(p, dim)
        assert len(got) == sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
        shared: dict = {}
        for rows, pivots in got:
            assert linalg.rref(F, rows) == (rows, pivots)
            for row in rows:
                # equal rows of one pivot set are one tuple
                assert row is shared.setdefault((pivots, row), row)


def list_formula_reduce_vector(F, v, basis_rows, pivots):
    """A new list per eliminated pivot row: the reference for ``linalg.reduce_vector``."""
    out = list(v)
    for row, c in zip(basis_rows, pivots):
        f = out[c]
        if f != F.zero:
            out = [F.sub(x, F.mul(f, y)) for x, y in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize("name", ["F2", "F3", "F5", "F7", "Q"])
def test_reduce_vector_matches_the_list_formula(name):
    F = FIELDS[name]
    rng = random.Random(name)

    def entry():
        if F.is_finite:
            return rng.randrange(F.p)
        return Fraction(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 4))

    for _ in range(200):
        dim = rng.randint(1, 6)
        basis, pivots = linalg.rref(F, [[entry() for _ in range(dim)] for _ in range(rng.randint(0, dim))])
        v = tuple(entry() for _ in range(dim))
        got = linalg.reduce_vector(F, v, basis, pivots)
        assert got == list_formula_reduce_vector(F, v, basis, pivots)
        assert [type(x) for x in got] == [type(x) for x in v]
        assert linalg.in_span(F, v, basis, pivots) == (not any(got))


def test_subspace_table_holds_no_per_subspace_pair():
    table = linalg.subspaces(5, 5)
    assert type(table) is linalg.SubspaceTable and len(table) == len(table.rows) == 42176
    # every entry is the rows tuple itself: no (rows, pivots) pair, no pivots copy
    assert all(type(rows) is tuple and all(len(row) == 5 for row in rows) for rows in table.rows)
    assert [pivots for pivots, _ in table.pivot_sets] == [
        pivots for r in range(6) for pivots in itertools.combinations(range(5), r)]


def test_field_refusals():
    with pytest.raises(WrongFieldError, match=r"^supported finite fields are F_p for p in \(2, 3, 5, 7\), got p=4$"):
        PrimeField(4)
    for F in (FIELDS["F3"], FIELDS["Q"]):
        with pytest.raises(ZeroDivisionError, match="^inverse of 0$"):
            F.inv(0)
    for value in (True, 1.5):
        with pytest.raises(UnsupportedScalarError, match=f"^entries over F3 must be integers, got {value!r}$"):
            FIELDS["F3"].coerce(value)
    with pytest.raises(UnsupportedScalarError, match="^entries over Q must be integers or 'a/b' strings, got 1.5$"):
        FIELDS["Q"].coerce(1.5)
