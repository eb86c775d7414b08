import itertools
import pickle
import random
from fractions import Fraction

import pytest

from stabkit import linalg
from stabkit.errors import UnsupportedScalarError, WrongFieldError
from stabkit.linalg import FIELDS, PrimeField

from support import gaussian_binomial


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


def test_subspace_table_builds_its_rows_on_first_read():
    slot = linalg.SubspaceTable.rows.__get__  # reads the slot without the first-read build
    for p, dim in ((2, 0), (3, 4), (7, 5)):
        table = linalg.SubspaceTable(p, dim)
        assert len(table) == table.pivot_sets[-1][1].stop == sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
        assert table.whole == linalg.identity_matrix(PrimeField(p), dim)
        with pytest.raises(AttributeError):
            slot(table)
        if p < 7:  # F7^5 has 285,704 subspaces, counted above and not built
            assert table.rows is slot(table) and len(table.rows) == len(table) and table.rows[-1] == table.whole
        # equality, hash, repr and pickling go by (p, dim), built rows or not
        fresh = pickle.loads(pickle.dumps(table))
        assert fresh == table and hash(fresh) == hash(table) and repr(fresh) == f"SubspaceTable(p={p}, dim={dim})"
        with pytest.raises(AttributeError):
            slot(fresh)
    assert linalg.SubspaceTable(2, 3) != linalg.SubspaceTable(3, 2)
    with pytest.raises(AttributeError, match="has no attribute 'row'"):
        linalg.SubspaceTable(2, 2).row


def filtered_interval(p: int, dim: int, lower, upper) -> list:
    """The subspaces between two RREF bases by a test of every table entry: the reference for
    ``linalg.subspace_interval``."""
    F, table = PrimeField(p), linalg.subspaces(p, dim)
    tops = tuple(row.index(1) for row in upper)
    out = []
    for pivots, indices in table.pivot_sets:
        keep = [i for i in indices if all(linalg.in_span(F, u, table.rows[i], pivots) for u in lower)
                and all(linalg.in_span(F, row, upper, tops) for row in table.rows[i])]
        if keep:
            out.append((pivots, keep))
    return out


def interval_pairs(p: int, dim: int, rng=None, count=None):
    """Every pair lower <= upper of subspaces of F_p^dim, or count seeded ones."""
    F, rows = PrimeField(p), linalg.subspaces(p, dim).rows
    if rng is None:
        return [(lower, upper) for upper in rows for lower in rows
                if all(linalg.in_span(F, u, upper, tuple(r.index(1) for r in upper)) for u in lower)]
    pairs = []
    for _ in range(count):
        upper = rng.choice(rows)
        combos = [[rng.randrange(p) for _ in upper] for _ in range(rng.randint(0, len(upper)))]
        lower = linalg.rref(F, [[sum(x * row[c] for x, row in zip(combo, upper)) % p for c in range(dim)]
                                for combo in combos])[0]
        pairs.append((lower, upper))
    return pairs


@pytest.mark.parametrize("p, dim, count", [(2, 3, None), (3, 2, None), (2, 4, None), (5, 3, 150), (7, 3, 150)])
def test_subspace_interval_matches_the_filter(p, dim, count):
    pairs = interval_pairs(p, dim, random.Random(f"{p}/{dim}") if count else None, count)
    assert count or len(pairs) == {(2, 3): 66, (3, 2): 15, (2, 4): 513}[p, dim]
    for lower, upper in pairs:
        got = linalg.subspace_interval(p, dim, lower, upper)
        assert [(pivots, list(indices)) for pivots, indices in got] == filtered_interval(p, dim, lower, upper)


def test_subspace_interval_of_the_whole_space_is_the_table():
    for p, dim in ((2, 0), (2, 3), (7, 3)):
        table = linalg.subspaces(p, dim)
        before = linalg._interval.cache_info()
        assert linalg.subspace_interval(p, dim, (), table.rows[-1]) is table.pivot_sets
        assert linalg._interval.cache_info() == before


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
