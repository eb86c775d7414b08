"""Half-plane stability on the module category: semistability
certificates, the two independent filtration algorithms, masses, and
the charge-image discreteness test.

Both filtration routes must agree chain-for-chain; the second (peeling
minimal-phase quotients) exists precisely to oracle-check the first
(peeling maximal-phase subobjects).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import quivrep
from .errors import (
    InvariantViolation,
    StabilityFunctionError,
    UnsupportedScalarError,
    UnsupportedVerdictError,
    ZeroClassError,
    ZeroObjectError,
)
from .exactnum import (
    ExactComplex,
    Frozen,
    PhaseKey,
    QuadScalar,
    cross_sign,
    in_strict_upper_half,
    normalize_direction,
    sqrt_bounds,
)
from .quivrep import DimVector, QuiverRep, Submodule


class CentralCharge(Frozen):
    """Linear map Z^n -> C fixed by exact upper-half-plane values on simples."""

    __slots__ = ("values", "_phases", "_hn")

    def __init__(self, values: tuple[ExactComplex, ...]):
        object.__setattr__(self, "values", values)
        if not values:
            raise StabilityFunctionError("charge needs at least one value")
        for i, z in enumerate(values):
            if not in_strict_upper_half(z):
                raise StabilityFunctionError(
                    f"charge value {i + 1} = {z!r} is outside the strict upper half-plane"
                )
        ds = {s.d for z in values for s in (z.re, z.im) if isinstance(s, QuadScalar)}
        if len(ds) > 1:
            raise UnsupportedScalarError(f"charge mixes quadratic extensions {sorted(ds)}")
        object.__setattr__(self, "_phases", {})  # phase memo keyed by class; outside ==, hash and repr
        object.__setattr__(self, "_hn", {})  # slicing's HN-factor memo keyed by (rep, cap); outside them too

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def quad_d(self) -> int | None:
        for z in self.values:
            for s in (z.re, z.im):
                if isinstance(s, QuadScalar):
                    return s.d
        return None

    def of(self, alpha: DimVector) -> ExactComplex:
        if len(alpha) != self.n:
            raise ZeroClassError(f"class has length {len(alpha)}, charge expects {self.n}")
        re = im = Fraction(0)
        for a, z in zip(alpha, self.values):
            if a:
                re += z.re * a
                im += z.im * a
        return ExactComplex(re, im)


def phase(alpha: DimVector, Z: CentralCharge) -> PhaseKey:
    """PhaseKey of Z(alpha); k = 0 for classes of nonzero modules.

    Mixed-sign classes whose charge falls outside the half-plane are
    normalized to k = -1 so the key invariant holds; a vanishing charge
    has no phase at all.  Each class is computed once per charge.
    """
    key = tuple(alpha)
    if (got := Z._phases.get(key)) is None:
        z = Z.of(alpha)
        if z.is_zero:
            raise ZeroClassError(f"charge vanishes on class {alpha}")
        got = Z._phases[key] = normalize_direction(z)
    return got


class SemistabilityCertificate(NamedTuple):
    verdict: str  # "semistable" | "unstable"
    witness: Submodule | None = None
    witness_phase: PhaseKey | None = None
    object_phase: PhaseKey | None = None

    @property
    def is_semistable(self) -> bool:
        return self.verdict == "semistable"


def is_semistable(rep: QuiverRep, Z: CentralCharge, cap: int = quivrep.DEFAULT_CAP) -> SemistabilityCertificate:
    """Semistability with an explicit violating subobject when unstable.

    "phase(beta) > phase(dims)" is decided once per dimension-vector
    class beta; the field decides how a violating class is realized.
    Over a finite field the witness is the first submodule in canonical
    order whose class violates: the classes are read in order of first
    appearance in the lattice, and only the witness is built as a
    Submodule.  Over Q it is the first rigid violator
    (every component 0 or full) whose coordinate submodule is
    arrow-invariant; failing that, a violator with a partial component
    is refused rather than guessed.  Both scans are bounded by the cap.
    """
    if rep.is_zero:
        raise ZeroObjectError("semistability is undefined for the zero representation")
    own = phase(rep.dims, Z)

    def violation(beta):  # each caller visits a class once
        if any(beta) and beta != rep.dims and (ph := phase(beta, Z)).cmp(own) > 0:
            return ph
        return None

    if rep.field.is_finite:
        lattice = quivrep.enumerate_submodules(rep, cap)
        for beta, index in lattice.classes():
            if (ph := violation(beta)) is not None:
                return SemistabilityCertificate("unstable", lattice.member(index), ph, own)
        return SemistabilityCertificate("semistable", None, None, own)
    partial = None
    for beta in quivrep.sub_dims(rep, cap):
        if (ph := violation(beta)) is None:
            continue
        if any(0 < b < d for b, d in zip(beta, rep.dims)):
            partial = partial or beta
        elif (sub := quivrep.coordinate_submodule(rep, beta)) is not None:
            return SemistabilityCertificate("unstable", sub, ph, own)
    if partial is not None:
        raise UnsupportedVerdictError(
            "no finite semistability certificate over Q: the destabilizing candidate "
            f"dimension vector {partial} has a partial component and cannot be decided at desk scale"
        )
    return SemistabilityCertificate("semistable", None, None, own)


class HNFiltration(Frozen):
    """Chain 0 = E_0 < E_1 < ... < E_n = E with semistable factors of
    strictly descending phase."""

    __slots__ = ("rep", "chain", "factors", "phases")

    def __init__(self, rep: QuiverRep, chain: tuple[Submodule, ...], factors: tuple[QuiverRep, ...],
                 phases: tuple[PhaseKey, ...]):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "chain", chain)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "phases", phases)
        for i in range(1, len(phases)):
            if phases[i - 1].cmp(phases[i]) <= 0:
                raise InvariantViolation("filtration phases are not strictly descending")
        total = tuple(0 for _ in rep.dims)
        for f in factors:
            total = quivrep.dim_add(total, f.dims)
        if total != rep.dims:
            raise InvariantViolation("factor dimension vectors do not sum to the total")
        for a, b in zip(chain, chain[1:]):
            if not b.contains(a):
                raise InvariantViolation("filtration chain is not ascending")

    @property
    def length(self) -> int:
        return len(self.factors)

    def same_chain(self, other: "HNFiltration") -> bool:
        return (
            [s.rows for s in self.chain] == [s.rows for s in other.chain]
            and [f.dims for f in self.factors] == [f.dims for f in other.factors]
            and all(p.cmp(q) == 0 for p, q in zip(self.phases, other.phases))
        )


def _check_factors_semistable(filt: HNFiltration, Z: CentralCharge, cap: int):
    for f in filt.factors:
        if not is_semistable(f, Z, cap).is_semistable:
            raise InvariantViolation("a filtration factor is not semistable")


def _filtration(rep: QuiverRep, chain: list[Submodule], phases: list[PhaseKey]) -> HNFiltration:
    factors = tuple(quivrep.subquotient(rep, a, b) for a, b in zip(chain, chain[1:]))
    return HNFiltration(rep, tuple(chain), factors, tuple(phases))


def hn_filtration_max_sub(rep: QuiverRep, Z: CentralCharge, cap: int = quivrep.DEFAULT_CAP,
                          validate: bool = True) -> HNFiltration:
    """Filtration by repeated extraction of the maximal-phase subobject.

    The submodules of rep are enumerated once.  Above the current step A
    they are the submodules C > A, which correspond to the nonzero
    submodules C/A of the quotient rep/A.  Among them take those where
    phase(C/A) is maximal, among those the unique one of maximal total
    dimension; it is the next step, the only member built as a Submodule.
    Non-uniqueness is an internal-invariant violation, not a tie to be broken.
    """
    if rep.is_zero:
        raise ZeroObjectError("the zero representation has no filtration")
    subs = quivrep.enumerate_submodules(rep, cap)
    chain = [quivrep.zero_submodule(rep)]
    phases: list[PhaseKey] = []
    while not chain[-1].is_full:
        A = chain[-1]
        above = subs.walk(A)
        # phase(C/A) is compared once per class; max keeps the first maximal class in run order
        by_class = {beta: phase(quivrep.dim_sub(beta, A.dims), Z)
                    for beta in dict.fromkeys(beta for beta, _, _ in above)}
        best = max(by_class.values())
        top_classes = {beta for beta, p in by_class.items() if p == best}
        maxdim = max(total_dim for beta, total_dim, _ in above if beta in top_classes)
        top = [indices for beta, total_dim, indices in above if beta in top_classes and total_dim == maxdim]
        if (count := sum(map(len, top))) != 1:
            raise InvariantViolation(
                "maximal-phase subobject of maximal dimension is not unique; "
                f"{count} candidates of dimension {maxdim - A.total_dim}"
            )
        chain.append(subs.member(top[0][0]))
        phases.append(best)
    filt = _filtration(rep, chain, phases)
    if validate:
        _check_factors_semistable(filt, Z, cap)
    return filt


def _mdq_kernel(current: Submodule, subs: quivrep.SubmoduleLattice, Z: CentralCharge) -> Submodule:
    """Kernel of a maximally destabilising quotient of current.

    The kernels of the quotients of current are the members of its
    parent's submodule list subs that lie inside it.  A quotient
    current ->> B is maximally destabilising when every nonzero quotient
    B' has phase >= phase(B), with equality only if it factors through
    B; in kernel terms: phase(current/K) is minimal and K is contained
    in every kernel realizing the minimum.  Both conditions are verified
    exhaustively: K is a tied kernel of least total dimension, and every
    other tied kernel must contain it, so the tied members strictly between
    K and current number one fewer than the tied kernels (a second one of
    K's dimension fails); only K is built as a Submodule.
    Failure cannot happen in a finite-length module category and is
    therefore reported as an invariant violation.
    """
    kernels = subs.walk(upper=current)
    by_class = {beta: phase(quivrep.dim_sub(current.dims, beta), Z)
                for beta in dict.fromkeys(beta for beta, _, _ in kernels)}
    best = min(by_class.values())
    low_classes = {beta for beta, p in by_class.items() if p == best}
    tied = [(total_dim, indices) for beta, total_dim, indices in kernels if beta in low_classes]
    K = subs.member(min((total_dim, indices[0]) for total_dim, indices in tied)[1])
    count = sum(len(indices) for _, indices in tied)
    if count > 1 and count - 1 != sum(len(indices) for beta, _, indices in subs.walk(K, current)
                                       if beta in low_classes):
        raise InvariantViolation(
            "no maximally destabilising quotient: phase-minimal quotients do not factor through a common one"
        )
    return K


def hn_filtration_mdq(rep: QuiverRep, Z: CentralCharge, cap: int = quivrep.DEFAULT_CAP,
                      validate: bool = True) -> HNFiltration:
    """Filtration by repeatedly peeling a maximally destabilising quotient.

    The submodules of rep are enumerated once.  Starting from rep, peel
    the current step ->> B with kernel K (see :func:`_mdq_kernel`) and
    continue with K until it is zero; reversing the discovered chain
    yields the ascending one.  Must agree exactly with
    :func:`hn_filtration_max_sub`.
    """
    if rep.is_zero:
        raise ZeroObjectError("the zero representation has no filtration")
    subs = quivrep.enumerate_submodules(rep, cap)
    chain_desc = [quivrep.full_submodule(rep)]
    phases_rev: list[PhaseKey] = []
    while not chain_desc[-1].is_zero:
        K = _mdq_kernel(chain_desc[-1], subs, Z)
        phases_rev.append(phase(quivrep.dim_sub(chain_desc[-1].dims, K.dims), Z))
        chain_desc.append(K)
    filt = _filtration(rep, chain_desc[::-1], phases_rev[::-1])
    if validate:
        _check_factors_semistable(filt, Z, cap)
    return filt


class MassEstimate(NamedTuple):
    value: float
    error_bound: float
    exact: Fraction  # the exact sum of enclosure midpoints that value rounds


def mass(values: list[ExactComplex]) -> MassEstimate:
    """Sum of |z| over the charges of the decomposition factors, as a
    float with a bound.

    Each |z| is bracketed by integer-square-root enclosures of the exact
    squared modulus (width < 2**-69), the enclosure midpoints are summed
    exactly, and only the final sum is rounded to a float; the reported
    bound covers both stages and stays below 2**-40 at desk scale.
    """
    total = Fraction(0)
    slack = Fraction(0)
    for z in values:
        lo, hi = sqrt_bounds(z.abs_squared(), 70)
        total += (lo + hi) / 2
        slack += (hi - lo) / 2
    value = float(total)
    bound = float(slack) + abs(value) * 2.0 ** -52 + 2.0 ** -60
    return MassEstimate(value, bound, total)


class DiscretenessReport(NamedTuple):
    verdict: str  # "discrete" | "non_discrete"
    z_rank: int
    real_span_dim: int
    basis: tuple[tuple[int, ...], ...]
    explanation: str


def _hnf_rows(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Row span basis of an integer matrix via unimodular row reduction."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, len(work)) if work[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(work[i][c]))
            work[r], work[i0] = work[i0], work[r]
            done = True
            for i in range(r + 1, len(work)):
                if work[i][c] != 0:
                    f = work[i][c] // work[r][c]
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
                    if work[i][c] != 0:
                        done = False
            if done:
                if work[r][c] < 0:
                    work[r] = [-x for x in work[r]]
                r += 1
                break
    return [tuple(row) for row in work[:r]]


def check_discreteness(Z: CentralCharge) -> DiscretenessReport:
    """Decide whether the charge image is a discrete subgroup of the plane.

    Expand every value over the basis {1, sqrt(D)} x {1, i} into Q^4,
    compute an integer basis of the generated subgroup, and compare its
    rank with the real dimension it spans: a finitely generated subgroup
    of R^2 is discrete exactly when a Z-basis stays linearly independent
    over R.  All decisions are exact sign computations in Q(sqrt(D)).
    """
    d = Z.quad_d
    vectors = []
    for z in Z.values:
        row = []
        for s in (z.re, z.im):
            if isinstance(s, QuadScalar):
                row.extend([s.a, s.b])
            else:
                row.extend([Fraction(s), Fraction(0)])
        vectors.append(row)
    denom = 1
    for row in vectors:
        for x in row:
            denom = denom * x.denominator // math.gcd(denom, x.denominator)
    int_rows = [[int(x * denom) for x in row] for row in vectors]
    basis = _hnf_rows(int_rows)
    r = len(basis)
    images = []
    for row in basis:
        if d is None:
            re = Fraction(row[0])
            im = Fraction(row[2])
        else:
            re = QuadScalar(Fraction(row[0]), Fraction(row[1]), d)
            im = QuadScalar(Fraction(row[2]), Fraction(row[3]), d)
        images.append(ExactComplex(re, im))
    span_dim = 0
    if any(not w.is_zero for w in images):
        span_dim = 2 if any(cross_sign(u, w) for u, w in itertools.combinations(images, 2)) else 1
    discrete = r == span_dim
    verdict = "discrete" if discrete else "non_discrete"
    explanation = (
        f"charge image is generated by {r} independent vector(s) over Z "
        f"spanning a {span_dim}-dimensional real subspace: "
        + ("a lattice, hence discrete" if discrete else "rank exceeds real span, hence dense in a line or the plane")
    )
    return DiscretenessReport(verdict, r, span_dim, tuple(basis), explanation)
