"""Half-plane stability on the module category: semistability
certificates, the two independent filtration algorithms, masses, and
the charge-image discreteness test.

Both filtration routes must agree chain-for-chain; the second (peeling
minimal-phase quotients) exists precisely to oracle-check the first
(peeling maximal-phase subobjects).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import linalg, quivrep
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
    PhaseKey,
    QuadScalar,
    cross,
    in_strict_upper_half,
    normalize_direction,
    sign_of,
    sqrt_bounds,
)
from .quivrep import DimVector, QuiverRep, Submodule


@dataclass(frozen=True)
class CentralCharge:
    """Linear map Z^n -> C fixed by exact upper-half-plane values on simples."""

    values: tuple[ExactComplex, ...]

    def __post_init__(self):
        if not self.values:
            raise StabilityFunctionError("charge needs at least one value")
        for i, z in enumerate(self.values):
            if not in_strict_upper_half(z):
                raise StabilityFunctionError(
                    f"charge value {i + 1} = {z!r} is outside the strict upper half-plane"
                )
        ds = {s.d for z in self.values for s in (z.re, z.im) if isinstance(s, QuadScalar)}
        if len(ds) > 1:
            raise UnsupportedScalarError(f"charge mixes quadratic extensions {sorted(ds)}")

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
        acc_re = Fraction(0)
        acc_im = Fraction(0)
        acc = ExactComplex(acc_re, acc_im)
        for a, z in zip(alpha, self.values):
            if a:
                acc = acc + z.scale(a)
        return acc


def phase(alpha: DimVector, Z: CentralCharge) -> PhaseKey:
    """PhaseKey of Z(alpha); k = 0 for classes of nonzero modules.

    Mixed-sign classes whose charge falls outside the half-plane are
    normalized to k = -1 so the key invariant holds; a vanishing charge
    has no phase at all.
    """
    z = Z.of(alpha)
    if z.is_zero:
        raise ZeroClassError(f"charge vanishes on class {alpha}")
    return normalize_direction(z)


@dataclass(frozen=True)
class SemistabilityCertificate:
    verdict: str  # "semistable" | "unstable"
    witness: Submodule | None = None
    witness_phase: PhaseKey | None = None
    object_phase: PhaseKey | None = None

    @property
    def is_semistable(self) -> bool:
        return self.verdict == "semistable"


def is_semistable(rep: QuiverRep, Z: CentralCharge, cap: int = quivrep.DEFAULT_CAP) -> SemistabilityCertificate:
    """Semistability with an explicit violating subobject when unstable.

    Over a finite field this is an exhaustive scan of the submodule list
    in canonical order; the witness is the first violator found.  Over Q
    only dimension-vector certificates are attempted (see
    :func:`_rational_certificate`), and anything else is refused.
    """
    if rep.is_zero:
        raise ZeroObjectError("semistability is undefined for the zero representation")
    if not rep.field.is_finite:
        return _rational_certificate(rep, Z)
    own = phase(rep.dims, Z)
    for sub in quivrep.enumerate_submodules(rep, cap):
        if sub.is_zero or sub.is_full:
            continue
        ph = phase(sub.dims, Z)
        if ph.cmp(own) > 0:
            return SemistabilityCertificate("unstable", sub, ph, own)
    return SemistabilityCertificate("semistable", None, None, own)


def _rational_certificate(rep: QuiverRep, Z: CentralCharge) -> SemistabilityCertificate:
    """Finite certificates over Q, or an explicit refusal.

    Every violating sub-dimension-vector is examined: if none exists the
    representation is semistable outright.  A violator whose components
    are all 0 or full is rigid: the only subspace tuple realizing it is
    the coordinate one, so arrow invariance decides realizability
    exactly (witness if invariant, unrealizable otherwise).  A violator
    with a genuinely partial component is quiver-Grassmannian territory
    and forces a refusal rather than a guess.
    """
    own = phase(rep.dims, Z)
    F = rep.field
    undecidable = None
    for beta in product(*[range(d + 1) for d in rep.dims]):
        if not any(beta) or beta == rep.dims:
            continue
        if phase(beta, Z).cmp(own) <= 0:
            continue
        if any(0 < b < d for b, d in zip(beta, rep.dims)):
            if undecidable is None:
                undecidable = beta
            continue
        S = {v for v in range(rep.quiver.n) if beta[v] > 0}
        invariant = True
        for idx, a in enumerate(rep.quiver.arrows):
            if (a.src - 1) in S and (a.tgt - 1) not in S:
                if any(x != F.zero for row in rep.maps[idx] for x in row):
                    invariant = False
                    break
        if not invariant:
            continue
        rows = tuple(
            linalg.identity_matrix(F, rep.dims[v]) if v in S else tuple()
            for v in range(rep.quiver.n)
        )
        pivots = tuple(
            tuple(range(rep.dims[v])) if v in S else tuple()
            for v in range(rep.quiver.n)
        )
        sub = Submodule(rep, rows, pivots)
        return SemistabilityCertificate("unstable", sub, phase(beta, Z), own)
    if undecidable is not None:
        raise UnsupportedVerdictError(
            "no finite semistability certificate over Q: the destabilizing candidate "
            f"dimension vector {undecidable} has a partial component and cannot be decided at desk scale"
        )
    return SemistabilityCertificate("semistable", None, None, own)


@dataclass(frozen=True)
class HNFiltration:
    """Chain 0 = E_0 < E_1 < ... < E_n = E with semistable factors of
    strictly descending phase."""

    rep: QuiverRep
    chain: tuple[Submodule, ...]
    factors: tuple[QuiverRep, ...]
    phases: tuple[PhaseKey, ...]

    def __post_init__(self):
        for i in range(1, len(self.phases)):
            if self.phases[i - 1].cmp(self.phases[i]) <= 0:
                raise InvariantViolation("filtration phases are not strictly descending")
        total = tuple(0 for _ in self.rep.dims)
        for f in self.factors:
            total = quivrep.dim_add(total, f.dims)
        if total != self.rep.dims:
            raise InvariantViolation("factor dimension vectors do not sum to the total")
        for a, b in zip(self.chain, self.chain[1:]):
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


def hn_filtration_max_sub(rep: QuiverRep, Z: CentralCharge, cap: int = quivrep.DEFAULT_CAP,
                          validate: bool = True) -> HNFiltration:
    """Filtration by recursive extraction of the maximal-phase subobject.

    Among all nonzero submodules take those of maximal phase, among those
    the unique one of maximal total dimension; it is the first step of
    the filtration, and the rest is the filtration of the quotient,
    lifted back.  Non-uniqueness is an internal-invariant violation, not
    a tie to be broken.
    """
    if rep.is_zero:
        raise ZeroObjectError("the zero representation has no filtration")

    def recurse(cur: QuiverRep):
        subs = [s for s in quivrep.enumerate_submodules(cur, cap) if not s.is_zero]
        best = None
        for s in subs:
            ph = phase(s.dims, Z)
            if best is None or ph.cmp(best) > 0:
                best = ph
        tied = [s for s in subs if phase(s.dims, Z).cmp(best) == 0]
        maxdim = max(s.total_dim for s in tied)
        top = [s for s in tied if s.total_dim == maxdim]
        if len(top) != 1:
            raise InvariantViolation(
                "maximal-phase subobject of maximal dimension is not unique; "
                f"{len(top)} candidates of dimension {maxdim}"
            )
        A = top[0]
        if A.is_full:
            return (
                [quivrep.zero_submodule(cur), quivrep.full_submodule(cur)],
                [cur],
                [best],
            )
        quot, compl = quivrep.quotient_with_complement(cur, A)
        t_chain, t_factors, t_phases = recurse(quot)
        chain = [quivrep.zero_submodule(cur), A]
        for s in t_chain[1:]:
            chain.append(quivrep.lift_submodule(cur, A, s, compl))
        return chain, [quivrep.sub_rep(cur, A)] + t_factors, [best] + t_phases

    chain, factors, phases = recurse(rep)
    filt = HNFiltration(rep, tuple(chain), tuple(factors), tuple(phases))
    if validate:
        _check_factors_semistable(filt, Z, cap)
    return filt


def _mdq_kernel(rep: QuiverRep, Z: CentralCharge, cap: int) -> Submodule:
    """Kernel of a maximally destabilising quotient of rep.

    A quotient rep ->> B is maximally destabilising when every nonzero
    quotient B' has phase >= phase(B), with equality only if it factors
    through B; in kernel terms: phase(rep/K) is minimal and K is
    contained in every kernel realizing the minimum.  Both conditions
    are verified exhaustively; failure cannot happen in a finite-length
    module category and is therefore reported as an invariant violation.
    """
    kernels = [s for s in quivrep.enumerate_submodules(rep, cap) if not s.is_full]
    best = None
    for K in kernels:
        ph = phase(quivrep.dim_sub(rep.dims, K.dims), Z)
        if best is None or ph.cmp(best) < 0:
            best = ph
    tied = [K for K in kernels if phase(quivrep.dim_sub(rep.dims, K.dims), Z).cmp(best) == 0]
    K = min(tied, key=lambda s: s.sort_key())
    for other in tied:
        if not other.contains(K):
            raise InvariantViolation(
                "no maximally destabilising quotient: phase-minimal quotients do not factor through a common one"
            )
    return K


def hn_filtration_mdq(rep: QuiverRep, Z: CentralCharge, cap: int = quivrep.DEFAULT_CAP,
                      validate: bool = True) -> HNFiltration:
    """Filtration by repeatedly peeling a maximally destabilising quotient.

    Peel rep ->> B with kernel K, replace rep by K, repeat; reversing the
    discovered factors yields the ascending chain.  Must agree exactly
    with :func:`hn_filtration_max_sub`.
    """
    if rep.is_zero:
        raise ZeroObjectError("the zero representation has no filtration")
    chain_desc = [quivrep.full_submodule(rep)]
    factors_rev: list[QuiverRep] = []
    phases_rev: list[PhaseKey] = []
    current = chain_desc[0]
    current_rep = rep
    while not current.is_zero:
        K = _mdq_kernel(current_rep, Z, cap)
        B = quivrep.quotient(current_rep, K)
        factors_rev.append(B)
        phases_rev.append(phase(B.dims, Z))
        current = quivrep.compose_submodule(rep, current, K)
        chain_desc.append(current)
        current_rep = quivrep.sub_rep(rep, current)
    filt = HNFiltration(
        rep,
        tuple(reversed(chain_desc)),
        tuple(reversed(factors_rev)),
        tuple(reversed(phases_rev)),
    )
    if validate:
        _check_factors_semistable(filt, Z, cap)
    return filt


@dataclass(frozen=True)
class MassEstimate:
    value: float
    error_bound: float
    exact: Fraction  # the exact sum of enclosure midpoints that value rounds

    def __float__(self):
        return self.value


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


@dataclass(frozen=True)
class DiscretenessReport:
    verdict: str  # "discrete" | "non_discrete"
    z_rank: int
    real_span_dim: int
    basis: tuple[tuple[int, ...], ...]
    explanation: str

    @property
    def is_discrete(self) -> bool:
        return self.verdict == "discrete"


def _hnf_rows(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """Row span basis of an integer matrix via unimodular row reduction."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    out = []
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
    for row in work[:r]:
        out.append(tuple(row))
    return out


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
        span_dim = 1
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                if sign_of(cross(images[i], images[j])) != 0:
                    span_dim = 2
                    break
            if span_dim == 2:
                break
    discrete = r == span_dim
    verdict = "discrete" if discrete else "non_discrete"
    explanation = (
        f"charge image is generated by {r} independent vector(s) over Z "
        f"spanning a {span_dim}-dimensional real subspace: "
        + ("a lattice, hence discrete" if discrete else "rank exceeds real span, hence dense in a line or the plane")
    )
    return DiscretenessReport(verdict, r, span_dim, tuple(basis), explanation)
