"""Stability conditions as points: the universal-cover plane action with
exact branch bookkeeping, finite-testset norms and metrics, verified
heart-preserving deformations, and wall detection along charge paths.

Branch convention (pinned once, used everywhere): an element (T, m)
anchors the reference direction i; the reference receives the unique
phase value with direction T^{-1}(i) inside (2m - 1/2, 2m + 3/2], and
any other object receives anchor + ccw displacement + an even offset
from its phase window.  Deck transformations are exactly m -> m + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import quivrep, slicing, stability
from .errors import (
    HeartChangeUnsupportedError,
    HypothesisViolatedError,
    InvariantViolation,
    OrientationError,
    ProportionalPairError,
    StabkitError,
    UnsupportedScalarError,
    ZeroObjectError,
)
from .exactnum import (
    EC_I,
    ExactComplex,
    PhaseKey,
    QuadScalar,
    ccw_displacement,
    cross,
    in_strict_upper_half,
    phase_diff_float,
    phase_key_anchor,
    root_bounds,
    sign_of,
    sqrt_bounds,
)
from .linalg import Field
from .quivrep import DimVector, Quiver
from .slicing import FormalComplex
from .stability import CentralCharge

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def mat2(a, b, c, d) -> Mat2:
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


MAT2_ID = mat2(1, 0, 0, 1)


def mat2_det(T: Mat2) -> Fraction:
    return T[0][0] * T[1][1] - T[0][1] * T[1][0]


def mat2_mul(A: Mat2, B: Mat2) -> Mat2:
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat2_inv(T: Mat2) -> Mat2:
    det = mat2_det(T)
    if det == 0:
        raise OrientationError("matrix is singular")
    return (
        (T[1][1] / det, -T[0][1] / det),
        (-T[1][0] / det, T[0][0] / det),
    )


def mat2_apply(T: Mat2, z: ExactComplex) -> ExactComplex:
    """Apply a rational 2x2 matrix to a complex number seen as (re, im)."""
    return ExactComplex(
        T[0][0] * z.re + T[0][1] * z.im,
        T[1][0] * z.re + T[1][1] * z.im,
    )


@dataclass(frozen=True)
class GLtildeElement:
    """Element of the universal cover of the positive-determinant plane
    group: a rational matrix plus an integer branch index."""

    T: Mat2
    m: int = 0

    def __post_init__(self):
        if mat2_det(self.T) <= 0:
            raise OrientationError(
                f"plane action requires det > 0, got det = {mat2_det(self.T)}"
            )

    @classmethod
    def identity(cls) -> "GLtildeElement":
        return cls(MAT2_ID, 0)

    @classmethod
    def shift(cls) -> "GLtildeElement":
        """The element realizing the shift functor: -Identity on the
        branch that raises every phase by exactly 1."""
        return cls(mat2(-1, 0, 0, -1), 0)

    @property
    def is_identity(self) -> bool:
        return self.m == 0 and self.T == MAT2_ID

    def t_inv(self) -> Mat2:
        return mat2_inv(self.T)

    def transform_charge(self, z: ExactComplex) -> ExactComplex:
        return mat2_apply(self.t_inv(), z)

    def reference_direction(self) -> ExactComplex:
        return mat2_apply(self.t_inv(), EC_I)

    def anchor_key(self) -> PhaseKey:
        return phase_key_anchor(self.reference_direction(), self.m)

    def relabel(self, p: PhaseKey) -> PhaseKey:
        """New phase of an object whose old phase is p, exactly; the
        identity returns p itself, so its exact scalar types are kept."""
        return p if self.is_identity else self.anchored(p)

    def anchored(self, p: PhaseKey) -> PhaseKey:
        """The new phase by the anchor arithmetic, for every element.

        anchor + ccw displacement from T^{-1}(i) to T^{-1}(direction of p
        as a plane vector) + twice the window index of p.  Monotone in p
        and compatible with the shift by construction.  For the identity
        the phase is p's, but a direction along i comes back as i itself.
        """
        vec = p.dir if p.k % 2 == 0 else -p.dir
        disp = ccw_displacement(self.reference_direction(), mat2_apply(self.t_inv(), vec))
        return self.anchor_key().add_displacement(disp).shift(2 * p.window_index())


def mul_sequential(g1: GLtildeElement, g2: GLtildeElement) -> GLtildeElement:
    """The element acting as 'g1 first, then g2' (right-action product).

    The matrix part is T1 * T2.  The branch is read off exactly by
    pushing the reference value through both relabelings: the window
    correction of g1's anchor contributes -1 when T1^{-1}(i) has positive
    real part, and a wrap correction contributes +1 when the ccw
    displacement from T2^{-1}(i) to T2^{-1}T1^{-1}(i) passes the
    downward direction.
    """
    u1 = g1.reference_direction()
    s1 = -1 if sign_of(u1.re) > 0 else 0
    u2 = g2.reference_direction()
    w = mat2_apply(g2.t_inv(), u1)
    delta = ccw_displacement(u2, w)
    delta_star = ccw_displacement(u2, -EC_I)
    wrap = 1 if delta.cmp(delta_star) > 0 else 0
    return GLtildeElement(mat2_mul(g1.T, g2.T), g1.m + g2.m + s1 + wrap)


def compose(g1: GLtildeElement, g2: GLtildeElement) -> GLtildeElement:
    """Group product with the convention act(act(s, g2), g1) = act(s, compose(g1, g2))."""
    return mul_sequential(g2, g1)


def invert(g: GLtildeElement) -> GLtildeElement:
    u1 = g.reference_direction()
    s1 = -1 if sign_of(u1.re) > 0 else 0
    t_forward = g.T
    u2 = mat2_apply(t_forward, EC_I)
    delta = ccw_displacement(u2, EC_I)
    delta_star = ccw_displacement(u2, -EC_I)
    wrap = 1 if delta.cmp(delta_star) > 0 else 0
    return GLtildeElement(mat2_inv(g.T), -g.m - s1 - wrap)


@dataclass(frozen=True)
class StabilityConditionHandle:
    """A stability condition with the module category as reference heart.

    This is the package's one stability-condition object.  Every handle
    is a plane-action translate of a plain one: ``charge`` is an honest
    half-plane charge on the heart and ``g`` the accumulated group
    element.  Semistable objects are those of the plain condition;
    phases are relabeled through g and the charge is T^{-1} of ``charge``.
    """

    quiver: Quiver
    field: Field
    charge: CentralCharge
    g: GLtildeElement = GLtildeElement.identity()

    def charge2d(self) -> tuple[ExactComplex, ...]:
        return tuple(self.g.transform_charge(z) for z in self.charge.values)

    def charge_of(self, alpha: DimVector) -> ExactComplex:
        return self.g.transform_charge(self.charge.of(alpha))

    @property
    def heart_compatible(self) -> bool:
        """True when the transformed charge is again a half-plane charge
        on the same heart (no tilting needed)."""
        return all(in_strict_upper_half(z) for z in self.charge2d())

    def as_central_charge(self) -> CentralCharge:
        return CentralCharge(self.charge2d())

    def semistable_phase(self, fc: FormalComplex, cap: int = quivrep.DEFAULT_CAP) -> PhaseKey | None:
        factors = slicing.hn_decompose(fc, self, cap)
        return factors[0].key if len(factors) == 1 else None


def plain_handle(quiver: Quiver, field: Field, Z: CentralCharge) -> StabilityConditionHandle:
    return StabilityConditionHandle(quiver, field, Z)


def gl_act(sigma: StabilityConditionHandle, g: GLtildeElement,
           testset: list[FormalComplex] | None = None,
           cap: int = quivrep.DEFAULT_CAP):
    """Right action on a handle; returns it plus relabeled testset phases.

    The semistable objects do not change; only the charge transforms and
    the phases relabel.  The relabeled list carries one entry for each
    testset object that is semistable in sigma.
    """
    sigma2 = StabilityConditionHandle(sigma.quiver, sigma.field, sigma.charge,
                                      mul_sequential(sigma.g, g))
    relabeled = []
    if testset:
        for fc in testset:
            key = sigma.semistable_phase(fc, cap)
            if key is not None:
                relabeled.append((fc, sigma2.semistable_phase(fc, cap)))
    return sigma2, relabeled


def charge_matches_key(z: ExactComplex, key: PhaseKey) -> bool:
    """Axiom (a) predicate: the charge points along the key's direction
    (after undoing the half-turn parity of the integer part)."""
    vec = key.dir if key.k % 2 == 0 else -key.dir
    return sign_of(cross(z, vec)) == 0 and sign_of(z.re * vec.re + z.im * vec.im) > 0


@dataclass(frozen=True)
class NormRow:
    label: str
    ratio: float


@dataclass(frozen=True)
class NormReport:
    value: float
    rows: tuple[NormRow, ...]
    kind: str = "lower_bound"


def norm_sigma(U: tuple[ExactComplex, ...], sigma: StabilityConditionHandle,
               testset: list[FormalComplex], labels: list[str] | None = None,
               cap: int = quivrep.DEFAULT_CAP) -> NormReport:
    """max |U(E)| / |Z(E)| over sigma-semistable testset objects."""
    if not testset:
        raise ZeroObjectError("norm needs a nonempty testset")
    if len(U) != sigma.charge.n:
        raise StabkitError(f"linear map has {len(U)} components, charge expects {sigma.charge.n}")
    rows = []
    for i, fc in enumerate(testset):
        if sigma.semistable_phase(fc, cap) is None:
            raise StabkitError(
                f"testset object {labels[i] if labels else i} is not semistable; the norm only samples semistables"
            )
        alpha = fc.class_vector()
        u = ExactComplex(Fraction(0), Fraction(0))
        for a, comp in zip(alpha, U):
            if a:
                u = u + comp.scale(a)
        z = sigma.charge_of(alpha)
        ratio_sq = u.abs_squared() / z.abs_squared()
        if sign_of(ratio_sq) == 0:
            ratio = 0.0
        else:
            lo, hi = sqrt_bounds(ratio_sq, 70)
            ratio = float((lo + hi) / 2)
        rows.append(NormRow(labels[i] if labels else str(i), ratio))
    return NormReport(max(r.ratio for r in rows), tuple(rows))


_PI_LO = Fraction(31415926535897932384626433832795028841, 10 ** 37)
_PI_HI = Fraction(31415926535897932384626433832795028842, 10 ** 37)


def sin_pi_eps_bounds(eps: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bounds on sin(pi * eps) for eps in (0, 1/8).

    Taylor partial sums at rational brackets of pi*eps with an explicit
    alternating-series remainder; the bracket width is far below 2**-30,
    so accept/reject decisions never ride on float rounding.
    """
    if not (0 < eps < Fraction(1, 8)):
        raise StabkitError(f"epsilon must lie in (0, 1/8), got {eps}")

    def sin_partial(x: Fraction, terms: int = 12) -> tuple[Fraction, Fraction]:
        total = Fraction(0)
        term = x
        k = 1
        for _ in range(terms):
            total += term
            term = -term * x * x / ((k + 1) * (k + 2))
            k += 2
        rem = abs(term)
        return total - rem, total + rem

    lo = sin_partial(_PI_LO * eps)[0]
    hi = sin_partial(_PI_HI * eps)[1]
    return max(lo, Fraction(0)), hi


@dataclass(frozen=True)
class HypothesisRow:
    label: str
    margin: float  # sin(pi eps)|Z| - |W - Z|, > 0 when the hypothesis holds
    boundary: bool


@dataclass(frozen=True)
class DeformReport:
    hypothesis: tuple[HypothesisRow, ...]
    drifts: tuple[slicing.ObjectDrift, ...]
    distance: float
    eps: Fraction


def deform(sigma: StabilityConditionHandle, w_values: tuple[ExactComplex, ...],
           eps: Fraction, testset: list[FormalComplex],
           labels: list[str] | None = None,
           cap: int = quivrep.DEFAULT_CAP):
    """Heart-preserving charge deformation with a verified conclusion.

    Requires |W(E) - Z(E)| < sin(pi*eps) |Z(E)| for every testset object
    semistable in sigma, decided through exact squared-modulus
    comparisons against certified sin bounds (borderline rejected with a
    flag).  Returns the deformed handle plus a report whose finite-
    testset slicing distance must come out below eps; anything else is a
    hard failure, not a warning.
    """
    if not sigma.g.is_identity:
        raise StabkitError("deform expects an unacted handle; apply the plane action afterwards")
    if not testset:
        raise ZeroObjectError("deform needs a nonempty testset")
    for i, z in enumerate(w_values):
        if not in_strict_upper_half(z):
            raise HeartChangeUnsupportedError(
                f"perturbed charge value {i + 1} = {z!r} leaves the upper half-plane; "
                "heart-changing deformations are not supported"
            )
    W = CentralCharge(w_values)
    Z = sigma.charge
    s_lo, s_hi = sin_pi_eps_bounds(eps)
    hyp_rows = []
    for i, fc in enumerate(testset):
        label = labels[i] if labels else str(i)
        if sigma.semistable_phase(fc, cap) is None:
            continue
        alpha = fc.class_vector()
        z = Z.of(alpha)
        u = W.of(alpha) - z
        u2 = u.abs_squared()
        z2 = z.abs_squared()
        holds = sign_of(s_lo * s_lo * z2 - u2) > 0
        firm_fail = sign_of(u2 - s_hi * s_hi * z2) >= 0
        margin = _float_sqrt_scalar(z2) * float((s_lo + s_hi) / 2) - _float_sqrt_scalar(u2)
        if holds:
            hyp_rows.append(HypothesisRow(label, margin, False))
        elif firm_fail:
            raise HypothesisViolatedError(
                f"deformation hypothesis fails on {label}: |W-Z| exceeds sin(pi*eps)|Z|"
            )
        else:
            raise HypothesisViolatedError(
                f"deformation hypothesis is within the certified rounding band on {label}; "
                "rejected conservatively", boundary=True,
            )
    tau = StabilityConditionHandle(sigma.quiver, sigma.field, W)
    dist = slicing.slicing_distance(sigma, tau, testset, labels, cap)
    if not dist.value < float(eps):
        raise InvariantViolation(
            f"deformation conclusion failed: testset slicing distance {dist.value} is not below eps {eps}"
        )
    return tau, DeformReport(tuple(hyp_rows), dist.rows, dist.value, eps)


def _float_sqrt_scalar(x) -> float:
    return math.sqrt(max(float(x), 0.0))


@dataclass(frozen=True)
class StabDistanceRow:
    label: str
    lo_diff: float
    hi_diff: float
    log_mass_ratio: float

    @property
    def value(self) -> float:
        return max(abs(self.lo_diff), abs(self.hi_diff), abs(self.log_mass_ratio))


@dataclass(frozen=True)
class StabDistanceReport:
    value: float
    rows: tuple[StabDistanceRow, ...]
    kind: str = "lower_bound"


def stab_distance(s1: StabilityConditionHandle, s2: StabilityConditionHandle,
                  testset: list[FormalComplex], labels: list[str] | None = None,
                  cap: int = quivrep.DEFAULT_CAP) -> StabDistanceReport:
    """Finite-testset lower bound for the metric on the space of
    stability conditions: phase drifts plus log mass ratios.

    Phases are read through :meth:`GLtildeElement.anchored` on every
    handle, plain ones included.  On a plain handle that only rescales a
    direction along i to i itself, which can move a drift's advisory
    float in its last bits; the CLI's ``metric stab`` reports are pinned
    to the anchored form.
    """
    if not testset:
        raise ZeroObjectError("stability-space distance needs a nonempty testset")
    if s1.quiver != s2.quiver or s1.field != s2.field:
        raise StabkitError("stability conditions live over different hearts")
    plain1, plain2 = (plain_handle(s.quiver, s.field, s.charge) for s in (s1, s2))
    rows = []
    for i, fc in enumerate(testset):
        f1 = slicing.hn_decompose(fc, plain1, cap)
        f2 = slicing.hn_decompose(fc, plain2, cap)
        m1 = stability.mass([s1.charge_of(f.factor.dims) for f in f1]).exact
        m2 = stability.mass([s2.charge_of(f.factor.dims) for f in f2]).exact
        rows.append(StabDistanceRow(
            labels[i] if labels else str(i),
            phase_diff_float(s2.g.anchored(f2[-1].key), s1.g.anchored(f1[-1].key)),
            phase_diff_float(s2.g.anchored(f2[0].key), s1.g.anchored(f1[0].key)),
            math.log(float(m2 / m1)),
        ))
    return StabDistanceReport(max(r.value for r in rows), tuple(rows))


@dataclass(frozen=True)
class ChargePath:
    """Entrywise affine path of rational charges; endpoint validity of
    the half-plane condition implies validity along the whole segment
    because imaginary parts are linear in t."""

    start: CentralCharge
    end: CentralCharge

    def __post_init__(self):
        if self.start.n != self.end.n:
            raise StabkitError("path endpoints have different lengths")
        for Z in (self.start, self.end):
            for z in Z.values:
                if isinstance(z.re, QuadScalar) or isinstance(z.im, QuadScalar):
                    raise UnsupportedScalarError("charge paths require rational endpoint charges")

    def at(self, t: Fraction) -> CentralCharge:
        vals = []
        for z0, z1 in zip(self.start.values, self.end.values):
            vals.append(ExactComplex(
                z0.re + t * (z1.re - z0.re),
                z0.im + t * (z1.im - z0.im),
            ))
        return CentralCharge(tuple(vals))

    def of_class(self, alpha: DimVector) -> tuple[ExactComplex, ExactComplex]:
        """(value at 0, slope) of t -> Z_t(alpha)."""
        a = self.start.of(alpha)
        return a, self.end.of(alpha) - a


RootValue = Fraction | QuadScalar


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """n = s**2 * d with d square-free; n > 0."""
    from sympy import factorint

    s, d = 1, 1
    for p, e in factorint(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


def solve_alignment(q0: Fraction, q1: Fraction, q2: Fraction) -> list[RootValue] | None:
    """Roots of q0 + q1 t + q2 t^2; None when identically zero."""
    if q2 == 0 and q1 == 0:
        return None if q0 == 0 else []
    if q2 == 0:
        return [-q0 / q1]
    disc = q1 * q1 - 4 * q0 * q2
    if disc < 0:
        return []
    if disc == 0:
        return [-q1 / (2 * q2)]
    n = disc.numerator * disc.denominator
    s, d = _squarefree_decompose(n)
    if d == 1:
        rad = Fraction(s, disc.denominator)
        return [(-q1 - rad) / (2 * q2), (-q1 + rad) / (2 * q2)]
    b = Fraction(s, disc.denominator) / (2 * q2)
    a = -q1 / (2 * q2)
    return [QuadScalar(a, -b, d), QuadScalar(a, b, d)]


def cmp_roots(x: RootValue, y: RootValue) -> int:
    """Exact comparison of alignment parameters, possibly in different
    quadratic extensions (distinct irrationals are never equal)."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return (x > y) - (x < y)
    if isinstance(x, QuadScalar) and isinstance(y, QuadScalar) and x.d == y.d:
        return (x - y).sign()
    if isinstance(x, QuadScalar) and isinstance(y, Fraction):
        return (x - y).sign()
    if isinstance(y, QuadScalar) and isinstance(x, Fraction):
        return -(y - x).sign()
    bits = 60
    while True:
        xl, xh = root_bounds(x, bits)
        yl, yh = root_bounds(y, bits)
        if xh < yl:
            return -1
        if yh < xl:
            return 1
        bits *= 2
        if bits > 4000:
            raise InvariantViolation("failed to separate two wall parameters")


@dataclass(frozen=True)
class WallEvent:
    t_exact: RootValue
    alpha: DimVector
    beta: DimVector

    @property
    def t_float(self) -> float:
        return float(self.t_exact)


@dataclass(frozen=True)
class WallsReport:
    events: tuple[WallEvent, ...]
    degenerate_pairs: tuple[tuple[DimVector, DimVector], ...]


def find_walls(path: ChargePath, pairs: list[tuple[DimVector, DimVector]]) -> WallsReport:
    """All t in [0, 1] where a tracked pair of classes becomes aligned.

    The alignment condition cross(Z_t(alpha), Z_t(beta)) = 0 is an at
    most quadratic rational polynomial in t, solved exactly; pairs whose
    classes are proportional are rejected, pairs aligned for every t are
    reported separately and never as walls.
    """
    events = []
    degenerate = []
    for alpha, beta in pairs:
        if all(x == 0 for x in alpha) or all(x == 0 for x in beta):
            raise ProportionalPairError("wall pair contains the zero class")
        if quivrep.dims_proportional(alpha, beta):
            raise ProportionalPairError(f"classes {alpha} and {beta} are proportional")
        A, B = path.of_class(alpha)
        C, D = path.of_class(beta)
        q0 = cross(A, C)
        q1 = cross(A, D) + cross(B, C)
        q2 = cross(B, D)
        roots = solve_alignment(q0, q1, q2)
        if roots is None:
            degenerate.append((alpha, beta))
            continue
        for r in roots:
            lo = sign_of(r) if isinstance(r, QuadScalar) else (r > 0) - (r < 0)
            hi = sign_of(r - 1) if isinstance(r, QuadScalar) else (r - 1 > 0) - (r - 1 < 0)
            if lo >= 0 and hi <= 0:
                events.append(WallEvent(r, alpha, beta))
    events.sort(key=_event_sort_key(events))
    return WallsReport(tuple(events), tuple(degenerate))


def _event_sort_key(events):
    import functools

    def cmp(e1, e2):
        c = cmp_roots(e1.t_exact, e2.t_exact)
        if c:
            return c
        return -1 if (e1.alpha, e1.beta) < (e2.alpha, e2.beta) else (0 if (e1.alpha, e1.beta) == (e2.alpha, e2.beta) else 1)

    return functools.cmp_to_key(cmp)


def chamber_samples(events: tuple[WallEvent, ...]) -> list[Fraction]:
    """The rational parameters strictly between consecutive distinct walls
    (and before the first / after the last, inside [0, 1])."""
    values: list[RootValue] = []
    for e in events:
        if not values or cmp_roots(values[-1], e.t_exact) != 0:
            values.append(e.t_exact)
    if not values:
        return [Fraction(1, 2)]
    bits = 60
    while True:
        bounds = [root_bounds(v, bits) for v in values]
        ok = all(bounds[i][1] < bounds[i + 1][0] for i in range(len(bounds) - 1))
        if ok:
            break
        bits *= 2
    samples = []
    first_lo = bounds[0][0]
    if first_lo > 0:
        samples.append(first_lo / 2)
    for i in range(len(bounds) - 1):
        samples.append((bounds[i][1] + bounds[i + 1][0]) / 2)
    last_hi = bounds[-1][1]
    if last_hi < 1:
        samples.append((last_hi + 1) / 2)
    return samples


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    subject: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> tuple[AxiomCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


def validate_axioms(sigma: StabilityConditionHandle, testset: list[FormalComplex],
                    labels: list[str] | None = None,
                    cap: int = quivrep.DEFAULT_CAP) -> AxiomReport:
    """Testset check of the four defining axioms of a stability condition.

    (a) each semistable's transformed charge points along its phase key;
    (b) shifting an object shifts both phase bounds by exactly one;
    (c) no maps from higher to lower phase among same-shift semistable
    modules; (d) every object decomposes with strictly descending phases.

    Restricting (c) to same-shift pairs is exhaustive in the hereditary
    model: maps E[j] -> F[k] can only be nonzero for k - j in {0, 1},
    and k = j + 1 forces phase(F[k]) > j + 1 >= phase(E[j]), so a
    higher-to-lower pair across distinct shifts cannot occur at all.
    """
    checks = []
    semistables = []
    for i, fc in enumerate(testset):
        label = labels[i] if labels else str(i)
        try:
            factors = slicing.hn_decompose(fc, sigma, cap)
            descending = all(a.key.cmp(b.key) > 0 for a, b in zip(factors, factors[1:]))
            checks.append(AxiomCheck("d", label, descending,
                                     "strictly descending phases" if descending else "phase order violated"))
        except InvariantViolation as exc:
            checks.append(AxiomCheck("d", label, False, str(exc)))
            continue
        if len(factors) == 1:
            semistables.append((label, fc, factors[0].key))
        lo, hi = factors[-1].key, factors[0].key
        lo_s, hi_s = slicing.phi_bounds(fc.shifted(1), sigma, cap)
        ok_b = lo_s.cmp(lo.shift(1)) == 0 and hi_s.cmp(hi.shift(1)) == 0
        checks.append(AxiomCheck("b", label, ok_b,
                                 "shift adds exactly one to both phase bounds" if ok_b else "shift offset wrong"))
    for label, fc, key in semistables:
        z = sigma.charge_of(fc.class_vector())
        ok_a = charge_matches_key(z, key)
        checks.append(AxiomCheck("a", label, ok_a,
                                 "charge direction matches phase key" if ok_a else "charge/phase mismatch"))
    for la, fa, ka in semistables:
        for lb, fb, kb in semistables:
            if ka.cmp(kb) <= 0:
                continue
            if len(fa.parts) != 1 or len(fb.parts) != 1:
                continue
            sa, ra = fa.parts[0]
            sb, rb = fb.parts[0]
            if sa != sb:
                continue
            h = quivrep.hom_dim(ra, rb)
            checks.append(AxiomCheck("c", f"{la}->{lb}", h == 0,
                                     "no maps to lower phase" if h == 0 else f"hom dimension {h}"))
    return AxiomReport(tuple(checks))
