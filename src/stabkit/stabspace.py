"""Stability conditions as points: the universal-cover plane action with
exact branch bookkeeping, finite-testset metrics, verified
heart-preserving deformations, and wall detection along charge paths.

Branch convention (pinned once, used everywhere): an element (T, m)
anchors the reference direction i; the reference receives the unique
phase value with direction T^{-1}(i) inside (2m - 1/2, 2m + 3/2], and
any other object receives anchor + ccw displacement + an even offset
from its phase window.  Deck transformations are exactly m -> m + 1.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import quivrep, slicing, stability
from .errors import (
    FieldMismatchError,
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
    Frozen,
    PhaseKey,
    QuadScalar,
    ccw_displacement,
    cross,
    cross_sign,
    phase_diff_float,
    phase_key_anchor,
    root_bounds,
    sign_of,
    split_fraction,
)
from .linalg import Field
from .quivrep import DimVector, Quiver
from .slicing import Testset
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


class GLtildeElement(Frozen):
    """Element of the universal cover of the positive-determinant plane
    group: a rational matrix plus an integer branch index."""

    __slots__ = ("T", "m", "_t_inv", "_reference", "_anchor")

    def __init__(self, T: Mat2, m: int = 0):
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "m", m)
        if mat2_det(T) <= 0:
            raise OrientationError(
                f"plane action requires det > 0, got det = {mat2_det(T)}"
            )
        # T^{-1}, the reference direction T^{-1}(i) and its anchor, once per element
        object.__setattr__(self, "_t_inv", mat2_inv(T))
        object.__setattr__(self, "_reference", mat2_apply(self._t_inv, EC_I))
        object.__setattr__(self, "_anchor", phase_key_anchor(self._reference, m))

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

    def transform_charge(self, z: ExactComplex) -> ExactComplex:
        return mat2_apply(self._t_inv, z)

    def anchor_key(self) -> PhaseKey:
        return self._anchor

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
        disp = ccw_displacement(self._reference, mat2_apply(self._t_inv, vec))
        return self._anchor.plus(disp).shift(2 * p.window_index())


def mul_sequential(g1: GLtildeElement, g2: GLtildeElement) -> GLtildeElement:
    """The element acting as 'g1 first, then g2' (right-action product),
    the package's one group product; :func:`invert` is its inverse.

    The matrix part is T1 * T2.  The product relabels the reference phase
    to g2's image of g1's anchor, and the anchors of one matrix differ by
    2 per branch, so the branch is read off that one relabeling.
    """
    T = mat2_mul(g1.T, g2.T)
    target = g2.anchored(g1.anchor_key())
    return GLtildeElement(T, (target.k - GLtildeElement(T, 0).anchor_key().k) // 2)


def invert(g: GLtildeElement) -> GLtildeElement:
    """The inverse for :func:`mul_sequential`: a product's branch
    corrections depend on the matrices alone, so g times the branch-0
    inverse matrix carries exactly the branch the inverse must cancel."""
    h = GLtildeElement(mat2_inv(g.T), 0)
    return GLtildeElement(h.T, -mul_sequential(g, h).m)


class StabilityConditionHandle(Frozen):
    """A stability condition with the module category as reference heart.

    This is the package's one stability-condition object.  Every handle
    is a plane-action translate of a plain one: ``charge`` is an honest
    half-plane charge on the heart and ``g`` the accumulated group
    element.  Semistable objects are those of the plain condition;
    phases are relabeled through g and the charge is T^{-1} of ``charge``.
    The constructor refuses a charge whose length is not the quiver's.
    """

    __slots__ = ("quiver", "field", "charge", "g")

    def __init__(self, quiver: Quiver, field: Field, charge: CentralCharge,
                 g: GLtildeElement = GLtildeElement.identity()):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "charge", charge)
        object.__setattr__(self, "g", g)
        if charge.n != quiver.n:
            raise FieldMismatchError(f"charge has length {charge.n}, quiver has {quiver.n} vertices")

    def charge2d(self) -> tuple[ExactComplex, ...]:
        return tuple(self.g.transform_charge(z) for z in self.charge.values)

    def charge_of(self, alpha: DimVector) -> ExactComplex:
        return self.g.transform_charge(self.charge.of(alpha))


def gl_act(sigma: StabilityConditionHandle, g: GLtildeElement,
           testset: Testset = (), cap: int = quivrep.DEFAULT_CAP):
    """Right action on a handle; returns it plus relabeled testset phases.

    The semistable objects do not change; only the charge transforms and
    the phases relabel.  The relabeled list carries one (label, phase)
    entry for each testset object that is semistable in sigma, in
    testset order.
    """
    sigma2 = StabilityConditionHandle(sigma.quiver, sigma.field, sigma.charge,
                                      mul_sequential(sigma.g, g))
    # sigma2 has sigma's charge and so its semistables: one decomposition per object
    plain = StabilityConditionHandle(sigma.quiver, sigma.field, sigma.charge)
    relabeled = [(label, sigma2.g.relabel(factors[0].key)) for label, fc in testset
                 if len(factors := slicing.hn_decompose(fc, plain, cap)) == 1]
    return sigma2, relabeled


def charge_matches_key(z: ExactComplex, key: PhaseKey) -> bool:
    """Axiom (a) predicate: the charge points along the key's direction
    (after undoing the half-turn parity of the integer part)."""
    vec = key.dir if key.k % 2 == 0 else -key.dir
    return cross_sign(z, vec) == 0 and sign_of(z.re * vec.re + z.im * vec.im) > 0


_PI_LO = Fraction(31415926535897932384626433832795028841, 10 ** 37)
_PI_HI = Fraction(31415926535897932384626433832795028842, 10 ** 37)


@functools.lru_cache(maxsize=64)
def sin_pi_eps_bounds(eps: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational bounds on sin(pi * eps) for eps in (0, 1/8).

    Taylor partial sums at rational brackets of pi*eps with an explicit
    alternating-series remainder; the bracket width is far below 2**-30,
    so accept/reject decisions never ride on float rounding.  Memoised
    per eps (a refusal is raised on every call).
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


class HypothesisRow(NamedTuple):
    label: str
    margin: float  # sin(pi eps)|Z| - |W - Z|, > 0 when the hypothesis holds


class DeformReport(NamedTuple):
    hypothesis: tuple[HypothesisRow, ...]
    drifts: tuple[slicing.ObjectDrift, ...]
    distance: float


def deform(sigma: StabilityConditionHandle, W: CentralCharge,
           eps: Fraction, testset: Testset, cap: int = quivrep.DEFAULT_CAP):
    """Heart-preserving deformation to W with a verified conclusion.

    The deformed handle is built over W first, so its constructor
    refuses a W of the wrong length before any hypothesis is checked,
    and it shares W's filtration memo.  Requires |W(E) - Z(E)| <
    sin(pi*eps) |Z(E)| for every sigma-HN factor E of every testset
    object, decided through exact squared-modulus comparisons against
    certified sin bounds (borderline rejected with a flag).  Returns the
    deformed handle plus a report whose finite-testset slicing distance
    must come out below eps; anything else is a hard failure, not a
    warning.
    """
    if not sigma.g.is_identity:
        raise StabkitError("deform expects an unacted handle; apply the plane action afterwards")
    if not testset:
        raise ZeroObjectError("deform needs a nonempty testset")
    tau = StabilityConditionHandle(sigma.quiver, sigma.field, W)
    Z = sigma.charge
    s_lo, s_hi = sin_pi_eps_bounds(eps)
    lo2, hi2, mid = s_lo * s_lo, s_hi * s_hi, float((s_lo + s_hi) / 2)

    def margin(where: str, alpha: DimVector) -> float:
        z = Z.of(alpha)
        u = W.of(alpha) - z
        u2 = u.abs_squared()
        z2 = z.abs_squared()
        if sign_of(lo2 * z2 - u2) <= 0:
            if sign_of(u2 - hi2 * z2) >= 0:
                raise HypothesisViolatedError(
                    f"deformation hypothesis fails on {where}: |W-Z| exceeds sin(pi*eps)|Z|"
                )
            raise HypothesisViolatedError(
                f"deformation hypothesis is within the certified rounding band on {where}; "
                "rejected conservatively"
            )
        return _float_sqrt_scalar(z2) * mid - _float_sqrt_scalar(u2)

    # one row per semistable object; the other objects' factors are checked
    # after them all (a shift only flips the sign of both charges)
    hyp_rows, unstable = [], []
    for label, fc in testset:
        factors = slicing.hn_decompose(fc, sigma, cap)
        if len(factors) == 1:
            hyp_rows.append(HypothesisRow(label, margin(label, factors[0].factor.dims)))
        else:
            unstable.append((label, factors))
    for label, factors in unstable:
        for f in factors:
            margin(f"{label} (its HN factor of class {list(f.factor.dims)})", f.factor.dims)
    dist = slicing.slicing_distance(sigma, tau, testset, cap)
    if not dist.value < float(eps):
        raise InvariantViolation(
            f"deformation conclusion failed: testset slicing distance {dist.value} is not below eps {eps}"
        )
    return tau, DeformReport(tuple(hyp_rows), dist.rows, dist.value)


def _float_sqrt_scalar(x) -> float:
    return math.sqrt(max(float(x), 0.0))


class StabDistanceRow(NamedTuple):
    label: str
    lo_diff: float
    hi_diff: float
    log_mass_ratio: float

    @property
    def value(self) -> float:
        return max(abs(self.lo_diff), abs(self.hi_diff), abs(self.log_mass_ratio))


def stab_distance(s1: StabilityConditionHandle, s2: StabilityConditionHandle,
                  testset: Testset, cap: int = quivrep.DEFAULT_CAP) -> slicing.DistanceReport:
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
    plain1, plain2 = (StabilityConditionHandle(s.quiver, s.field, s.charge) for s in (s1, s2))
    rows = []
    for label, fc in testset:
        f1 = slicing.hn_decompose(fc, plain1, cap)
        f2 = slicing.hn_decompose(fc, plain2, cap)
        m1 = stability.mass([s1.charge_of(f.factor.dims) for f in f1]).exact
        m2 = stability.mass([s2.charge_of(f.factor.dims) for f in f2]).exact
        rows.append(StabDistanceRow(
            label,
            phase_diff_float(s2.g.anchored(f2[-1].key), s1.g.anchored(f1[-1].key)),
            phase_diff_float(s2.g.anchored(f2[0].key), s1.g.anchored(f1[0].key)),
            math.log(float(m2 / m1)),
        ))
    return slicing.DistanceReport(max(r.value for r in rows), tuple(rows))


class ChargePath(Frozen):
    """Entrywise affine path of rational charges; endpoint validity of
    the half-plane condition implies validity along the whole segment
    because imaginary parts are linear in t."""

    __slots__ = ("start", "end")

    def __init__(self, start: CentralCharge, end: CentralCharge):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if start.n != end.n:
            raise StabkitError("path endpoints have different lengths")
        for Z in (start, end):
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
    rad, d = split_fraction(disc)
    if d == 1:
        return [(-q1 - rad) / (2 * q2), (-q1 + rad) / (2 * q2)]
    b = rad / (2 * q2)
    a = -q1 / (2 * q2)
    return [QuadScalar(a, -b, d), QuadScalar(a, b, d)]


def cmp_roots(x: RootValue, y: RootValue) -> int:
    """Exact comparison of alignment parameters, possibly in different
    quadratic extensions (distinct irrationals are never equal)."""
    if not (isinstance(x, QuadScalar) and isinstance(y, QuadScalar) and x.d != y.d):
        return sign_of(x - y)
    # x - y = p - e*sqrt(n) with p in Q(sqrt(x.d)); when p and e*sqrt(n)
    # have one sign, squaring compares their sizes inside Q(sqrt(x.d))
    p = QuadScalar(x.a - y.a, x.b, x.d)
    sp, se = p.sign(), sign_of(y.b)
    if sp != se:
        return sp or -se
    return sp * sign_of(p * p - y.b * y.b * y.d)


class WallEvent(NamedTuple):
    t_exact: RootValue
    alpha: DimVector
    beta: DimVector

    @property
    def t_float(self) -> float:
        return float(self.t_exact)


class WallsReport(NamedTuple):
    events: tuple[WallEvent, ...]
    degenerate_pairs: tuple[tuple[DimVector, DimVector], ...]


def check_wall_pair(alpha: DimVector, beta: DimVector) -> None:
    """Refuse a wall pair with a zero class or proportional classes."""
    if all(x == 0 for x in alpha) or all(x == 0 for x in beta):
        raise ProportionalPairError("wall pair contains the zero class")
    if quivrep.dims_proportional(alpha, beta):
        raise ProportionalPairError(f"classes {alpha} and {beta} are proportional")


def find_walls(path: ChargePath, pairs: list[tuple[DimVector, DimVector]]) -> WallsReport:
    """All t in [0, 1] where a tracked pair of classes becomes aligned.

    The alignment condition cross(Z_t(alpha), Z_t(beta)) = 0 is an at
    most quadratic rational polynomial in t, solved exactly; pairs whose
    classes are proportional are rejected, pairs aligned for every t are
    reported separately and never as walls.
    """
    events = []
    degenerate = []
    of_class = functools.cache(path.of_class)  # auto pairs repeat the tracked total class
    for alpha, beta in pairs:
        check_wall_pair(alpha, beta)
        A, B = of_class(alpha)
        C, D = of_class(beta)
        q0 = cross(A, C)
        q1 = cross(A, D) + cross(B, C)
        q2 = cross(B, D)
        roots = solve_alignment(q0, q1, q2)
        if roots is None:
            degenerate.append((alpha, beta))
            continue
        for r in roots:
            if sign_of(r) >= 0 and sign_of(r - 1) <= 0:
                events.append(WallEvent(r, alpha, beta))
    events.sort(key=functools.cmp_to_key(
        lambda e, f: cmp_roots(e.t_exact, f.t_exact)
        or ((e.alpha, e.beta) > (f.alpha, f.beta)) - ((e.alpha, e.beta) < (f.alpha, f.beta))
    ))
    return WallsReport(tuple(events), tuple(degenerate))


def chamber_samples(events: tuple[WallEvent, ...]) -> list[Fraction]:
    """The rational parameters strictly between consecutive distinct walls
    (and before the first / after the last, inside [0, 1]).  The events
    must ascend in t, as find_walls sorts them; a descending pair is refused."""
    values: list[RootValue] = []
    for e in events:
        if not values or (order := cmp_roots(values[-1], e.t_exact)) < 0:
            values.append(e.t_exact)
        elif order > 0:
            raise StabkitError("chamber samples need events in ascending order of t")
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


class AxiomCheck(NamedTuple):
    axiom: str
    subject: str
    ok: bool
    detail: str = ""


class AxiomReport(NamedTuple):
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def validate_axioms(sigma: StabilityConditionHandle, testset: Testset,
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
    for label, fc in testset:
        try:
            factors = slicing.hn_decompose(fc, sigma, cap)  # raises unless strictly descending
            checks.append(AxiomCheck("d", label, True, "strictly descending phases"))
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
