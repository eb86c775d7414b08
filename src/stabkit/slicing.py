"""Formal shifted-module complexes, their descending-phase decompositions,
interval membership, and the finite-testset slicing metric, all taken in
a stability condition given as a ``stabspace.StabilityConditionHandle``.

The derived-category model is hereditary: an object is a finite formal
direct sum of shifted representations.  Decompositions are then finite
concatenations of module-level filtrations, one shift at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import quivrep, stability
from .errors import FieldMismatchError, InvariantViolation, UnsupportedVerdictError, ZeroObjectError
from .exactnum import PhaseKey, phase_diff_float
from .quivrep import QuiverRep
from .stability import CentralCharge

if TYPE_CHECKING:
    from .stabspace import StabilityConditionHandle


@dataclass(frozen=True)
class FormalComplex:
    """Finite formal sum of shifted representations: parts maps k to M_k.

    The empty sum is the zero object; stored parts are nonzero.  The
    class in the Grothendieck group alternates signs with the shift.
    """

    parts: tuple[tuple[int, QuiverRep], ...]  # sorted by descending shift

    def __post_init__(self):
        ks = [k for k, _ in self.parts]
        if len(set(ks)) != len(ks):
            raise ZeroObjectError("formal complex declares a shift twice")
        if list(ks) != sorted(ks, reverse=True):
            object.__setattr__(self, "parts", tuple(sorted(self.parts, key=lambda p: -p[0])))
        for k, rep in self.parts:
            if rep.is_zero:
                raise ZeroObjectError(f"zero representation stored at shift {k}")
        quivers = {id(rep.quiver) for _, rep in self.parts}
        if len({rep.field for _, rep in self.parts}) > 1 or len(quivers) > 1:
            raise FieldMismatchError("formal complex mixes quivers or fields")

    @classmethod
    def of_module(cls, rep: QuiverRep, shift: int = 0) -> "FormalComplex":
        return cls(((shift, rep),))

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def shifted(self, n: int) -> "FormalComplex":
        return FormalComplex(tuple((k + n, rep) for k, rep in self.parts))

    def class_vector(self) -> tuple[int, ...]:
        if not self.parts:
            raise ZeroObjectError("zero object has no interesting class here")
        n = self.parts[0][1].quiver.n
        total = [0] * n
        for k, rep in self.parts:
            sgn = -1 if k % 2 else 1
            for i, d in enumerate(rep.dims):
                total[i] += sgn * d
        return tuple(total)

    def direct_sum(self, other: "FormalComplex") -> "FormalComplex":
        by_shift: dict[int, QuiverRep] = {k: rep for k, rep in self.parts}
        for k, rep in other.parts:
            if k in by_shift:
                by_shift[k] = quivrep.direct_sum(by_shift[k], rep)
            else:
                by_shift[k] = rep
        return FormalComplex(tuple(sorted(by_shift.items(), key=lambda p: -p[0])))


@dataclass(frozen=True)
class DecomposedFactor:
    shift: int
    factor: QuiverRep
    key: PhaseKey


def _module_hn_factors(rep: QuiverRep, Z: CentralCharge, cap: int):
    if rep.field.is_finite:
        filt = stability.hn_filtration_max_sub(rep, Z, cap, validate=False)
        return list(zip(filt.factors, filt.phases))
    cert = stability.is_semistable(rep, Z, cap)
    if cert.is_semistable:
        return [(rep, stability.phase(rep.dims, Z))]
    raise UnsupportedVerdictError(
        "decomposition over Q is only available for semistable representations"
    )


def hn_decompose(fc: FormalComplex, S: StabilityConditionHandle,
                 cap: int = quivrep.DEFAULT_CAP) -> list[DecomposedFactor]:
    """Descending-phase factors of a formal complex in a stability condition.

    Per shift k the factors are the module-level filtration factors of
    M_k under the handle's charge, with phases offset by k and relabeled
    through the handle's plane-action element.  Concatenating over
    descending k keeps the whole list strictly descending because a
    shift moves phases by exactly one and relabeling is monotone; the
    order is checked once, on the relabeled keys.
    """
    if fc.is_zero:
        raise ZeroObjectError("the zero object has no decomposition")
    out: list[DecomposedFactor] = []
    for k, rep in fc.parts:  # already sorted by descending shift
        for factor, key in _module_hn_factors(rep, S.charge, cap):
            out.append(DecomposedFactor(k, factor, S.g.relabel(key.shift(k))))
    for a, b in zip(out, out[1:]):
        if a.key.cmp(b.key) <= 0:
            raise InvariantViolation("decomposition phases are not strictly descending")
    return out


def phi_bounds(fc: FormalComplex, S: StabilityConditionHandle,
               cap: int = quivrep.DEFAULT_CAP) -> tuple[PhaseKey, PhaseKey]:
    """(phi_minus, phi_plus): last and first phases of the decomposition."""
    factors = hn_decompose(fc, S, cap)
    return factors[-1].key, factors[0].key


@dataclass(frozen=True)
class PhaseInterval:
    """Interval with exact direction endpoints (PhaseKeys), open or closed."""

    lo: PhaseKey
    hi: PhaseKey
    lo_open: bool = True
    hi_open: bool = True

    def admits_lower(self, key: PhaseKey) -> bool:
        c = key.cmp(self.lo)
        return c > 0 if self.lo_open else c >= 0

    def admits_upper(self, key: PhaseKey) -> bool:
        c = key.cmp(self.hi)
        return c < 0 if self.hi_open else c <= 0


def in_interval(fc: FormalComplex, S: StabilityConditionHandle, interval: PhaseInterval,
                cap: int = quivrep.DEFAULT_CAP) -> bool:
    """Membership of fc in the slice of the interval (zero always belongs)."""
    if fc.is_zero:
        return True
    lo_key, hi_key = phi_bounds(fc, S, cap)
    return interval.admits_lower(lo_key) and interval.admits_upper(hi_key)


@dataclass(frozen=True)
class ObjectDrift:
    label: str
    lo_diff: float
    hi_diff: float

    @property
    def value(self) -> float:
        return max(abs(self.lo_diff), abs(self.hi_diff))


@dataclass(frozen=True)
class DistanceReport:
    value: float
    rows: tuple[ObjectDrift, ...]
    kind: str = "lower_bound"


def slicing_distance(s1: StabilityConditionHandle, s2: StabilityConditionHandle,
                     testset: list[FormalComplex], labels: list[str] | None = None,
                     cap: int = quivrep.DEFAULT_CAP) -> DistanceReport:
    """max over the testset of max(|phi+ drift|, |phi- drift|).

    A lower bound for the sup-over-all-objects slicing metric.  It sees
    plane-action relabelings (the shift offsets every phase by exactly
    one), and integer phase offsets survive exactly because the float
    conversion of a phase difference with positively proportional
    directions is 0.0.
    """
    if not testset:
        raise ZeroObjectError("slicing distance needs a nonempty testset")
    rows = []
    for i, fc in enumerate(testset):
        lo1, hi1 = phi_bounds(fc, s1, cap)
        lo2, hi2 = phi_bounds(fc, s2, cap)
        rows.append(ObjectDrift(
            labels[i] if labels else str(i),
            phase_diff_float(lo1, lo2),
            phase_diff_float(hi1, hi2),
        ))
    return DistanceReport(max(r.value for r in rows), tuple(rows))


@dataclass(frozen=True)
class ContainmentRow:
    label: str
    upper_excess: float  # phi+ - (psi + eps); <= 0 when inside
    lower_excess: float  # (psi - eps) - phi-; <= 0 when inside


@dataclass(frozen=True)
class ContainmentReport:
    ok: bool
    rows: tuple[ContainmentRow, ...]


def containment_check(s1: StabilityConditionHandle, s2: StabilityConditionHandle,
                      eps: Fraction, testset: list[FormalComplex],
                      labels: list[str] | None = None,
                      cap: int = quivrep.DEFAULT_CAP) -> ContainmentReport:
    """Every testset object, each required to be s2-semistable, must sit
    in the closed eps-band of s1-phases around its s2-phase.

    Comparisons use the same advisory float phase differences as
    :func:`slicing_distance` (documented error below 2**-40 at desk
    scale), so distance <= eps implies containment on the same testset
    by construction.
    """
    if not testset:
        raise ZeroObjectError("containment check needs a nonempty testset")
    eps_f = float(eps)
    rows = []
    ok = True
    for i, fc in enumerate(testset):
        label = labels[i] if labels else str(i)
        factors2 = hn_decompose(fc, s2, cap)
        if len(factors2) != 1:
            raise ZeroObjectError(f"testset object {label} is not semistable in the reference condition")
        psi = factors2[0].key
        lo1, hi1 = phi_bounds(fc, s1, cap)
        upper = phase_diff_float(hi1, psi) - eps_f
        lower = -phase_diff_float(lo1, psi) - eps_f
        rows.append(ContainmentRow(label, upper, lower))
        if upper > 0 or lower > 0:
            ok = False
    return ContainmentReport(ok, tuple(rows))
