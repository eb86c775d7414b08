"""Formal shifted-module complexes, their descending-phase decompositions
and phase bounds, and the finite-testset slicing metric, all taken in a
stability condition given as a ``stabspace.StabilityConditionHandle``.

The derived-category model is hereditary: an object is a finite formal
direct sum of shifted representations.  Decompositions are then finite
concatenations of module-level filtrations, one shift at a time.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from . import quivrep, stability
from .errors import FieldMismatchError, InvariantViolation, UnsupportedVerdictError, ZeroObjectError
from .exactnum import Frozen, PhaseKey, phase_diff_float
from .quivrep import QuiverRep
from .stability import CentralCharge

if TYPE_CHECKING:
    from .stabspace import StabilityConditionHandle


class FormalComplex(Frozen):
    """Finite formal sum of shifted representations: parts maps k to M_k.

    The empty sum is the zero object; stored parts are nonzero and sorted
    by descending shift.  The class in the Grothendieck group alternates
    signs with the shift.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[int, QuiverRep], ...]):
        ks = [k for k, _ in parts]
        if len(set(ks)) != len(ks):
            raise ZeroObjectError("formal complex declares a shift twice")
        if list(ks) != sorted(ks, reverse=True):
            parts = tuple(sorted(parts, key=lambda p: -p[0]))
        object.__setattr__(self, "parts", parts)
        for k, rep in parts:
            if rep.is_zero:
                raise ZeroObjectError(f"zero representation stored at shift {k}")
        if any((rep.quiver, rep.field) != (parts[0][1].quiver, parts[0][1].field) for _, rep in parts[1:]):
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


class DecomposedFactor(NamedTuple):
    shift: int
    factor: QuiverRep
    key: PhaseKey


def _module_hn_factors(rep: QuiverRep, Z: CentralCharge, cap: int) -> tuple[tuple[QuiverRep, PhaseKey], ...]:
    """(factor, phase) pairs of rep's filtration under Z, memoised on Z;
    a refusal is not stored, so it is raised on every call."""
    if (got := Z._hn.get((rep, cap))) is not None:
        return got
    if rep.field.is_finite:
        filt = stability.hn_filtration_max_sub(rep, Z, cap, validate=False)
        got = tuple(zip(filt.factors, filt.phases))
    elif (cert := stability.is_semistable(rep, Z, cap)).is_semistable:
        got = ((rep, cert.object_phase),)
    else:
        raise UnsupportedVerdictError(
            "decomposition over Q is only available for semistable representations"
        )
    Z._hn[rep, cap] = got
    return got


def hn_decompose(fc: FormalComplex, S: StabilityConditionHandle,
                 cap: int = quivrep.DEFAULT_CAP) -> list[DecomposedFactor]:
    """Descending-phase factors of a formal complex in a stability condition.

    Per shift k the factors are the module-level filtration factors of
    M_k under the handle's charge, with phases offset by k and relabeled
    through the handle's plane-action element.  Concatenating over
    descending k keeps the whole list strictly descending because a
    shift moves phases by exactly one and relabeling is monotone; the
    order is checked once, on the relabeled keys.  The object must live
    over the handle's quiver and field.
    """
    if fc.is_zero:
        raise ZeroObjectError("the zero object has no decomposition")
    rep0 = fc.parts[0][1]  # every part shares its quiver and field
    if (rep0.quiver, rep0.field) != (S.quiver, S.field):
        raise FieldMismatchError("object and stability condition live over different hearts")
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


Testset = Sequence[tuple[str, FormalComplex]]  # (label, object) pairs


class ObjectDrift(NamedTuple):
    label: str
    lo_diff: float
    hi_diff: float

    @property
    def value(self) -> float:
        return max(abs(self.lo_diff), abs(self.hi_diff))


class DistanceReport(NamedTuple):
    value: float
    rows: tuple  # ObjectDrifts, or stabspace.StabDistanceRows with a mass term


def slicing_distance(s1: StabilityConditionHandle, s2: StabilityConditionHandle,
                     testset: Testset, cap: int = quivrep.DEFAULT_CAP) -> DistanceReport:
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
    for label, fc in testset:
        lo1, hi1 = phi_bounds(fc, s1, cap)
        lo2, hi2 = phi_bounds(fc, s2, cap)
        rows.append(ObjectDrift(label, phase_diff_float(lo1, lo2), phase_diff_float(hi1, hi2)))
    return DistanceReport(max(r.value for r in rows), tuple(rows))
