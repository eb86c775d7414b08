"""Numerical stability data on a genus-one curve: rank/degree classes,
the standard charge, the free-transitive classification by plane-action
elements, and reduction to the modular fundamental domain.

Only numerical classes are modeled; every checkable statement at this
level is about charges and phases of (rank, degree) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateChargeError, OrientationError
from .exactnum import ExactComplex, PhaseKey
from .stabspace import (
    GLtildeElement,
    Mat2,
    mat2,
    mat2_det,
    mat2_inv,
    mat2_mul,
)

MAT_STD: Mat2 = mat2(0, -1, 1, 0)  # sends (r, d) to (-d, r)


@dataclass(frozen=True)
class NumClass:
    """Numerical class of a sheaf: rank and degree."""

    r: int
    d: int


def euler_form_curve(c1: NumClass, c2: NumClass) -> int:
    """Antisymmetric pairing r1*d2 - r2*d1."""
    return c1.r * c2.d - c2.r * c1.d


def std_charge(c: NumClass) -> ExactComplex:
    """-degree + i * rank."""
    return ExactComplex(Fraction(-c.d), Fraction(c.r))


@dataclass(frozen=True)
class NumericalCharge:
    """A rational matrix sending (r, d) to (re Z, im Z)."""

    M: Mat2

    def of(self, c: NumClass) -> ExactComplex:
        return ExactComplex(
            self.M[0][0] * c.r + self.M[0][1] * c.d,
            self.M[1][0] * c.r + self.M[1][1] * c.d,
        )


def charge_of_element(g: GLtildeElement) -> NumericalCharge:
    """Numerical charge of the standard condition acted on by g."""
    return NumericalCharge(mat2_mul(mat2_inv(g.T), MAT_STD))


_SKYSCRAPER_KEY = PhaseKey(0, ExactComplex(Fraction(-1), Fraction(0)))  # phase exactly 1


def classify(Zn: NumericalCharge) -> GLtildeElement:
    """The unique element carrying the standard condition to Zn.

    The matrix part solves Zn = T^{-1} after the standard charge; the
    branch is pinned by requiring the skyscraper class (0, 1) to receive
    phase in (0, 2].  Orientation-reversing input violates the
    hypothesis of the free-transitive classification and is rejected.
    """
    det = mat2_det(Zn.M)
    if det == 0:
        raise DegenerateChargeError("numerical charge matrix is singular")
    if det < 0:
        raise OrientationError(
            "numerical charge reverses orientation; the classification requires "
            "an orientation-preserving charge (maps A->B and B->A[1] force phase(A) <= phase(B) <= phase(A)+1)"
        )
    T = mat2_mul(MAT_STD, mat2_inv(Zn.M))
    probe = GLtildeElement(T, 0).relabel(_SKYSCRAPER_KEY)
    m = (1 - probe.k) // 2
    return GLtildeElement(T, m)


@dataclass(frozen=True)
class ModularReduction:
    gamma: tuple[tuple[int, int], tuple[int, int]]
    word: tuple[str, ...]
    tau: ExactComplex
    omega1: ExactComplex
    branch: int

    @property
    def tau_float(self) -> tuple[float, float]:
        return self.tau.to_floats()

    @property
    def scale(self) -> float:
        return math.sqrt(float(self.omega1.abs_squared()))


_GAMMA_S = ((0, -1), (1, 0))


def _gamma_t(n: int):
    return ((1, n), (0, 1))


def _gamma_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def modular_reduce(g: GLtildeElement) -> ModularReduction:
    """Reduce the upper-half-plane point of g's matrix into the standard
    fundamental domain |re| <= 1/2, |tau| >= 1.

    tau is the ratio of the basis images (second over first), which lies
    in the upper half-plane because det > 0; translations and inversions
    are applied with exact rational complex arithmetic and accumulated
    as a word in the modular group.  The first basis image and the
    branch index are returned so the full element is recoverable.
    """
    T = g.T
    omega1 = ExactComplex(T[0][0], T[1][0])
    omega2 = ExactComplex(T[0][1], T[1][1])
    n2 = omega1.abs_squared()
    tau = ExactComplex(
        (omega2.re * omega1.re + omega2.im * omega1.im) / n2,
        (omega2.im * omega1.re - omega2.re * omega1.im) / n2,
    )
    gamma = ((1, 0), (0, 1))
    word: list[str] = []
    while True:
        n = math.floor(tau.re + Fraction(1, 2))
        if n != 0:
            tau = ExactComplex(tau.re - n, tau.im)
            gamma = _gamma_mul(_gamma_t(-n), gamma)
            word.append(f"T^{-n}")
        if tau.abs_squared() < 1:
            m2 = tau.abs_squared()
            tau = ExactComplex(-tau.re / m2, tau.im / m2)
            gamma = _gamma_mul(_GAMMA_S, gamma)
            word.append("S")
        else:
            break
    return ModularReduction(gamma, tuple(word), tau, omega1, g.m)
