"""Exact scalars, exact complex numbers, and exact phase bookkeeping.

Scalars are either ``fractions.Fraction`` or :class:`QuadScalar` values
``a + b*sqrt(D)`` in a single quadratic extension.  Phases are never
stored as real numbers: a :class:`PhaseKey` is an integer plus a nonzero
direction with argument in ``(0, pi]``, which supports every comparison
the rest of the package needs without ever evaluating ``arg`` or ``pi``.
Floats appear only in advisory output fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedScalarError


@lru_cache(maxsize=1024)
def _is_square_free(n: int) -> bool:
    if n % 4 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class QuadScalar:
    """Exact element ``a + b*sqrt(d)`` of a real quadratic extension.

    ``d`` must be a square-free integer >= 2, so sqrt(d) is irrational and
    the sign of any element is decidable by comparing ``a**2`` with
    ``b**2 * d`` (with the obvious case analysis on the signs of a and b).
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.d < 2 or not _is_square_free(self.d):
            raise UnsupportedScalarError(
                f"quadratic extension requires a square-free integer >= 2, got d={self.d}"
            )
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def _coerce(self, other) -> "QuadScalar":
        if isinstance(other, QuadScalar):
            if other.d != self.d:
                raise UnsupportedScalarError(
                    f"mixed quadratic extensions sqrt({self.d}) and sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return QuadScalar(Fraction(other), Fraction(0), self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadScalar(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadScalar(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadScalar(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        # norm a^2 - b^2 d vanishes only at 0 because sqrt(d) is irrational
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic scalar")
        return QuadScalar(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def sign(self) -> int:
        """Exact sign of ``a + b*sqrt(d)`` by rational case analysis."""
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite signs: |a| vs |b| sqrt(d) decides, i.e. a^2 vs b^2 d
        cmp = self.a * self.a - self.b * self.b * self.d
        if cmp == 0:
            return 0  # unreachable for square-free d >= 2
        return sa if cmp > 0 else sb

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            return self.d == other.d and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadScalar({self.a}, {self.b}, d={self.d})"


Scalar = Fraction | QuadScalar


def sign_of(x: Scalar | int) -> int:
    if isinstance(x, QuadScalar):
        return x.sign()
    return (x > 0) - (x < 0)


def is_zero_scalar(x: Scalar | int) -> bool:
    return sign_of(x) == 0


def fmt_scalar(x: Scalar | int) -> str:
    if isinstance(x, QuadScalar):
        if x.b == 0:
            return str(x.a)
        return f"({x.a}+{x.b}√{x.d})"
    return str(x)


def sqrt_bounds(value: Scalar | int, bits: int = 70) -> tuple[Fraction, Fraction]:
    """A rational enclosure of sqrt(value) with width about 2**-bits.

    Used wherever a transcendental-free bound on a square root is needed
    (mass error bounds, wall-root bracketing).  ``value`` must be >= 0.
    """
    if sign_of(value) < 0:
        raise ValueError("sqrt of negative value")
    if isinstance(value, QuadScalar):
        lo, hi = root_bounds(value, bits + 10)
        return (_sqrt_bounds_fraction(max(lo, Fraction(0)), bits)[0], _sqrt_bounds_fraction(hi, bits)[1])
    return _sqrt_bounds_fraction(Fraction(value), bits)


def root_bounds(x: Scalar, bits: int) -> tuple[Fraction, Fraction]:
    """A rational enclosure of a scalar: a Fraction is its own enclosure,
    and ``a + b*sqrt(d)`` takes the sqrt(d) bounds of width about 2**-bits."""
    if not isinstance(x, QuadScalar):
        return x, x
    lo_s, hi_s = _sqrt_bounds_fraction(Fraction(x.d), bits)
    if x.b >= 0:
        return x.a + x.b * lo_s, x.a + x.b * hi_s
    return x.a + x.b * hi_s, x.a + x.b * lo_s


def _sqrt_bounds_fraction(q: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    if q < 0:
        raise ValueError("sqrt of negative value")
    scale = 1 << (2 * bits)
    n = (q.numerator * scale) // q.denominator
    r = math.isqrt(n)
    lo = Fraction(r, 1 << bits)
    hi = Fraction(r + 2, 1 << bits)
    return lo, hi


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational or quadratic-extension parts."""

    re: Scalar
    im: Scalar

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __mul__(self, other: "ExactComplex") -> "ExactComplex":
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, s: Scalar | int) -> "ExactComplex":
        return ExactComplex(self.re * s, self.im * s)

    def conj(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return is_zero_scalar(self.re) and is_zero_scalar(self.im)

    def abs_squared(self) -> Scalar:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return is_zero_scalar(self.re - other.re) and is_zero_scalar(self.im - other.im)

    def __hash__(self):
        return hash((fmt_scalar(self.re), fmt_scalar(self.im)))

    def to_floats(self) -> tuple[float, float]:
        return (float(self.re), float(self.im))

    def __repr__(self):
        return f"({fmt_scalar(self.re)} + {fmt_scalar(self.im)}i)"


EC_I = ExactComplex(Fraction(0), Fraction(1))


def cross(z1: ExactComplex, z2: ExactComplex) -> Scalar:
    """Signed area re(z1)*im(z2) - im(z1)*re(z2); sign orders arguments."""
    return z1.re * z2.im - z1.im * z2.re


def in_strict_upper_half(z: ExactComplex) -> bool:
    """True iff z = r*exp(i*pi*phi) with r > 0 and phi in (0, 1].

    Zero returns False.  The boundary ray is the negative real axis.
    """
    si = sign_of(z.im)
    if si > 0:
        return True
    if si == 0:
        return sign_of(z.re) < 0
    return False


@dataclass(frozen=True, eq=False)
class PhaseKey:
    """Exact phase ``k + arg(dir)/pi`` with ``arg(dir)`` in ``(0, pi]``.

    The pair (integer, direction) is the only phase representation in the
    package; two keys are equal iff the integers agree and the directions
    are positively proportional.  The fractional part lies in (0, 1], so
    the representation of a phase value is unique and comparisons reduce
    to integer comparison plus one exact cross-product sign.
    """

    k: int
    dir: ExactComplex

    def __post_init__(self):
        if not in_strict_upper_half(self.dir):
            raise ValueError(f"phase direction {self.dir!r} not in (0, pi] convention")

    def cmp(self, other: "PhaseKey") -> int:
        if self.k != other.k:
            return -1 if self.k < other.k else 1
        c = sign_of(cross(self.dir, other.dir))
        # both args in (0, pi]: positive cross means self's arg is smaller
        return -c

    def __eq__(self, other):
        if not isinstance(other, PhaseKey):
            return NotImplemented
        return self.cmp(other) == 0

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __hash__(self):
        return hash(self.k)

    def shift(self, n: int) -> "PhaseKey":
        return PhaseKey(self.k + n, self.dir)

    def fractional_below_half(self) -> bool:
        """True iff the fractional part is < 1/2, i.e. arg(dir) < pi/2."""
        return sign_of(self.dir.re) > 0

    def window_index(self) -> int:
        """floor((phi - 1/2) / 2) for the phase value phi, exactly."""
        t = self.k // 2
        if self.k % 2 == 0 and self.fractional_below_half():
            t -= 1
        return t

    def add_displacement(self, disp: "Displacement") -> "PhaseKey":
        """The phase value ``self + disp`` with disp in [0, 2), exactly.

        Multiplying the direction by the displacement witness adds the
        arguments; the integer part is fixed by which half-plane the
        product lands in together with the displacement's sector.
        """
        s = disp.sector
        if s == 0:
            return self
        if s == 2:
            return PhaseKey(self.k + 1, self.dir)
        u = self.dir * disp.w
        if in_strict_upper_half(u):
            return PhaseKey(self.k + (0 if s == 1 else 2), u)
        return PhaseKey(self.k + 1, -u)

    def float_value(self) -> float:
        re, im = self.dir.to_floats()
        return self.k + math.atan2(im, re) / math.pi

    def __repr__(self):
        return f"PhaseKey(k={self.k}, dir={self.dir!r}, ~{self.float_value():.6f})"


def normalize_direction(z: ExactComplex) -> PhaseKey:
    """PhaseKey of a nonzero vector, with value in (-1, 1].

    Vectors in the strict upper half-plane get k = 0; the rest get k = -1
    with the direction negated.  Positive rescaling leaves the result
    unchanged.
    """
    if z.is_zero:
        raise ValueError("no phase for the zero vector")
    if in_strict_upper_half(z):
        return PhaseKey(0, z)
    return PhaseKey(-1, -z)


@dataclass(frozen=True, eq=False)
class Displacement:
    """Counterclockwise angular displacement in [0, 2) half-turns.

    Stored as a nonzero witness vector ``w`` whose argument (mod 2*pi) is
    pi times the displacement.  Sectors: 0 on the positive real axis
    (displacement 0), 1 in the open upper half-plane (in (0,1)), 2 on the
    negative real axis (exactly 1), 3 in the open lower half-plane
    (in (1,2)).  Comparisons are sector order plus a cross-product sign.
    """

    w: ExactComplex

    def __post_init__(self):
        if self.w.is_zero:
            raise ValueError("displacement witness must be nonzero")

    @property
    def sector(self) -> int:
        si = sign_of(self.w.im)
        if si > 0:
            return 1
        if si < 0:
            return 3
        return 0 if sign_of(self.w.re) > 0 else 2

    @property
    def is_zero(self) -> bool:
        return self.sector == 0

    def cmp(self, other: "Displacement") -> int:
        s1, s2 = self.sector, other.sector
        if s1 != s2:
            return -1 if s1 < s2 else 1
        if s1 in (0, 2):
            return 0
        return -sign_of(cross(self.w, other.w))

    def __eq__(self, other):
        if not isinstance(other, Displacement):
            return NotImplemented
        return self.cmp(other) == 0

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __hash__(self):
        return hash(self.sector)

    def plus(self, other: "Displacement") -> "Displacement":
        """Sum modulo 2 (arguments of witnesses add under multiplication)."""
        return Displacement(self.w * other.w)

    def float_value(self) -> float:
        s = self.sector
        if s == 0:
            return 0.0
        if s == 2:
            return 1.0
        re, im = self.w.to_floats()
        return math.atan2(im, re) / math.pi % 2.0

    def __repr__(self):
        return f"Displacement(~{self.float_value():.6f}, w={self.w!r})"


def ccw_displacement(d1: ExactComplex, d2: ExactComplex) -> Displacement:
    """Counterclockwise displacement from ray(d1) to ray(d2), in [0, 2)."""
    if d1.is_zero or d2.is_zero:
        raise ValueError("displacement of a zero vector")
    return Displacement(d2 * d1.conj())


def phase_key_anchor(u: ExactComplex, m: int) -> PhaseKey:
    """The unique phase value congruent to arg(u)/pi mod 2 inside
    ``(2m - 1/2, 2m + 3/2]``, as a PhaseKey.

    This pins branches for the plane-action bookkeeping: the window has
    length exactly 2, so the value exists and is unique for any nonzero u.
    """
    if u.is_zero:
        raise ValueError("anchor direction must be nonzero")
    if in_strict_upper_half(u):
        return PhaseKey(2 * m, u)  # arg in (0, pi]
    si, sr = sign_of(u.im), sign_of(u.re)
    if si == 0 and sr > 0:
        return PhaseKey(2 * m - 1, -u)  # value exactly 2m
    if si < 0 and sr <= 0:
        return PhaseKey(2 * m + 1, -u)  # arg in (pi, 3pi/2]
    return PhaseKey(2 * m - 1, -u)  # arg in (3pi/2, 2pi)


def phase_diff_float(p: PhaseKey, q: PhaseKey) -> float:
    """Advisory float for p - q; exact (0.0) on positively proportional dirs.

    The integer parts subtract exactly; the fractional difference is the
    argument of ``p.dir * conj(q.dir)``, which is exactly 0.0 whenever the
    directions are positively proportional, so integer phase offsets
    survive the float conversion unchanged.
    """
    w = p.dir * q.dir.conj()
    re, im = w.to_floats()
    return (p.k - q.k) + math.atan2(im, re) / math.pi


def parse_rational(text) -> Fraction:
    """Parse an integer or 'a/b' token into a Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UnsupportedScalarError(f"bad rational literal {text!r}: {exc}") from None
    raise UnsupportedScalarError(f"bad rational literal {text!r}")
