"""Exact scalars, exact complex numbers, and exact phase bookkeeping.

Scalars are either ``fractions.Fraction`` or :class:`QuadScalar` values
``a + b*sqrt(D)`` in a single quadratic extension.  Phases are never
stored as real numbers: a :class:`PhaseKey` is an integer plus a nonzero
direction with argument in ``(0, pi]``, which supports every comparison
the rest of the package needs without ever evaluating ``arg`` or ``pi``.
Every angle is a PhaseKey: a counterclockwise displacement between two
rays (:func:`ccw_displacement`) is one with value in [0, 2), and
:meth:`PhaseKey.plus` adds two phases exactly.  Floats appear only in
advisory output fields.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import UnsupportedScalarError


# Largest trial divisor squarefree_split tries: about 5*10**5 divisions.
SPLIT_BUDGET = 10**6
# Largest numerator and denominator of a parsed literal (session scalars,
# --matrix, --eps).  A report's advisory float takes at most 16 such
# factors (a phase relabeled by a matrix of least determinant), so it
# stays below about 10**250, inside the float range.
MAX_LITERAL = 10**15


@lru_cache(maxsize=1024)
def squarefree_split(n: int) -> tuple[int, int]:
    """The pair (s, d) with n = s**2 * d and d square-free; n >= 1.

    Trial division runs while k**3 <= the cofactor r.  Every prime left in
    r is then above its cube root, so r is 1, a prime, a product of two
    distinct primes or the square of a prime, and math.isqrt tells which.
    A cofactor that still needs a divisor above SPLIT_BUDGET is refused.
    """
    s, d, r, k = 1, 1, n, 2
    while k * k * k <= r:
        if k > SPLIT_BUDGET:
            raise UnsupportedScalarError(
                f"cannot split {n} into a square and a square-free part: "
                f"it needs trial divisors above {SPLIT_BUDGET}"
            )
        e = 0
        while r % k == 0:
            r //= k
            e += 1
        s *= k ** (e // 2)
        d *= k ** (e % 2)
        k += 1 if k == 2 else 2
    q = math.isqrt(r)
    if q * q == r:
        return s * q, d
    return s, d * r


class _SquareFree(int):
    """An integer that split_fraction proved square-free; QuadScalar takes it without a split."""


def split_fraction(q: Fraction) -> tuple[Fraction, int]:
    """The pair (r, d) with q = r**2 * d and d square-free; q > 0.  The square-free
    parts of the numerator and the denominator are coprime, so d is their product."""
    (s1, d1), (s2, d2) = squarefree_split(q.numerator), squarefree_split(q.denominator)
    return Fraction(s1 * s2, q.denominator), _SquareFree(d1 * d2)


class Frozen:
    """Base of the package's immutable classes.

    A subclass names its fields in ``__slots__`` and stores each one once,
    in its constructor, through ``object.__setattr__`` or the slot's
    descriptor; assignment and deletion then raise AttributeError.
    ``==``, ``hash``, ``repr`` and pickling go by the public slots in
    order; slots named ``_...`` are left out of all four.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class QuadScalar(Frozen):
    """Exact element ``a + b*sqrt(d)`` of a real quadratic extension.

    ``d`` must be a square-free integer >= 2, so sqrt(d) is irrational and
    the sign of any element is decidable by comparing ``a**2`` with
    ``b**2 * d`` (with the obvious case analysis on the signs of a and b).
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int, d: int):
        _set_a(self, a if type(a) is Fraction else Fraction(a))
        _set_b(self, b if type(b) is Fraction else Fraction(b))
        _set_d(self, d)
        self.__post_init__()

    def __post_init__(self):
        """The check of d.  The constructor calls it once per instance through
        the class, so a replacement set on the class sees every construction."""
        if self.d < 2 or (not isinstance(self.d, _SquareFree) and squarefree_split(self.d)[0] != 1):
            raise UnsupportedScalarError(
                f"quadratic extension requires a square-free integer >= 2, got d={self.d}"
            )

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
    (masses, wall-root bracketing).  ``value`` must be >= 0.
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


class ExactComplex(Frozen):
    """Complex number with exact rational or quadratic-extension parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Scalar | int, im: Scalar | int):
        _set_re(self, re)
        _set_im(self, im)

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


def cross(z1: ExactComplex, z2: ExactComplex) -> Scalar:
    """Signed area re(z1)*im(z2) - im(z1)*re(z2); sign orders arguments."""
    return z1.re * z2.im - z1.im * z2.re


def cross_sign(z1: ExactComplex, z2: ExactComplex) -> int:
    """sign_of(cross(z1, z2)); with four Fraction parts, n1*n4*d2*d3 against n2*n3*d1*d4 in integers."""
    a, b, c, d = z1.re, z2.im, z1.im, z2.re
    if type(a) is type(b) is type(c) is type(d) is Fraction:
        return sign_of(a.numerator * b.numerator * c.denominator * d.denominator
                       - c.numerator * d.numerator * a.denominator * b.denominator)
    return sign_of(cross(z1, z2))


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


class PhaseKey(Frozen):
    """Exact phase ``k + arg(dir)/pi`` with ``arg(dir)`` in ``(0, pi]``.

    The pair (integer, direction) is the only phase representation in the
    package; two keys are equal iff the integers agree and the directions
    are positively proportional.  The fractional part lies in (0, 1], so
    the representation of a phase value is unique and comparisons reduce
    to integer comparison plus one exact cross-product sign.
    """

    __slots__ = ("k", "dir")

    def __init__(self, k: int, dir: ExactComplex):
        if not in_strict_upper_half(dir):
            raise ValueError(f"phase direction {dir!r} not in (0, pi] convention")
        _set_k(self, k)
        _set_dir(self, dir)

    def cmp(self, other: "PhaseKey") -> int:
        if self.k != other.k:
            return -1 if self.k < other.k else 1
        # both args in (0, pi]: positive cross means self's arg is smaller
        return -cross_sign(self.dir, other.dir)

    def __eq__(self, other):
        if type(other) is not type(self):
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

    def plus(self, other: "PhaseKey") -> "PhaseKey":
        """The phase ``self + other``, exactly: the directions multiply.  An
        integer ``other`` (direction on the negative real axis) keeps
        ``self.dir``, as :meth:`shift` does, and a zero one returns self."""
        if other.dir.im == 0:
            return self if other.k == -1 else PhaseKey(self.k + other.k + 1, self.dir)
        u = self.dir * other.dir
        if in_strict_upper_half(u):
            return PhaseKey(self.k + other.k, u)
        return PhaseKey(self.k + other.k + 1, -u)

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


# The value types' constructors store through the slot descriptors: the
# cheapest store that their refusal of attribute assignment leaves.
_set_a, _set_b, _set_d = QuadScalar.a.__set__, QuadScalar.b.__set__, QuadScalar.d.__set__
_set_re, _set_im = ExactComplex.re.__set__, ExactComplex.im.__set__
_set_k, _set_dir = PhaseKey.k.__set__, PhaseKey.dir.__set__

EC_I = ExactComplex(Fraction(0), Fraction(1))


def ccw_displacement(d1: ExactComplex, d2: ExactComplex) -> PhaseKey:
    """Counterclockwise displacement from ray(d1) to ray(d2): the phase
    of ``w = d2 * conj(d1)`` taken in [0, 2)."""
    if d1.is_zero or d2.is_zero:
        raise ValueError("displacement of a zero vector")
    w = d2 * d1.conj()
    if in_strict_upper_half(w):
        return PhaseKey(0, w)
    return PhaseKey(-1 if w.im == 0 else 1, -w)


def phase_key_anchor(u: ExactComplex, m: int) -> PhaseKey:
    """The unique phase value congruent to arg(u)/pi mod 2 inside
    ``(2m - 1/2, 2m + 3/2]``, as a PhaseKey.

    This pins branches for the plane-action bookkeeping: the window has
    length exactly 2, so the value exists and is unique for any nonzero u.
    Off the upper half-plane the key stores -u: k is 2m + 1 for arg(u) in
    (pi, 3pi/2] and 2m - 1 for the rest, the positive real axis included.
    """
    if u.is_zero:
        raise ValueError("anchor direction must be nonzero")
    if in_strict_upper_half(u):
        return PhaseKey(2 * m, u)  # arg in (0, pi]
    return PhaseKey(2 * m + (1 if sign_of(u.im) < 0 and sign_of(u.re) <= 0 else -1), -u)


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
    """Parse an integer, 'a/b' or decimal token into a Fraction whose
    numerator and denominator are at most MAX_LITERAL in magnitude."""
    if isinstance(text, int):
        q = Fraction(text)
    elif isinstance(text, str):
        token = text.strip()
        # Fraction builds 10**exponent before any bound could be checked
        if len(token.lower().partition("e")[2].lstrip("+-")) > 3:
            raise UnsupportedScalarError(f"bad rational literal {text!r}: exponent out of range")
        try:
            q = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise UnsupportedScalarError(f"bad rational literal {text!r}: {exc}") from None
    else:
        raise UnsupportedScalarError(f"bad rational literal {text!r}")
    if abs(q.numerator) > MAX_LITERAL or q.denominator > MAX_LITERAL:
        raise UnsupportedScalarError(
            f"rational literal {text!r} is out of range: its numerator and denominator "
            f"must be at most {MAX_LITERAL} in magnitude"
        )
    return q
