"""Exact scalar arithmetic.

A scalar is a rational number, or an element c0 + c1*lam of the quadratic
extension Q(sqrt(s)) given by the relation ``lam**2 == s`` for a fixed
rational modulus ``s`` (its degenerate version when s is a rational
square).  There is no free symbol: a scalar without a modulus holds only Q.

Univariate polynomials over Q are represented as tuples of Fractions in
increasing degree order with no trailing zeros; the zero polynomial is the
empty tuple.

Every Scalar is in canonical form, and ``Scalar.__init__`` is the one place
that puts it there: ``den == (1,)``, and ``num`` has at most two terms with
a modulus and at most one without.  Canonical forms are unique, so equality
with a common modulus compares ``num``.  The arithmetic computes the
canonical result directly and builds it with ``Scalar._make``, which skips
normalisation.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Tuple, Union

UPoly = Tuple[Fraction, ...]

_ONE: UPoly = (Fraction(1),)
_ZERO = Fraction(0)
_new = object.__new__

RatLike = Union[int, Fraction]


# ----------------------------------------------------------------------
# univariate polynomial helpers


def _rat(c) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


def _modulus(mod) -> Optional[Fraction]:
    return None if mod is None else _rat(mod)


def _trim(cs: list) -> UPoly:
    """The list `cs` without trailing zeros, as a tuple (pops in place)."""
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _pnorm(cs) -> UPoly:
    return _trim(list(cs))


def _padd(a: UPoly, b: UPoly) -> UPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _psub(a: UPoly, b: UPoly) -> UPoly:
    out = list(a)
    out.extend([_ZERO] * (len(b) - len(a)))
    for i, c in enumerate(b):
        out[i] -= c
    return _trim(out)


def _pneg(a: UPoly) -> UPoly:
    return tuple([-c for c in a])


def _pmul(a: UPoly, b: UPoly) -> UPoly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _pnorm(out)


def _pscale(a: UPoly, c: Fraction) -> UPoly:
    if not c:
        return ()
    return tuple([x * c for x in a])


def upoly_str(p: UPoly, var: str) -> str:
    """A univariate polynomial in `var`, lowest degree first, e.g. 1/2*s - s^2."""
    parts = []
    for k, c in enumerate(p):
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        else:
            mono = var if k == 1 else "%s^%d" % (var, k)
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (c, mono))
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def interpolate(xs, ys) -> UPoly:
    """The polynomial of least degree through the points (x, y), the x
    distinct, by Newton's divided differences over Q."""
    xs = [_rat(x) for x in xs]
    cs = [_rat(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - j])
    out: UPoly = ()
    for x, c in zip(reversed(xs), reversed(cs)):
        out = _padd(_pmul(out, (-x, Fraction(1))), (c,))
    return out


# the charge grammar of a module label: an integer or p/q, p optionally negative
_RATIONAL = re.compile(r"-?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """The rational written as p or p/q (surrounding blanks allowed); any
    other text, and a zero denominator, is a ValueError."""
    if not _RATIONAL.fullmatch(text.strip()):
        raise ValueError("not a rational p or p/q: %r" % text)
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of x, or None when x is negative
    or not the square of a rational."""
    x = Fraction(x)
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


# ----------------------------------------------------------------------


class Scalar:
    """A rational, or an element of Q(sqrt(mod)) written c0 + c1*lam."""

    __slots__ = ("num", "mod")
    den: UPoly = _ONE  # every canonical form has denominator 1

    def __init__(self, num, den=_ONE, mod: Optional[Fraction] = None):
        """num/den for polynomials num and den in lam, reduced modulo
        lam**2 == mod; without a modulus both must be constants."""
        num = _pnorm(_rat(c) for c in num)
        den = _pnorm(_rat(c) for c in den)
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if mod is None:
            if len(num) > 1 or len(den) > 1:
                raise ValueError("a scalar without a modulus is rational, not a polynomial in lam")
        else:
            mod = Fraction(mod)
            num = self._fold(num, mod)
            den = self._fold(den, mod)
            # rationalize: 1/(a + b*lam) = (a - b*lam)/(a^2 - b^2*s)
            if len(den) == 2:
                conj = (den[0], -den[1])
                num = self._fold(_pmul(num, conj), mod)
                den = self._fold(_pmul(den, conj), mod)
            if not den:
                raise ZeroDivisionError(
                    "denominator is a zero divisor modulo lam^2 - %s" % mod
                )
        if den[0] != 1:
            num = _pscale(num, 1 / den[0])
        self.num = num
        self.mod = mod

    @staticmethod
    def _make(num: UPoly, mod: Optional[Fraction]) -> "Scalar":
        """A Scalar from a numerator already in canonical form, not normalised."""
        sc = _new(Scalar)
        sc.num = num
        sc.mod = mod
        return sc

    @staticmethod
    def _fold(p: UPoly, mod: Fraction) -> UPoly:
        # reduce lam^k for k >= 2 using lam^2 = mod
        out = [Fraction(0), Fraction(0)]
        for k, c in enumerate(p):
            out[k % 2] += c * mod ** (k // 2)
        return _pnorm(out)

    # ------------------------------------------------------------------

    @staticmethod
    def of(value: RatLike, mod: Optional[Fraction] = None) -> "Scalar":
        value = _rat(value)
        return Scalar._make((value,) if value else (), _modulus(mod))

    @staticmethod
    def ratio(x0: int, x1: int, den: int, mod: Optional[Fraction]) -> "Scalar":
        """(x0 + x1*lam)/den for ints, den > 0 (x1 = 0 without a modulus)."""
        if x1:
            return Scalar._make((Fraction(x0, den), Fraction(x1, den)), mod)
        return Scalar._make((Fraction(x0, den),) if x0 else (), mod)

    def scaled(self, f: int, d: int) -> "Scalar":
        """self * f/d for ints f != 0 and d > 0."""
        num = tuple([Fraction(x.numerator * f, x.denominator * d) for x in self.num])
        return Scalar._make(num, self.mod)

    @staticmethod
    def zero(mod: Optional[Fraction] = None) -> "Scalar":
        return Scalar._make((), _modulus(mod))

    @staticmethod
    def one(mod: Optional[Fraction] = None) -> "Scalar":
        return Scalar._make(_ONE, _modulus(mod))

    @staticmethod
    def lam(mod: Optional[Fraction]) -> "Scalar":
        """lam with lam**2 == mod; without a modulus lam is no scalar."""
        if mod is None:
            raise ValueError("lam needs a modulus lam^2 = s")
        return Scalar._make((Fraction(0), Fraction(1)), _rat(mod))

    # ------------------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.of(other, mod=self.mod)
        return NotImplemented  # type: ignore[return-value]

    def _check(self, other: "Scalar") -> Optional[Fraction]:
        if self.mod == other.mod:
            return self.mod
        if self.is_rational():
            return other.mod
        if other.is_rational():
            return self.mod
        raise ValueError("scalar modulus mismatch: %r vs %r" % (self.mod, other.mod))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._make(_padd(self.num, other.num), self._check(other))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._make(_pneg(self.num), self.mod)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar._make(_psub(self.num, other.num), self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mod = self._check(other)
        a, b = self.num, other.num
        if len(a) == 1:
            return Scalar._make(_pscale(b, a[0]), mod)
        if len(b) == 1:
            return Scalar._make(_pscale(a, b[0]), mod)
        if not a or not b:
            return Scalar._make((), mod)
        # two terms each, so there is a modulus
        (a0, a1), (b0, b1) = a, b
        return Scalar._make(_trim([a0 * b0 + a1 * b1 * mod, a0 * b1 + a1 * b0]), mod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mod = self._check(other)
        b = other.num
        if not b:
            raise ZeroDivisionError("scalar division by zero")
        if len(b) == 1:
            return Scalar._make(_pscale(self.num, 1 / b[0]), mod)
        # (a0 + a1*lam)/(b0 + b1*lam) = (a0 + a1*lam)(b0 - b1*lam)/norm
        b0, b1 = b
        norm = b0 * b0 - b1 * b1 * mod
        if not norm:
            raise ZeroDivisionError("denominator is a zero divisor modulo lam^2 - %s" % mod)
        a0, a1 = (self.num + (_ZERO, _ZERO))[:2]
        num = _trim([(a0 * b0 - a1 * b1 * mod) / norm, (a1 * b0 - a0 * b1) / norm])
        return Scalar._make(num, mod)

    def __rtruediv__(self, other):
        return Scalar.of(other, mod=self.mod) / self

    def __pow__(self, k: int):
        if k < 0:
            return (Scalar.one(self.mod) / self) ** (-k)
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Scalar.one(self.mod) if out is None else out

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.as_rat() == other
        if not isinstance(other, Scalar):
            return NotImplemented
        if self.mod == other.mod:
            # canonical forms are unique
            return self.num == other.num
        try:
            return (self - other).is_zero()
        except ValueError:
            return False

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rat())
        return hash((self.num, self.mod))

    # ------------------------------------------------------------------

    def is_rational(self) -> bool:
        return len(self.num) <= 1

    def as_rat(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar %s is not rational" % self)
        return self.num[0] if self.num else Fraction(0)

    # ------------------------------------------------------------------

    def __repr__(self):
        return "Scalar(%s)" % self

    def __str__(self):
        return upoly_str(self.num, "lam")


class Phase:
    """The root of unity exp(i*pi*r) for rational r, taken modulo 2; an
    immutable value."""

    __slots__ = ("r",)

    def __init__(self, r):
        object.__setattr__(self, "r", Fraction(r) % 2)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __eq__(self, other):
        if type(other) is not Phase:
            return NotImplemented
        return self.r == other.r

    def __hash__(self):
        return hash(self.r)

    def __repr__(self):
        return "Phase(r=%r)" % (self.r,)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.r + other.r)

    def __pow__(self, k: int) -> "Phase":
        return Phase(self.r * k)

    def is_real(self) -> bool:
        return self.r.denominator == 1

    def as_sign(self) -> int:
        """Return +-1 when the phase is real; error otherwise."""
        if not self.is_real():
            raise ValueError("phase exp(i*pi*%s) is not real" % self.r)
        return 1 if self.r == 0 else -1

    def __str__(self):
        return "exp(i*pi*%s)" % self.r
