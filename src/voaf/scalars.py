"""Exact scalar arithmetic.

A scalar is a rational number, or an element a + b*lam of the quadratic
extension Q(sqrt(s)) given by the relation ``lam**2 == s`` for a fixed
rational modulus ``s`` (its degenerate version when s is a rational
square).  There is no free symbol: a scalar without a modulus holds only Q.

A Scalar is (a0 + a1*lam)/d for ints a0, a1 and d, with its modulus ``mod``
(a Fraction, or None).  Every Scalar is in canonical form: d > 0,
gcd(a0, a1, d) == 1 (so zero is 0/1), and a modulus exactly when a1 != 0,
so a rational is one value whatever field it was computed in.
``Scalar.__init__`` is the one place that puts it there: the arithmetic
computes integer numerators and a denominator and builds its result with
the constructor.  Canonical forms are unique, so equality compares the ints
and the modulus.

No float enters: `rational` admits ints and Fractions only, and every entry
point that takes a number from outside the engine passes it through it.

Univariate polynomials over Q (interpolation and printing) are tuples of
Fractions in increasing degree order with no trailing zeros; the zero
polynomial is the empty tuple.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Tuple

UPoly = Tuple[Fraction, ...]


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


def rational(x) -> Fraction:
    """An int or a Fraction as a Fraction; a TypeError for anything else, a
    float above all."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("expected an int or a Fraction, not %r" % (x,))


def interpolate(xs, ys) -> UPoly:
    """The polynomial of least degree through the points (x, y), the x
    distinct, by Newton's divided differences over Q."""
    xs = [rational(x) for x in xs]
    cs = [rational(y) for y in ys]
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - j])
    # Horner on the Newton form: out <- out * (t - x) + c
    out = []
    for x, c in zip(reversed(xs), reversed(cs)):
        out.insert(0, Fraction(0))
        for i in range(len(out) - 1):
            out[i] -= x * out[i + 1]
        out[0] += c
    while out and not out[-1]:
        out.pop()
    return tuple(out)


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
    x = rational(x)
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def quarter_square_index(h: Fraction) -> Optional[int]:
    """The integer n >= 0 with h = n^2/4, or None when h is not of that form:
    at c = 1 the weights where a Verma module is degenerate."""
    root = rational_sqrt(4 * h)
    if root is None or root.denominator != 1:
        return None
    return root.numerator


class Scalar:
    """(a0 + a1*lam)/d in canonical form, lam**2 == mod.  A Scalar is a
    value: no operation changes one."""

    __slots__ = ("a0", "a1", "d", "mod")
    den: UPoly = (Fraction(1),)  # the denominator of `num`: always 1

    def __init__(self, a0: int, a1: int, d: int, mod: Optional[Fraction]):
        """(a0 + a1*lam)/d for ints a0, a1 and d != 0, put in canonical
        form: a1 != 0 needs a modulus, and a rational drops it."""
        if d < 0:
            a0, a1, d = -a0, -a1, -d
        elif not d:
            raise ZeroDivisionError("scalar with zero denominator")
        if not a1:
            mod = None
        elif mod is None:
            raise ValueError("a scalar without a modulus is rational, not a polynomial in lam")
        elif type(mod) is not Fraction:
            mod = rational(mod)
        g = math.gcd(a0, a1, d)
        if g != 1:
            a0, a1, d = a0 // g, a1 // g, d // g
        self.a0 = a0
        self.a1 = a1
        self.d = d
        self.mod = mod

    @property
    def num(self) -> UPoly:
        """The coefficients (c0, c1) of c0 + c1*lam as Fractions, without
        trailing zeros: () for zero, (c0,) for a rational."""
        if self.a1:
            return (Fraction(self.a0, self.d), Fraction(self.a1, self.d))
        return (Fraction(self.a0, self.d),) if self.a0 else ()

    @staticmethod
    def of(value: int | Fraction | Scalar) -> "Scalar":
        """A Scalar unchanged, an int or a Fraction as a rational Scalar."""
        if type(value) is Scalar:
            return value
        if not isinstance(value, (int, Fraction)):
            raise TypeError("Scalar.of takes an int, a Fraction or a Scalar, not %r" % (value,))
        return Scalar(value.numerator, 0, value.denominator, None)

    @staticmethod
    def zero() -> "Scalar":
        return Scalar(0, 0, 1, None)

    @staticmethod
    def one() -> "Scalar":
        return Scalar(1, 0, 1, None)

    @staticmethod
    def lam(mod: Optional[Fraction]) -> "Scalar":
        """lam with lam**2 == mod; without a modulus lam is no scalar."""
        if mod is None:
            raise ValueError("lam needs a modulus lam^2 = s")
        return Scalar(0, 1, 1, mod)

    def _operand(self, other):
        """(b0, b1, e, mod): the ints of `other` (a Scalar, int or Fraction)
        and the one modulus of the two, if any; None for any other type."""
        if type(other) is Scalar:
            mod = self.mod
            if mod is None:
                mod = other.mod
            elif not (other.mod is None or other.mod is mod or other.mod == mod):
                raise ValueError("scalar modulus mismatch: %r vs %r" % (mod, other.mod))
            return other.a0, other.a1, other.d, mod
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator, self.mod
        return None

    def __add__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        b0, b1, e, mod = o
        d = self.d
        return Scalar(self.a0 * e + b0 * d, self.a1 * e + b1 * d, d * e, mod)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.a0, -self.a1, self.d, self.mod)

    def __sub__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        b0, b1, e, mod = o
        d = self.d
        return Scalar(self.a0 * e - b0 * d, self.a1 * e - b1 * d, d * e, mod)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        b0, b1, e, mod = o
        a0, a1 = self.a0, self.a1
        if not (a1 and b1):
            return Scalar(a0 * b0, a1 * b0 + a0 * b1, self.d * e, mod)
        # two lam-parts, so there is a modulus s = sn/sd
        sn, sd = mod.numerator, mod.denominator
        return Scalar(a0 * b0 * sd + a1 * b1 * sn, (a0 * b1 + a1 * b0) * sd, self.d * e * sd, mod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        b0, b1, e, mod = o
        a0, a1, d = self.a0, self.a1, self.d
        if not b1:
            if not b0:
                raise ZeroDivisionError("scalar division by zero")
            return Scalar(a0 * e, a1 * e, d * b0, mod)
        # (a0 + a1*lam)/(b0 + b1*lam) = (a0 + a1*lam)(b0 - b1*lam)/norm, s = sn/sd
        sn, sd = mod.numerator, mod.denominator
        norm = b0 * b0 * sd - b1 * b1 * sn
        if not norm:
            raise ZeroDivisionError("denominator is a zero divisor modulo lam^2 - %s" % mod)
        x0, x1 = a0 * b0 * sd - a1 * b1 * sn, (a1 * b0 - a0 * b1) * sd
        return Scalar(x0 * e, x1 * e, d * norm, mod)

    def __rtruediv__(self, other):
        return Scalar.of(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (Scalar.one() / self) ** (-k)
        out = Scalar.one()
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return self.a0 != 0 or self.a1 != 0

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0

    def __eq__(self, other):
        if type(other) is Scalar:
            return (self.a0 == other.a0 and self.a1 == other.a1 and self.d == other.d
                    and self.mod == other.mod)
        if isinstance(other, (int, Fraction)):
            return not self.a1 and self.a0 == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self.a1:
            return hash((self.a0, self.a1, self.d, self.mod))
        return hash(self.a0) if self.d == 1 else hash(Fraction(self.a0, self.d))

    def is_rational(self) -> bool:
        return not self.a1

    def as_rat(self) -> Fraction:
        if self.a1:
            raise ValueError("scalar %s is not rational" % self)
        return Fraction(self.a0, self.d)

    def __repr__(self):
        return "Scalar(%s)" % self

    def __str__(self):
        return upoly_str(self.num, "lam")

