"""Sparse multivariate polynomials over Q.

A polynomial is a positive int `den` and a dict `num` from exponent tuples
(one slot per variable in VARS order) to nonzero int numerators: it is
sum(num[e] * x^e) / den, in canonical form (den prime to the gcd of the
numerators), so equal polynomials have equal num and den.  A MultiPoly is
an immutable value: every operation works on the ints, normalises its
result once and returns a new one; callers must not mutate `num`.  That
lets a polynomial keep the form `evaluate` reads and its powers.
Coefficients enter as ints or Fractions; anything else, a float above all,
raises TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub
from typing import Dict, Optional, Tuple

VARS: Tuple[str, ...] = ("x", "y", "z", "s", "t", "u")
NVARS = len(VARS)
_VAR_INDEX = {v: i for i, v in enumerate(VARS)}

Expo = Tuple[int, ...]
Nums = Dict[Expo, int]

_ZERO_EXPO: Expo = (0,) * NVARS


def _ratio(c) -> Tuple[int, int]:
    """(numerator, denominator > 0) of an int or a Fraction; a TypeError
    for any other type, a float above all."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("coefficient %r is not an int or a Fraction" % (c,))
    return c.numerator, c.denominator


def _times(a: Nums, b: Nums) -> Nums:
    """The product of two polynomials with int coefficients; zero sums stay."""
    out: Nums = {}
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + n1 * n2
    return out


class _Support:
    """The monomials of a polynomial: its exponent tuples (rows), sorted, and
    its degree in each variable.  Supports are interned (_SUPPORTS), so a Point
    keys the values of their monomials on identity and hashes no exponents."""

    __slots__ = ("rows", "degrees")

    def __init__(self, rows: Tuple[Expo, ...]):
        self.rows = rows
        self.degrees = tuple(map(max, zip(*rows))) if rows else _ZERO_EXPO


_SUPPORTS: Dict[Tuple[Expo, ...], _Support] = {}


def _order(e: Expo):
    """The term order of division: largest degree, then largest exponents."""
    return sum(e), e


class MultiPoly:
    __slots__ = ("num", "den", "_cleared", "_powers")

    def __new__(cls, terms=None):
        """The polynomial sum(terms[e] * x^e)."""
        pairs = [(tuple(e),) + _ratio(c) for e, c in terms.items()] if terms else []
        den = math.lcm(*[d for _, _, d in pairs])
        return MultiPoly._make({e: n * (den // d) for e, n, d in pairs if n}, den)

    @staticmethod
    def _make(num: Nums, den: int = 1) -> "MultiPoly":
        """sum(num[e] * x^e) / den for nonzero int numerators and den > 0,
        put in canonical form; `num` is never mutated afterwards."""
        g = math.gcd(den, *num.values())
        if g != 1:
            num, den = {e: n // g for e, n in num.items()}, den // g
        p = object.__new__(MultiPoly)
        object.__setattr__(p, "num", num)
        object.__setattr__(p, "den", den)
        object.__setattr__(p, "_cleared", None)
        object.__setattr__(p, "_powers", None)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def to_data(self) -> list:
        """The canonical form [den, [[exponents, num], ...]] that the data
        files store: one exponent per variable of VARS, terms sorted by
        exponents."""
        return [self.den, [[list(e), n] for e, n in sorted(self.num.items())]]

    @staticmethod
    def from_data(data) -> "MultiPoly":
        """The polynomial of a canonical form written by to_data; a
        ValueError on a malformed one."""
        den, terms = data
        num = {tuple(e): n for e, n in terms}
        if not (
            type(den) is int and den > 0 and len(num) == len(terms)
            and all(type(n) is int and n for n in num.values())
            and all(len(e) == NVARS and all(type(k) is int and k >= 0 for k in e) for e in num)
        ):
            raise ValueError("malformed polynomial data %r" % (data,))
        return MultiPoly._make(num, den)

    @staticmethod
    def const(c) -> "MultiPoly":
        n, d = _ratio(c)
        return MultiPoly._make({_ZERO_EXPO: n} if n else {}, d)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        e = [0] * NVARS
        e[_VAR_INDEX[name]] = 1
        return MultiPoly._make({tuple(e): 1})

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        out = {e: n * f for e, n in self.num.items()}
        for e, n in other.num.items():
            n = out.get(e, 0) + n * g
            if n:
                out[e] = n
            else:
                del out[e]
        return MultiPoly._make(out, den)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({e: -n for e, n in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = _times(self.num, other.num)
        return MultiPoly._make({e: n for e, n in out.items() if n}, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return MultiPoly.const(1) if out is None else out

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def _clear(self):
        """Build and keep the form that evaluate reads: the interned support,
        the numerators in the order of its rows, and the denominator.  Sorted
        rows let the polynomials with one set of monomials share a support."""
        rows = sorted(self.num.items())
        key = tuple(e for e, _ in rows)
        support = _SUPPORTS.get(key) or _SUPPORTS.setdefault(key, _Support(key))
        form = support, [n for _, n in rows], self.den
        object.__setattr__(self, "_cleared", form)
        return form

    def evaluate(self, assign: Dict[str, object]):
        """Evaluate exactly, on integers where the point is rational.

        The first call builds the form (_clear).  The numerators times the
        monomial values that the point keeps for the support
        (Point.build_vector) are summed and divided by the denominator times
        the point's scale once.  Every variable the polynomial uses must be
        assigned.  The result is a Fraction unless a non-rational value
        occurs with positive degree.
        """
        support, coeffs, den = self._cleared or self._clear()
        point = assign if type(assign) is Point else Point(assign)
        monos, scale = point._vectors.get(support) or point.build_vector(support)
        acc = sum(map(mul, coeffs, monos))
        den *= scale
        if type(acc) is int:
            return Fraction(acc, den)
        return acc * Fraction(1, den)

    def subs(self, assign: Dict[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials (or constants) for variables, at once.

        A value N/D of a variable of degree d enters on the ints: at power
        k the term takes the int factor D^(d-k), times c^k for a constant
        N = c or times the product with N^k (built once and kept on N) for
        any other N, and the denominator takes D^d once.
        """
        num, den = self.num, self.den
        scales, powers = {}, {}
        for i, d in enumerate(map(max, zip(*num)) if num else ()):
            if d and VARS[i] in assign:
                p = assign[VARS[i]]
                if not isinstance(p, MultiPoly):
                    p = MultiPoly.const(p)
                den *= p.den**d
                c = 1
                if p.num.keys() <= {_ZERO_EXPO}:
                    c = p.num.get(_ZERO_EXPO, 0)
                else:
                    # the numerators of p^k at index k, kept on p for the next subs
                    powers[i] = kept = p._powers or [None, p.num]
                    while len(kept) <= d:
                        kept.append(_times(kept[-1], p.num))
                    object.__setattr__(p, "_powers", kept)
                scales[i] = [c**k * p.den ** (d - k) for k in range(d + 1)]
        keep = tuple(int(i not in scales) for i in range(NVARS))
        scales, powers = list(scales.items()), list(powers.items())
        acc: Nums = {}
        for e, n in num.items():
            for i, table in scales:
                n *= table[e[i]]
            if not n:
                continue
            term = {tuple(map(mul, e, keep)): n}
            for i, table in powers:
                if e[i]:
                    term = _times(term, table[e[i]])
            for r, n in term.items():
                acc[r] = acc.get(r, 0) + n
        return MultiPoly._make({e: n for e, n in acc.items() if n}, den)

    def try_divide(self, divisor: "MultiPoly") -> Optional["MultiPoly"]:
        """Return self/divisor if the division is exact, else None.  The
        numerators are divided by the divisor's primitive part, and by
        Gauss's lemma an exact quotient by it has int coefficients."""
        if divisor.is_zero():
            raise ZeroDivisionError
        g = math.gcd(*divisor.num.values())
        lead_e = max(divisor.num, key=_order)
        lead = divisor.num[lead_e] // g
        rest = [(be, bn // g) for be, bn in divisor.num.items() if be != lead_e]
        rem, quot = dict(self.num), {}
        while rem:
            e = max(rem, key=_order)
            q, r = divmod(rem.pop(e), lead)
            diff = tuple(map(sub, e, lead_e))
            if r or min(diff) < 0:
                return None
            quot[diff] = q
            for be, bn in rest:
                te = tuple(map(add, diff, be))
                n = rem.get(te, 0) - q * bn
                if n:
                    rem[te] = n
                else:
                    del rem[te]
        return MultiPoly._make({e: q * divisor.den for e, q in quot.items()}, self.den * g)

    def proportionality(self, other: "MultiPoly") -> Optional[Fraction]:
        """Return c with self == c*other, or None if not proportional."""
        if other.is_zero():
            return Fraction(0) if self.is_zero() else None
        e = next(iter(other.num))
        ratio = Fraction(self.num.get(e, 0) * other.den, other.num[e] * self.den)
        return ratio if ratio and self == other * ratio else None

    def __str__(self):
        if not self.num:
            return "0"
        items = sorted(self.num.items(), key=lambda t: (-sum(t[0]), tuple(-k for k in t[0])))
        parts = []
        for e, n in items:
            c = Fraction(n, self.den)
            mono = " ".join(VARS[i] + ("^%d" % k if k > 1 else "") for i, k in enumerate(e) if k)
            parts.append({1: "", -1: "-"}.get(c, "%s " % c) + mono if mono else str(c))
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return "MultiPoly(%s)" % self


class Point(dict):
    """The values of the variables, to evaluate polynomials at.  A point
    keeps the monomial values of each support evaluated at it, shared by the
    polynomials with that support; its values must not change afterwards."""

    __slots__ = ("_vectors",)

    def __init__(self, values: Dict[str, object]):
        super().__init__(values)
        self._vectors = {}

    def build_vector(self, support: _Support):
        """Build and keep the value of each monomial of the support, and the
        scale, the product of the m^d: with n/m the value of a variable of
        degree d (n = v, m = 1 for a Scalar in Q(sqrt(s))), its power k
        enters as the int n^k * m^(d-k), and a variable of degree 0 as 1."""
        tables, scale = [], 1
        for name, d in zip(VARS, support.degrees):
            if not d:
                tables.append((1,))
                continue
            try:
                v = self[name]
            except KeyError:
                missing = [u for u, k in zip(VARS, support.degrees) if k and u not in self]
                raise ValueError("unassigned variables %s" % missing) from None
            if isinstance(v, (int, Fraction)):
                n, m = v.as_integer_ratio()
                table = [m**d]
                for _ in range(d):
                    table.append(table[-1] // m * n)
                scale *= table[0]
            elif isinstance(v, float):
                raise TypeError("the value %r of %s is a float" % (v, name))
            else:
                table = list(accumulate([v] * d, mul, initial=1))
            tables.append(table)
        # one factor per variable of VARS, in one pass with no call per term
        t0, t1, t2, t3, t4, t5 = tables
        monos = [t0[a] * t1[b] * t2[c] * t3[d] * t4[e] * t5[f] for a, b, c, d, e, f in support.rows]
        got = self._vectors[support] = (monos, scale)
        return got
